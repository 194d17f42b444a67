"""Exception hierarchy for the IREC reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TopologyError(ReproError):
    """Raised when a topology is malformed or an entity lookup fails."""


class UnknownASError(TopologyError):
    """Raised when an AS identifier is not present in the topology."""

    def __init__(self, as_id: object) -> None:
        super().__init__(f"unknown AS: {as_id!r}")
        self.as_id = as_id


class UnknownInterfaceError(TopologyError):
    """Raised when an interface identifier does not exist on an AS."""

    def __init__(self, as_id: object, interface_id: object) -> None:
        super().__init__(f"AS {as_id!r} has no interface {interface_id!r}")
        self.as_id = as_id
        self.interface_id = interface_id


class UnknownLinkError(TopologyError):
    """Raised when no inter-domain link exists between two interfaces."""


class BeaconError(ReproError):
    """Raised when a PCB is malformed or fails validation."""


class SignatureError(BeaconError):
    """Raised when a PCB signature does not verify."""


class ExpiredBeaconError(BeaconError):
    """Raised when an operation is attempted on an expired PCB."""


class LoopError(BeaconError):
    """Raised when extending a PCB would create an AS-level loop."""


class ExtensionError(BeaconError):
    """Raised when a PCB extension is malformed or duplicated."""


class PolicyViolationError(BeaconError):
    """Raised when a PCB violates the local AS routing policy."""


class AlgebraError(ReproError):
    """Raised when routing-algebra operations are applied inconsistently."""


class AlgorithmError(ReproError):
    """Raised when a routing algorithm misbehaves or is misconfigured."""


class UnknownAlgorithmError(AlgorithmError):
    """Raised when an algorithm identifier cannot be resolved."""

    def __init__(self, algorithm_id: object) -> None:
        super().__init__(f"unknown algorithm: {algorithm_id!r}")
        self.algorithm_id = algorithm_id


class AlgorithmIntegrityError(AlgorithmError):
    """Raised when a fetched on-demand algorithm fails hash verification."""


class SandboxError(AlgorithmError):
    """Base class for sandbox failures."""


class SandboxViolationError(SandboxError):
    """Raised when a payload uses a forbidden construct."""


class SandboxResourceError(SandboxError):
    """Raised when a payload exceeds its step or memory budget."""


class GatewayError(ReproError):
    """Raised by the ingress or egress gateway on invalid operations."""


class RACError(ReproError):
    """Raised when a routing algorithm container is misconfigured."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulation engine."""


class DataPlaneError(ReproError):
    """Raised by the data plane (forwarding paths and the packet walk)."""


class ForwardingError(DataPlaneError):
    """Raised when a packet cannot be forwarded along its path."""


class PathConstructionError(DataPlaneError):
    """Raised when a forwarding path cannot be built from a segment."""


class ConfigurationError(ReproError):
    """Raised when a component receives an invalid configuration."""

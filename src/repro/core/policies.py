"""Admission policies for the ingress gateway.

The ingress gateway "verifies the included signatures and whether the path
constructed by the PCB complies with the local AS' policies" (paper §V-B).
Signature, expiry and loop checks are built into the gateway; this module
provides the configurable policy layer on top:

* :class:`MaxPathLengthPolicy` — reject beacons whose AS path is too long,
* :class:`AvoidASPolicy` — reject beacons traversing specific ASes
  (geopolitical or compliance avoidance), and
* :class:`CompositePolicy` — combine several policies.

Every policy is a callable ``(beacon, local_as) -> None`` that raises
:class:`~repro.exceptions.PolicyViolationError` to reject, matching the
``AdmissionPolicy`` signature of :mod:`repro.core.ingress`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from repro.core.beacon import Beacon
from repro.exceptions import ConfigurationError, PolicyViolationError


@dataclass(frozen=True)
class MaxPathLengthPolicy:
    """Reject beacons whose AS-level path exceeds a maximum length."""

    max_hops: int = 16

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be positive, got {self.max_hops}")

    def __call__(self, beacon: Beacon, _local_as: int) -> None:
        if beacon.hop_count > self.max_hops:
            raise PolicyViolationError(
                f"path length {beacon.hop_count} exceeds the local maximum of {self.max_hops}"
            )


@dataclass(frozen=True)
class AvoidASPolicy:
    """Reject beacons whose path traverses any of the avoided ASes."""

    avoided: FrozenSet[int] = frozenset()

    def __call__(self, beacon: Beacon, _local_as: int) -> None:
        on_path = set(beacon.as_path()) & self.avoided
        if on_path:
            raise PolicyViolationError(
                f"path traverses avoided ASes {sorted(on_path)}"
            )


@dataclass
class CompositePolicy:
    """Apply several policies in order; the first violation wins."""

    policies: Tuple[object, ...] = ()

    def __call__(self, beacon: Beacon, local_as: int) -> None:
        for policy in self.policies:
            policy(beacon, local_as)


def standard_policies(max_hops: int = 16, avoided_ases: Iterable[int] = ()) -> CompositePolicy:
    """Build the composite policy a typical AS deploys.

    Args:
        max_hops: Maximum admissible AS-path length.
        avoided_ases: ASes whose transit must be avoided.
    """
    policies: list = [MaxPathLengthPolicy(max_hops=max_hops)]
    avoided = frozenset(int(a) for a in avoided_ases)
    if avoided:
        policies.append(AvoidASPolicy(avoided=avoided))
    return CompositePolicy(policies=tuple(policies))

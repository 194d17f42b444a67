"""Admission policies for the ingress gateway.

The ingress gateway "verifies the included signatures and whether the path
constructed by the PCB complies with the local AS' policies" (paper §V-B).
Signature, expiry and loop checks are built into the gateway; this module
provides the configurable policy layer on top:

* :class:`MaxPathLengthPolicy` — reject beacons whose AS path is too long,
* :class:`OriginFilterPolicy` — allow- or deny-list of origin ASes,
* :class:`AvoidASPolicy` — reject beacons traversing specific ASes
  (geopolitical or compliance avoidance),
* :class:`ValleyFreePolicy` — enforce Gao-Rexford export semantics on the
  neighbour the beacon was received from, and
* :class:`CompositePolicy` — combine several policies.

Every policy is a callable ``(beacon, local_as) -> None`` that raises
:class:`~repro.exceptions.PolicyViolationError` to reject, matching the
``AdmissionPolicy`` signature of :mod:`repro.core.ingress`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.core.beacon import Beacon
from repro.exceptions import ConfigurationError, PolicyViolationError
from repro.topology.graph import Topology


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
class OriginFilterPolicy:
    """Allow- or deny-list on the beacon's origin AS.

    Exactly one of ``allowed`` and ``denied`` should be non-empty; if both
    are given the allow-list is applied first, then the deny-list.
    """

    allowed: FrozenSet[int] = frozenset()
    denied: FrozenSet[int] = frozenset()

    def __call__(self, beacon: Beacon, _local_as: int) -> None:
        if self.allowed and beacon.origin_as not in self.allowed:
            raise PolicyViolationError(
                f"origin AS {beacon.origin_as} is not in the local allow-list"
            )
        if beacon.origin_as in self.denied:
            raise PolicyViolationError(f"origin AS {beacon.origin_as} is deny-listed")


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
class ValleyFreePolicy:
    """Enforce Gao-Rexford semantics on the propagating neighbour.

    A beacon received from a neighbour is only admissible if that neighbour
    was allowed to export it to the local AS: paths learned from the
    neighbour's providers or peers may only flow "downhill" to its
    customers.  The check needs the business relationships around the
    neighbour, so the policy holds a reference to the (local view of the)
    topology.

    The check is conservative: if the beacon's previous hop cannot be
    determined (e.g. the neighbour originated it), the beacon is accepted.
    """

    topology: Topology

    def __call__(self, beacon: Beacon, local_as: int) -> None:
        if beacon.hop_count < 2:
            return  # originated by the direct neighbour: always exportable
        neighbor_as = beacon.last_as
        received_from = beacon.entries[-2].as_id
        try:
            allowed = self.topology.export_allowed(
                received_from=received_from, via=neighbor_as, to_as=local_as
            )
        except Exception as exc:  # unknown adjacency: treat as violation
            raise PolicyViolationError(
                f"cannot validate export from AS {neighbor_as}: {exc}"
            ) from exc
        if not allowed:
            raise PolicyViolationError(
                f"AS {neighbor_as} may not export a path learned from AS {received_from} "
                f"to AS {local_as} under valley-free routing"
            )


@dataclass
class CompositePolicy:
    """Apply several policies in order; the first violation wins."""

    policies: Tuple[object, ...] = ()

    def __call__(self, beacon: Beacon, local_as: int) -> None:
        for policy in self.policies:
            policy(beacon, local_as)

    def and_also(self, policy: object) -> "CompositePolicy":
        """Return a new composite with ``policy`` appended."""
        return CompositePolicy(policies=self.policies + (policy,))


def standard_policies(
    topology: Optional[Topology] = None,
    max_hops: int = 16,
    denied_origins: Iterable[int] = (),
    avoided_ases: Iterable[int] = (),
) -> CompositePolicy:
    """Build the composite policy a typical AS deploys.

    Args:
        topology: When given, valley-free enforcement is included.
        max_hops: Maximum admissible AS-path length.
        denied_origins: Origin ASes to reject outright.
        avoided_ases: ASes whose transit must be avoided.
    """
    policies: list = [MaxPathLengthPolicy(max_hops=max_hops)]
    denied = frozenset(int(a) for a in denied_origins)
    if denied:
        policies.append(OriginFilterPolicy(denied=denied))
    avoided = frozenset(int(a) for a in avoided_ases)
    if avoided:
        policies.append(AvoidASPolicy(avoided=avoided))
    if topology is not None:
        policies.append(ValleyFreePolicy(topology=topology))
    return CompositePolicy(policies=tuple(policies))

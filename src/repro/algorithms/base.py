"""The standardized RAC ↔ algorithm interface.

The paper's §VI places this interface in the *stable* standardization tier:
it must be fixed once so that new algorithms can be written, shipped inside
PCBs and executed by any AS without coordination.  The interface consists
of three pieces:

* :class:`ExecutionContext` — what a RAC hands to an algorithm: the
  candidate beacons of one (origin AS, interface group, target) bucket,
  each paired with the ingress interface it was received on (the ingress
  database's own :class:`CandidateBeacon` records); the egress
  interfaces to optimize for; the per-interface path limit; and a callback
  exposing intra-AS topology information (interface-pair latencies),
* :class:`ExecutionResult` — what the algorithm returns: for every egress
  interface, the ordered list of optimal beacons (at most the limit), and
* :class:`RoutingAlgorithm` — the abstract algorithm itself.

The module also provides :func:`select_per_interface`, the selection
skeleton most concrete algorithms share.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.beacon import Beacon, _slot

#: Intra-AS latency oracle: maps (interface_a, interface_b) to milliseconds.
IntraLatencyOracle = Callable[[int, int], float]


@dataclass(frozen=True, slots=True)
class CandidateBeacon:
    """A received beacon: the ingress database's record and an algorithm's candidate.

    The ingress database stores exactly these records and a RAC hands them
    to its algorithm as they are, so a candidate is never re-wrapped.

    Attributes:
        beacon: The received beacon.
        ingress_interface: Local interface the beacon was received on, or
            ``None`` if the local AS originated it (only relevant for the
            origination path, which algorithms normally never see).
        received_at_ms: Simulated arrival time.

    The record's one memo, ``_segment``, is the beacon terminated over
    ``ingress_interface``, which the egress gateway fills the first time
    the record is registered (a declared slot, outside ``==`` / hash /
    repr): a selection repeated round after round is signed once, and
    the segment goes with its record.
    """

    beacon: Beacon
    ingress_interface: Optional[int]
    received_at_ms: float = 0.0
    _segment: Optional[Beacon] = _slot()


class ExecutionContext(NamedTuple):
    """Everything an algorithm may use for one execution.

    The candidates all share the same origin AS and, when present, the same
    interface group and target AS — the RAC buckets them before invoking
    the algorithm (paper §V-C: "The PCBs provided as input are specific for
    an origin AS, as well as interface group and target AS").

    A ``NamedTuple``: immutable like a frozen dataclass, and a RAC builds
    one per job at the cost of a tuple.  Being a tuple, it can also be
    built and unpacked positionally, compares equal to a plain tuple of
    the same fields, and is changed with ``_replace`` (not
    ``dataclasses.replace``).

    Attributes:
        local_as: The AS executing the algorithm.
        candidates: Candidate beacons of one bucket.
        egress_interfaces: Local interfaces to compute optimal sets for.
        max_paths_per_interface: Upper bound on selected beacons per egress
            interface (configured per RAC and interface, §V-C).
        intra_latency_ms: Intra-AS latency oracle between local interfaces.
    """

    local_as: int
    candidates: Tuple[CandidateBeacon, ...]
    egress_interfaces: Tuple[int, ...]
    max_paths_per_interface: int
    intra_latency_ms: IntraLatencyOracle


@dataclass
class ExecutionResult:
    """The per-egress-interface optimal beacon sets returned by an algorithm."""

    selections: Dict[int, List[Beacon]] = field(default_factory=dict, init=False)

    def beacons_for(self, egress_interface: int) -> List[Beacon]:
        """Return the selection for one egress interface (may be empty)."""
        return list(self.selections.get(egress_interface, ()))


class RoutingAlgorithm(abc.ABC):
    """Abstract base class of every routing algorithm.

    Concrete algorithms must be stateless across executions (the RAC may
    re-instantiate them at any time) and deterministic given the execution
    context, which is what makes on-demand routing consistent across ASes.
    """

    #: Stable identifier of the algorithm, used in registries and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Compute the optimal beacon set per egress interface."""


#: Per-candidate sort key (lower is better); ``None`` excludes the candidate.
CandidateKey = Callable[[CandidateBeacon], Optional[Tuple]]

#: Optional per-interface refinement: maps (candidate, its per-candidate key,
#: egress interface) to the final sort key, or ``None`` to exclude the
#: candidate on that interface.
InterfaceTerm = Callable[[CandidateBeacon, Tuple, int], Optional[Tuple]]


def select_per_interface(
    context: ExecutionContext,
    paths_per_interface: int,
    key: CandidateKey,
    interface_term: Optional[InterfaceTerm] = None,
) -> ExecutionResult:
    """Shared selection skeleton: rank candidates per egress interface.

    Every loop-free candidate is keyed **once** by ``key``; ties are broken
    deterministically by AS path then beacon digest, and the best
    ``min(paths_per_interface, context.max_paths_per_interface)`` are
    selected.  Without an ``interface_term`` the key cannot depend on the
    egress interface, so candidates are ranked once and every interface
    gets its own copy of that one ranking.  With one, the per-candidate key
    is refined and the candidates re-ranked per interface — only algorithms
    whose criterion really reads the interface (extended paths) pay
    O(candidates × interfaces).

    Beacons whose path already contains the local AS are never selected:
    propagating them would create a loop.
    """
    result = ExecutionResult()
    limit = min(paths_per_interface, context.max_paths_per_interface)
    interfaces = context.egress_interfaces
    if limit <= 0 or not interfaces:
        return result
    # (key, tie-break, candidate) per admissible candidate; the loop check
    # and the tie-break share the beacon's memoized as_path.
    keyed: List[Tuple[Tuple, Tuple, CandidateBeacon]] = []
    local_as = context.local_as
    for candidate in context.candidates:
        beacon = candidate.beacon
        path = beacon.as_path()
        if local_as in path:
            continue
        base = key(candidate)
        if base is not None:
            keyed.append((base, (path, beacon.digest()), candidate))
    selections = result.selections
    if interface_term is None:
        best = _best(keyed, limit)
        if best:
            for egress_interface in interfaces:
                selections[egress_interface] = best.copy()
        return result
    for egress_interface in interfaces:
        refined = []
        for base, tie_break, candidate in keyed:
            final = interface_term(candidate, base, egress_interface)
            if final is not None:
                refined.append((final, tie_break, candidate))
        best = _best(refined, limit)
        if best:
            selections[egress_interface] = best
    return result


_KEY_THEN_TIE_BREAK = itemgetter(0, 1)


def _best(keyed: List[Tuple[Tuple, Tuple, CandidateBeacon]], limit: int) -> List[Beacon]:
    """Return the beacons of the ``limit`` lowest ``(key, tie-break)`` entries.

    The sort key stops at the tie-break: two entries of one candidate
    listed twice tie there, and candidates do not order.
    """
    keyed.sort(key=_KEY_THEN_TIE_BREAK)
    return [candidate.beacon for _key, _tie_break, candidate in keyed[:limit]]

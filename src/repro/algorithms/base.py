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
skeleton most concrete algorithms share: it ranks each admissible
candidate as one flat ``(key, as_path, digest, position)`` tuple, takes
the best by plain tuple comparison, and hands interfaces whose ranking
cannot differ one shared list.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
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
    """The per-egress-interface optimal beacon sets returned by an algorithm.

    Interfaces that share one ranking may share one list object (the
    selection skeleton hands every interface the same list when its key
    ignores the interface), so a reader must not mutate a list it did
    not build; :meth:`beacons_for` returns a copy.
    """

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

#: A ranked candidate: (key, AS path, digest, position in the candidates).
_Ranked = Tuple[Tuple, Tuple[int, ...], str, int]


def select_per_interface(
    context: ExecutionContext,
    paths_per_interface: int,
    key: CandidateKey,
    interface_term: Optional[InterfaceTerm] = None,
) -> ExecutionResult:
    """Shared selection skeleton: rank candidates per egress interface.

    Every loop-free candidate is keyed **once** by ``key`` into one flat
    tuple ``(key, as_path, digest, position)``, ``position`` being its
    index in ``context.candidates``: ties are broken deterministically by
    AS path, then beacon digest, then listing order, and since positions
    are unique a comparison never reaches a candidate.  The best
    ``min(paths_per_interface, context.max_paths_per_interface)`` are
    selected.  Without an ``interface_term`` the key cannot depend on the
    egress interface, so candidates are ranked once and every interface
    is handed the same list (:class:`ExecutionResult` lists may be
    shared).  With one, the per-candidate key is refined and the
    candidates re-ranked per interface — only algorithms whose criterion
    really reads the interface (extended paths) pay
    O(candidates × interfaces).

    Beacons whose path already contains the local AS are never selected:
    propagating them would create a loop.
    """
    result = ExecutionResult()
    limit = min(paths_per_interface, context.max_paths_per_interface)
    interfaces = context.egress_interfaces
    if limit <= 0 or not interfaces:
        return result
    # One flat tuple per admissible candidate; the loop check and the
    # tie-break share the beacon's memoized as_path.
    candidates = context.candidates
    local_as = context.local_as
    ranked: List[_Ranked] = []
    for position, candidate in enumerate(candidates):
        beacon = candidate.beacon
        path = beacon.as_path()
        if local_as in path:
            continue
        base = key(candidate)
        if base is not None:
            ranked.append((base, path, beacon.digest(), position))
    selections = result.selections
    if interface_term is None:
        best = _best(ranked, limit, candidates)
        if best:
            for egress_interface in interfaces:
                selections[egress_interface] = best
        return result
    for egress_interface in interfaces:
        refined = []
        for base, path, digest, position in ranked:
            final = interface_term(candidates[position], base, egress_interface)
            if final is not None:
                refined.append((final, path, digest, position))
        best = _best(refined, limit, candidates)
        if best:
            selections[egress_interface] = best
    return result


def _best(
    ranked: List[_Ranked], limit: int, candidates: Tuple[CandidateBeacon, ...]
) -> List[Beacon]:
    """Return the beacons of the ``limit`` lowest ranked entries, best first.

    Plain tuple comparison: the unique position ends every tie, so a
    candidate listed twice keeps its listing order and a candidate is
    never compared.  One pass of ``min`` for a limit of 1, a sort otherwise.
    """
    if limit == 1:
        return [candidates[min(ranked)[3]].beacon] if ranked else []
    ranked.sort()
    return [candidates[entry[3]].beacon for entry in ranked[:limit]]

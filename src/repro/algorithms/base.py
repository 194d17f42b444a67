"""The standardized RAC ↔ algorithm interface.

The paper's §VI places this interface in the *stable* standardization tier:
it must be fixed once so that new algorithms can be written, shipped inside
PCBs and executed by any AS without coordination.  The interface consists
of three pieces:

* :class:`ExecutionContext` — what a RAC hands to an algorithm: the
  candidate beacons of one (origin AS, interface group, target) bucket,
  each paired with the ingress interface it was received on; the egress
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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.beacon import Beacon
from repro.exceptions import AlgorithmError

#: Intra-AS latency oracle: maps (interface_a, interface_b) to milliseconds.
IntraLatencyOracle = Callable[[int, int], float]


@dataclass(frozen=True, slots=True)
class CandidateBeacon:
    """A beacon as presented to an algorithm.

    Attributes:
        beacon: The received beacon.
        ingress_interface: Local interface the beacon was received on, or
            ``None`` if the local AS originated it (only relevant for the
            origination path, which algorithms normally never see).
    """

    beacon: Beacon
    ingress_interface: Optional[int]


@dataclass(frozen=True)
class ExecutionContext:
    """Everything an algorithm may use for one execution.

    The candidates all share the same origin AS and, when present, the same
    interface group and target AS — the RAC buckets them before invoking
    the algorithm (paper §V-C: "The PCBs provided as input are specific for
    an origin AS, as well as interface group and target AS").

    Attributes:
        local_as: The AS executing the algorithm.
        candidates: Candidate beacons of one bucket.
        egress_interfaces: Local interfaces to compute optimal sets for.
        max_paths_per_interface: Upper bound on selected beacons per egress
            interface (configured per RAC and interface, §V-C).
        intra_latency_ms: Intra-AS latency oracle between local interfaces.
        parameters: Free-form algorithm parameters (used by on-demand
            payloads, e.g. the link-avoid set of the PD algorithm).
    """

    local_as: int
    candidates: Tuple[CandidateBeacon, ...]
    egress_interfaces: Tuple[int, ...]
    max_paths_per_interface: int
    intra_latency_ms: IntraLatencyOracle
    parameters: Mapping[str, object] = field(default_factory=dict)

    def candidates_for_origin(self, origin_as: int) -> Tuple[CandidateBeacon, ...]:
        """Return the candidates originated by ``origin_as``."""
        return tuple(c for c in self.candidates if c.beacon.origin_as == origin_as)

    def origins(self) -> Tuple[int, ...]:
        """Return the distinct origin ASes among the candidates, sorted."""
        return tuple(sorted({c.beacon.origin_as for c in self.candidates}))


@dataclass
class ExecutionResult:
    """The per-egress-interface optimal beacon sets returned by an algorithm."""

    selections: Dict[int, List[Beacon]] = field(default_factory=dict)

    def add(self, egress_interface: int, beacon: Beacon) -> None:
        """Append ``beacon`` to the selection of ``egress_interface``."""
        self.selections.setdefault(egress_interface, []).append(beacon)

    def beacons_for(self, egress_interface: int) -> List[Beacon]:
        """Return the selection for one egress interface (may be empty)."""
        return list(self.selections.get(egress_interface, ()))

    def total_selected(self) -> int:
        """Return the total number of (interface, beacon) selections."""
        return sum(len(beacons) for beacons in self.selections.values())

    def enforce_limit(self, limit: int) -> None:
        """Truncate every per-interface selection to ``limit`` entries."""
        if limit < 0:
            raise AlgorithmError(f"limit must be non-negative, got {limit}")
        for interface in list(self.selections):
            self.selections[interface] = self.selections[interface][:limit]


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

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


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
    if limit <= 0 or not context.egress_interfaces:
        return result
    # (key, tie-break, candidate) per admissible candidate; the tie-break
    # leans on the beacon's memoized as_path/digest.
    keyed: List[Tuple[Tuple, Tuple, CandidateBeacon]] = []
    local_as = context.local_as
    for candidate in context.candidates:
        beacon = candidate.beacon
        if beacon.contains_as(local_as):
            continue
        base = key(candidate)
        if base is not None:
            keyed.append((base, (beacon.as_path(), beacon.digest()), candidate))
    shared = None if interface_term is not None else _best(keyed, limit)
    for egress_interface in context.egress_interfaces:
        best = shared
        if best is None:
            refined = []
            for base, tie_break, candidate in keyed:
                final = interface_term(candidate, base, egress_interface)
                if final is not None:
                    refined.append((final, tie_break, candidate))
            best = _best(refined, limit)
        if best:
            result.selections.setdefault(egress_interface, []).extend(best)
    return result


_KEY_THEN_TIE_BREAK = itemgetter(0, 1)


def _best(keyed: List[Tuple[Tuple, Tuple, CandidateBeacon]], limit: int) -> List[Beacon]:
    """Return the beacons of the ``limit`` lowest ``(key, tie-break)`` entries."""
    keyed.sort(key=_KEY_THEN_TIE_BREAK)
    return [candidate.beacon for _key, _tie_break, candidate in keyed[:limit]]

"""Heuristic disjointness (HD).

HD is the disjointness heuristic of Krähenbühl et al. that the paper
deploys as a static RAC (§VIII-B): for each origin AS, it greedily builds a
set of paths that reuse as few inter-domain links as possible, so that the
registered path set tolerates many link failures (the TLF metric of
Figure 8b).

The algorithm keeps per-(egress interface, origin) state across executions:

* on the first execution for a pair it fills its quota with the
  minimum-overlap candidates (greedy set cover of links), and
* on subsequent executions it only propagates candidates that are
  **completely link-disjoint** from everything it propagated before for
  that pair.

The second rule reproduces the behaviour the paper reports in Figure 8c —
"interfaces on which PCBs have been propagated before are avoided in
subsequent periods", giving HD a much lower steady-state overhead than the
uniform-propagation algorithms — while still letting the registered
disjointness grow as genuinely new disjoint paths appear.

Only the link overlap of a candidate depends on the pair; hop count,
latency, AS path and link tuple are read once per execution and the
candidates ordered by them once, so a pair costs its overlap checks only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.algorithms.base import (
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.core.beacon import Beacon
from repro.exceptions import AlgorithmError
from repro.topology.entities import LinkID


@dataclass
class _PairState:
    """Persisted HD state for one (egress interface, origin AS) pair."""

    used_links: Dict[LinkID, int] = field(default_factory=dict)
    served_digests: Set[str] = field(default_factory=set)
    first_round_done: bool = False


@dataclass
class HeuristicDisjointnessAlgorithm(RoutingAlgorithm):
    """Greedy link-disjointness maximization per origin AS.

    Attributes:
        paths_per_interface: Number of beacons selected per egress
            interface and origin in the first round (capped by the RAC
            limit).
        remember_propagations: Whether to keep the per-pair state across
            executions (the paper's low-steady-state-overhead behaviour).
            Disabling it makes every execution behave like a first round,
            which is useful for isolated unit tests.
    """

    paths_per_interface: int = 1
    remember_propagations: bool = True
    name: str = "hd"
    _state: Dict[Tuple[int, int], _PairState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Select maximally link-disjoint beacons for every egress interface."""
        result = ExecutionResult()
        limit = min(self.paths_per_interface, context.max_paths_per_interface)
        if limit <= 0:
            return result

        loop_free = [
            candidate.beacon
            for candidate in context.candidates
            if not candidate.beacon.contains_as(context.local_as)
        ]
        if not loop_free:
            return result
        origin = loop_free[0].origin_as
        # Everything but the overlap is the same for every pair: order the
        # candidates once by the overlap-independent rest of the score (the
        # sort is stable, so full ties keep their bucket order).
        loop_free.sort(key=lambda b: (b.hop_count, b.total_latency_ms(), b.as_path()))
        ordered = [(beacon.digest(), beacon.links(), beacon) for beacon in loop_free]

        for egress_interface in context.egress_interfaces:
            state = _PairState()
            if self.remember_propagations:
                state = self._state.setdefault((egress_interface, origin), state)
            selected = self._select_for_pair(ordered, state, limit)
            if selected:
                result.selections.setdefault(egress_interface, []).extend(selected)
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _select_for_pair(
        ordered: List[Tuple[str, Tuple[LinkID, ...], Beacon]], state: _PairState, limit: int
    ) -> List[Beacon]:
        """Greedy minimum-overlap selection for one (interface, origin) pair.

        ``ordered`` is sorted by (hop count, latency, AS path), so the
        best candidate is the first one with the least overlap and a
        zero-overlap candidate ends the scan.  The selection is recorded
        in ``state`` as it is made.
        """
        used = state.used_links
        used_keys = used.keys()
        steady = state.first_round_done
        remaining = [item for item in ordered if item[0] not in state.served_digests]
        selected: List[Beacon] = []
        while remaining and len(selected) < limit:
            best, best_overlap = None, 0
            for item in remaining:
                if used_keys.isdisjoint(item[1]):
                    best = item
                    break
                if steady:
                    # Steady state: only propagate paths that add entirely
                    # new links; anything overlapping was covered in
                    # earlier rounds.
                    continue
                overlap = sum(used.get(link, 0) for link in item[1])
                if best is None or overlap < best_overlap:
                    best, best_overlap = item, overlap
            if best is None:
                break
            remaining.remove(best)
            digest, links, beacon = best
            selected.append(beacon)
            state.served_digests.add(digest)
            for link in links:
                used[link] = used.get(link, 0) + 1
        state.first_round_done = True
        return selected

    def reset_memory(self) -> None:
        """Forget all per-pair state (used between simulations)."""
        self._state.clear()

    def describe(self) -> str:
        return (
            f"heuristic link disjointness, {self.paths_per_interface} per interface, "
            f"{'with' if self.remember_propagations else 'without'} propagation memory"
        )

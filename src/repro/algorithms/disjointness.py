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

The served digests of a pair are pruned exactly.  A served digest is kept
with its beacon's expiry and filed under its beacon's bucket (interface
group, target, algorithm; the origin is the pair's).  An execution is
handed every stored record of each bucket it covers, so a digest of such a
bucket that is not among the candidates is no longer stored; once its
beacon also expired before the newest candidate arrived it can never be a
candidate again (the ingress gateway rejects expired beacons), and it is
dropped.  A digest of a bucket the execution does not cover may still be
stored, expired, until the round's expiry sweep, and stays.  A bucket is
looked at only once the newest arrival reaches the earliest expiry served
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.algorithms.base import (
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.core.beacon import Beacon
from repro.exceptions import AlgorithmError
from repro.topology.entities import LinkID


#: A beacon's bucket within its origin: (interface group, target, algorithm).
_Bucket = Tuple[Optional[int], Optional[int], Optional[str]]


def _bucket(beacon: Beacon) -> _Bucket:
    return (beacon.interface_group_id, beacon.target_as, beacon.algorithm_id)


@dataclass(slots=True)
class _BucketServed:
    """The digests a pair served from one bucket."""

    digests: List[str] = field(default_factory=list, init=False)
    #: No digest here can be forgotten before an arrival this late: the
    #: earliest expiry among them or, while an expired one had to stay
    #: because it is still stored, the next arrival after the one that
    #: looked.
    next_expiry_ms: float = math.inf


@dataclass
class _PairState:
    """Persisted HD state for one (egress interface, origin AS) pair."""

    used_links: Dict[LinkID, int] = field(default_factory=dict, init=False)
    #: Digest served → that beacon's expiry.
    served_digests: Dict[str, float] = field(default_factory=dict, init=False)
    served_by_bucket: Dict[_Bucket, _BucketServed] = field(default_factory=dict, init=False)
    #: The earliest ``next_expiry_ms`` of the buckets.
    next_expiry_ms: float = field(default=math.inf, init=False)
    first_round_done: bool = False

    def serve(self, digest: str, beacon: Beacon) -> None:
        """Record that ``beacon`` was served."""
        expires_at_ms = beacon.expires_at_ms()
        self.served_digests[digest] = expires_at_ms
        bucket = _bucket(beacon)
        served = self.served_by_bucket.get(bucket)
        if served is None:
            served = self.served_by_bucket[bucket] = _BucketServed()
        served.digests.append(digest)
        served.next_expiry_ms = min(served.next_expiry_ms, expires_at_ms)
        self.next_expiry_ms = min(self.next_expiry_ms, expires_at_ms)

    def forget_expired(
        self, buckets: Set[_Bucket], present: FrozenSet[str], newest_ms: float
    ) -> None:
        """Drop the served digests of ``buckets`` that can never be candidates again.

        ``present`` holds the digests of every stored record of ``buckets``
        and ``newest_ms`` is the newest arrival among them: a digest that is
        not present and whose beacon expired by then is gone for good.
        """
        expiries = self.served_digests
        by_bucket = self.served_by_bucket
        for bucket in buckets:
            served = by_bucket.get(bucket)
            if served is None or served.next_expiry_ms > newest_ms:
                continue
            kept = []
            for digest in served.digests:
                if expiries[digest] <= newest_ms and digest not in present:
                    del expiries[digest]
                else:
                    kept.append(digest)
            if not kept:
                del by_bucket[bucket]
                continue
            served.digests = kept
            earliest = min(expiries[digest] for digest in kept)
            served.next_expiry_ms = max(earliest, math.nextafter(newest_ms, math.inf))
        self.next_expiry_ms = min(
            (served.next_expiry_ms for served in by_bucket.values()), default=math.inf
        )


@dataclass
class HeuristicDisjointnessAlgorithm(RoutingAlgorithm):
    """Greedy link-disjointness maximization per origin AS.

    The per-(egress interface, origin) state is kept across executions:
    the paper's low-steady-state-overhead behaviour.

    Attributes:
        paths_per_interface: Number of beacons selected per egress
            interface and origin in the first round (capped by the RAC
            limit).
    """

    paths_per_interface: int = 1
    name: ClassVar[str] = "hd"
    _state: Dict[Tuple[int, int], _PairState] = field(default_factory=dict, init=False)

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
        newest_ms = max(candidate.received_at_ms for candidate in context.candidates)
        # The buckets and digests of this call, read once a pair may forget.
        covered = None

        for egress_interface in context.egress_interfaces:
            state = self._state.setdefault((egress_interface, origin), _PairState())
            if state.next_expiry_ms <= newest_ms:
                if covered is None:
                    covered = (
                        {_bucket(beacon) for beacon in loop_free},
                        frozenset(item[0] for item in ordered),
                    )
                state.forget_expired(*covered, newest_ms)
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
            state.serve(digest, beacon)
            for link in links:
                used[link] = used.get(link, 0) + 1
        state.first_round_done = True
        return selected

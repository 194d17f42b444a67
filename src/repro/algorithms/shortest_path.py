"""Shortest-path algorithms (1SP, 5SP and the legacy 20-path selection).

The paper's simulations deploy two shortest-path static RACs: **1SP**
propagates, for each origin AS, the single shortest path (by AS-hop count)
on every egress interface, and **5SP** propagates the five shortest
(§VIII-B).  The legacy SCION control service used as the micro-benchmark
baseline (§VII-B) selects the 20 shortest paths per origin, which
:func:`legacy_scion_algorithm` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.exceptions import AlgorithmError

#: Number of paths the legacy SCION control service selects per origin AS.
LEGACY_PATH_COUNT = 20


def hops_then_latency(candidate: CandidateBeacon) -> Tuple[float, float]:
    """Per-candidate key: AS-hop count, ties broken by accumulated latency."""
    beacon = candidate.beacon
    return (float(beacon.hop_count), beacon.total_latency_ms())


@dataclass
class KShortestPathAlgorithm(RoutingAlgorithm):
    """Select the ``k`` shortest beacons per origin, by AS-hop count.

    Ties between equally-long paths are broken by accumulated latency and
    then deterministically by the shared tie-breaking of the selection
    skeleton, so that all ASes running this algorithm make identical
    choices — the property on-demand routing relies on for optimality.

    Attributes:
        k: Number of beacons to select per egress interface.  The effective
            number is additionally capped by the RAC's per-interface limit.
    """

    k: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise AlgorithmError(f"k must be at least 1, got {self.k}")
        self.name = f"{self.k}sp"

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the ``k`` hop-count-shortest beacons for every egress interface."""
        return select_per_interface(context, self.k, hops_then_latency)

    def describe(self) -> str:
        return f"{self.k} shortest paths by AS-hop count"


def legacy_scion_algorithm() -> KShortestPathAlgorithm:
    """Return the legacy SCION selection: the 20 shortest paths per origin.

    This is the algorithm the paper runs both inside an on-demand RAC and in
    the legacy control service to compare the two implementations' latency
    and throughput (Figures 6 and 7).
    """
    return KShortestPathAlgorithm(k=LEGACY_PATH_COUNT)

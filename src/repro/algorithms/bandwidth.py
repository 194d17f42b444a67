"""Bandwidth-oriented algorithms (widest, shortest-widest, bounded-latency widest).

These algorithms back the motivating examples of the paper: the
file-transfer application that needs the highest-bandwidth path (Figure 1),
the shortest-widest criterion communicated via on-demand routing
(Figure 2c), and the live-video application that wants the widest path
within a latency bound (Figure 1, example #2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.exceptions import AlgorithmError


@dataclass
class WidestPathAlgorithm(RoutingAlgorithm):
    """Select the beacons with the highest bottleneck bandwidth."""

    paths_per_interface: int = 1
    name: str = "widest"

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the widest beacons for every egress interface."""
        return select_per_interface(context, self.paths_per_interface, _widest)

    def describe(self) -> str:
        return f"highest bottleneck bandwidth, {self.paths_per_interface} per interface"


@dataclass
class ShortestWidestAlgorithm(RoutingAlgorithm):
    """Shortest-widest selection: maximize bandwidth, break ties by latency.

    This is the algorithm the paper's Figure 2c shows an origin AS
    communicating to other ASes through on-demand routing: "the
    lowest-latency path among the highest-bandwidth ones".
    """

    paths_per_interface: int = 1
    name: str = "shortest-widest"

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the shortest-widest beacons for every egress interface."""
        return select_per_interface(context, self.paths_per_interface, _widest_then_latency)

    def describe(self) -> str:
        return f"shortest-widest, {self.paths_per_interface} per interface"


@dataclass
class LatencyBoundedWidestAlgorithm(RoutingAlgorithm):
    """Widest path among the paths whose latency stays within a bound.

    Attributes:
        latency_bound_ms: Hard upper bound on accumulated path latency;
            beacons exceeding it are not eligible for selection.
        paths_per_interface: Number of beacons selected per egress interface.
        use_extended_paths: Whether the bound (and the tie-breaking latency)
            is checked on the extended path including the intra-AS latency
            to the candidate egress interface.
    """

    latency_bound_ms: float = 30.0
    paths_per_interface: int = 1
    use_extended_paths: bool = False

    def __post_init__(self) -> None:
        if self.latency_bound_ms <= 0:
            raise AlgorithmError(f"latency bound must be positive, got {self.latency_bound_ms}")
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )
        self.name = f"widest-latency<={self.latency_bound_ms:g}ms"

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the widest within-bound beacons for every egress interface.

        On received paths the bound is part of the per-candidate key (rank
        once); on extended paths bound and tie-breaking latency are checked
        per egress interface on top of the same per-candidate base.
        """
        bound = self.latency_bound_ms

        def within(key: Tuple[float, float]) -> Optional[Tuple[float, float]]:
            return key if key[1] <= bound else None

        if not self.use_extended_paths:
            return select_per_interface(
                context, self.paths_per_interface, lambda c: within(_widest_then_latency(c))
            )
        intra_latency_ms = context.intra_latency_ms

        def term(candidate: CandidateBeacon, key: Tuple, egress_interface: int) -> Optional[Tuple]:
            if candidate.ingress_interface is None:
                return within(key)
            intra = intra_latency_ms(candidate.ingress_interface, egress_interface)
            return within((key[0], key[1] + intra))

        return select_per_interface(
            context, self.paths_per_interface, _widest_then_latency, term
        )

    def describe(self) -> str:
        return (
            f"widest path with latency <= {self.latency_bound_ms:g} ms, "
            f"{self.paths_per_interface} per interface"
        )


def _widest(candidate: CandidateBeacon) -> Tuple[float]:
    """Per-candidate key: bottleneck bandwidth, descending."""
    return (-candidate.beacon.bottleneck_bandwidth_mbps(),)


def _widest_then_latency(candidate: CandidateBeacon) -> Tuple[float, float]:
    """Per-candidate key: bottleneck bandwidth (descending), then latency."""
    beacon = candidate.beacon
    return (-beacon.bottleneck_bandwidth_mbps(), beacon.total_latency_ms())

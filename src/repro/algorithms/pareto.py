"""Pareto dominant-path algorithm (the Sobrinho-style related-work baseline).

The paper contrasts IREC with the approach of Sobrinho et al. (§X): define
a partial order over the intersection of all criteria and keep every
*dominant* (non-dominated) path.  That guarantees optimality for every
criterion in the intersection but the number of incomparable paths — and
with it the communication cost — grows quickly with the number of criteria.

This module implements that baseline so the trade-off can be measured: the
ablation benchmark compares the number of beacons the Pareto algorithm
propagates against IREC's parallel single-criterion RACs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.algorithms.base import (
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.core.algebra import BANDWIDTH, LATENCY, MetricDefinition, pareto_frontier
from repro.core.criteria import StandardMetrics
from repro.exceptions import AlgorithmError


@dataclass
class ParetoDominantAlgorithm(RoutingAlgorithm):
    """Propagate every non-dominated beacon under a set of metrics.

    Attributes:
        metrics: Metrics defining the partial order (default: latency and
            bottleneck bandwidth).
        max_paths_per_interface: Optional additional cap; ``None`` keeps the
            full dominant set (subject to the RAC's own configured limit),
            which is precisely the behaviour whose cost the paper criticises.
    """

    metrics: Tuple[MetricDefinition, ...] = (LATENCY, BANDWIDTH)
    max_paths_per_interface: int = 0
    name: str = "pareto-dominant"

    def __post_init__(self) -> None:
        if not self.metrics:
            raise AlgorithmError("pareto algorithm needs at least one metric")
        if len({metric.name for metric in self.metrics}) != len(self.metrics):
            raise AlgorithmError("pareto metrics must be distinct")

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the dominant set of the bucket, per egress interface."""
        result = ExecutionResult()
        limit = context.max_paths_per_interface
        if self.max_paths_per_interface > 0:
            limit = min(limit, self.max_paths_per_interface)
        if limit <= 0:
            return result

        loop_free = [
            candidate.beacon
            for candidate in context.candidates
            if not candidate.beacon.contains_as(context.local_as)
        ]
        dominant = self.dominant_set(loop_free)
        # Deterministic tie-break: hop count, accumulated latency, then the
        # memoized digest as the canonical identity.  The dominant set is
        # capped once, before the per-interface fan-out.
        dominant.sort(
            key=lambda beacon: (beacon.hop_count, beacon.total_latency_ms(), beacon.digest())
        )
        del dominant[limit:]
        for egress_interface in context.egress_interfaces:
            for beacon in dominant:
                result.add(egress_interface, beacon)
        return result

    def dominant_set(self, beacons: Sequence) -> List:
        """Return the non-dominated beacons under :attr:`metrics`."""
        labelled = [
            (beacon, StandardMetrics.vector_for(self.metrics, beacon))
            for beacon in beacons
        ]
        return [beacon for beacon, _vector in pareto_frontier(labelled)]

    def describe(self) -> str:
        names = ", ".join(metric.name for metric in self.metrics)
        return f"all dominant paths under ({names})"

"""The one criteria-driven algorithm: a criteria set, run inside a RAC.

This is the extensibility workhorse of the reproduction: any
:class:`~repro.core.criteria.CriteriaSet` — including ones deserialized
from an on-demand algorithm payload that the executing AS has never seen
before — is a routing algorithm without writing code.  Widest,
shortest-widest, latency-bounded widest, lowest-latency and the Pareto
dominant-path baseline are all criteria sets
(:mod:`repro.core.criteria`), not classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import (
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.core.criteria import Composition, CriteriaSet
from repro.exceptions import AlgorithmError


@dataclass
class CriteriaSetAlgorithm(RoutingAlgorithm):
    """Optimize beacons according to a declarative criteria set.

    A lexicographic set ranks every admissible loop-free candidate by its
    :meth:`~repro.core.criteria.CriteriaSet.sort_key` through
    :func:`~repro.algorithms.base.select_per_interface`, whose AS-path and
    digest tie-break makes the choice independent of the candidates'
    order.  A Pareto set keeps the dominant candidates
    (:meth:`~repro.core.criteria.CriteriaSet.select`, fewest hops, then
    lowest latency, then digest first) and sends the same set on every
    egress interface.

    Attributes:
        criteria_set: What "optimal" means for this algorithm.
        paths_per_interface: Number of beacons to propagate per egress
            interface (capped by the RAC limit).
    """

    criteria_set: CriteriaSet
    paths_per_interface: int = 1

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )
        self.name = f"criteria:{self.criteria_set.name}"

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Select the criteria set's best beacons, per egress interface."""
        criteria_set = self.criteria_set
        if criteria_set.composition is Composition.LEXICOGRAPHIC:
            admits, sort_key = criteria_set.admits, criteria_set.sort_key
            return select_per_interface(
                context,
                self.paths_per_interface,
                lambda candidate: sort_key(candidate.beacon) if admits(candidate.beacon) else None,
            )
        result = ExecutionResult()
        limit = min(self.paths_per_interface, context.max_paths_per_interface)
        loop_free = [
            candidate.beacon
            for candidate in context.candidates
            if not candidate.beacon.contains_as(context.local_as)
        ]
        selected = criteria_set.select(loop_free, limit=limit)
        if selected:
            for egress_interface in context.egress_interfaces:
                result.selections[egress_interface] = list(selected)
        return result

"""Routing algebra: what ranking beacons under several criteria reads.

IREC's premise is that path-optimization criteria keep evolving, so a
criterion is data, not code.  This module holds the part of the
routing-algebra literature the paper builds on (Sobrinho's work on routing
on multiple optimality criteria, §X) that the criteria sets of
:mod:`repro.core.criteria` rank with:

* a **metric** is a named quantity with an objective (smaller or larger is
  better),
* a **path vector** holds the values of several metrics for one path and
  knows Pareto dominance, and
* :func:`pareto_frontier` computes the set of incomparable dominant paths.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.exceptions import AlgebraError


class Objective(enum.Enum):
    """Whether smaller or larger values of a metric are preferable."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class MetricDefinition:
    """One elementary metric: its name and whether lower or higher is better."""

    name: str
    objective: Objective

    def prefers(self, a: float, b: float) -> bool:
        """Return whether value ``a`` is strictly preferable to value ``b``."""
        if self.objective is Objective.MINIMIZE:
            return a < b
        return a > b


@dataclass(frozen=True)
class PathVector:
    """The values of several metrics for one path.

    A path vector is always interpreted relative to a fixed tuple of metric
    definitions (its *signature*); comparing vectors with different
    signatures raises :class:`AlgebraError`.
    """

    metrics: Tuple[MetricDefinition, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.metrics) != len(self.values):
            raise AlgebraError(
                f"vector has {len(self.values)} values for {len(self.metrics)} metrics"
            )

    def dominates(self, other: "PathVector") -> bool:
        """Return whether this vector Pareto-dominates ``other``.

        Domination requires being at least as good on every metric and
        strictly better on at least one.
        """
        if self.metrics != other.metrics:
            raise AlgebraError("cannot compare path vectors with different signatures")
        pairs = tuple(zip(self.metrics, self.values, other.values))
        if any(metric.prefers(theirs, mine) for metric, mine, theirs in pairs):
            return False
        return any(metric.prefers(mine, theirs) for metric, mine, theirs in pairs)


def pareto_frontier(vectors: Sequence[Tuple[object, PathVector]]) -> List[Tuple[object, PathVector]]:
    """Return the dominant (non-dominated) subset of labelled vectors.

    This implements the "set of dominant paths" of Sobrinho et al. that the
    paper discusses as the alternative, extensibility-hostile approach to
    multi-criteria optimality: all non-dominated paths are kept, which is
    optimal but grows quickly with the number of criteria (§X).

    The frontier is computed without the naive all-pairs rescan: values are
    first normalized so that smaller is always better, then

    * one metric: a single min-scan,
    * two metrics: a sort-based sweep (O(n log n)) tracking the best second
      component seen at strictly smaller first components, and
    * three or more metrics: a skyline scan over the vectors in ascending
      lexicographic order.  Componentwise domination implies strict
      lexicographic order, so every potential dominator of a vector
      precedes it in the scan and each vector only needs to be checked
      against the frontier built so far.

    Args:
        vectors: Sequence of ``(label, vector)`` pairs; labels are opaque.
            All vectors must share one signature.

    Returns:
        The non-dominated pairs, in their original order.  Duplicated
        vectors are all kept (they do not dominate each other).
    """
    labelled = list(vectors)
    if len(labelled) <= 1:
        return labelled
    metrics = labelled[0][1].metrics
    normalized: List[Tuple[float, ...]] = []
    for _label, vector in labelled:
        if vector.metrics != metrics:
            raise AlgebraError("cannot compare path vectors with different signatures")
        normalized.append(
            tuple(
                value if metric.objective is Objective.MINIMIZE else -value
                for metric, value in zip(metrics, vector.values)
            )
        )

    if len(metrics) == 1:
        best = min(key[0] for key in normalized)
        keep = {index for index, key in enumerate(normalized) if key[0] == best}
    elif len(metrics) == 2:
        keep = _frontier_indices_2d(normalized)
    else:
        keep = _frontier_indices_skyline(normalized)
    return [pair for index, pair in enumerate(labelled) if index in keep]


def _frontier_indices_2d(keys: Sequence[Tuple[float, ...]]) -> set:
    """Sweep-based 2-metric frontier over minimize-normalized keys."""
    order = sorted(range(len(keys)), key=lambda index: keys[index])
    keep: set = set()
    best_y_before = math.inf  # best second component at strictly smaller x
    position = 0
    while position < len(order):
        # Process one group of equal first components together: points in
        # the group only dominate each other through the second component.
        group_end = position
        x = keys[order[position]][0]
        while group_end < len(order) and keys[order[group_end]][0] == x:
            group_end += 1
        group_best_y = keys[order[position]][1]  # sorted, so first is minimal
        for rank in range(position, group_end):
            index = order[rank]
            y = keys[index][1]
            if y >= best_y_before or y > group_best_y:
                continue  # dominated by a smaller-x or same-x point
            keep.add(index)
        best_y_before = min(best_y_before, group_best_y)
        position = group_end
    return keep


def _frontier_indices_skyline(keys: Sequence[Tuple[float, ...]]) -> set:
    """Skyline scan for k-metric frontiers over minimize-normalized keys.

    Vectors are visited in ascending lexicographic order; a vector can only
    be dominated by one that precedes it, and any vector dominated by an
    already-dominated vector is also dominated by that vector's dominator,
    so comparing against the kept frontier alone is sufficient.
    """
    order = sorted(range(len(keys)), key=lambda index: keys[index])
    keep: set = set()
    frontier: List[Tuple[float, ...]] = []
    for index in order:
        key = keys[index]
        dominated = False
        for kept in frontier:
            if kept != key and all(a <= b for a, b in zip(kept, key)):
                dominated = True
                break
        if not dominated:
            keep.add(index)
            frontier.append(key)
    return keep


def pareto_frontier_naive(
    vectors: Sequence[Tuple[object, PathVector]]
) -> List[Tuple[object, PathVector]]:
    """Reference all-pairs O(n²) frontier, kept for equivalence testing."""
    result: List[Tuple[object, PathVector]] = []
    for label, vector in vectors:
        if not any(other.dominates(vector) for _olabel, other in vectors if other is not vector):
            result.append((label, vector))
    return result

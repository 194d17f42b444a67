"""Routing algebra: the formal framework behind extensible criteria.

IREC's premise is that path-optimization criteria keep evolving, so the
library needs a principled way to *define* a criterion and to reason about
its properties.  This module provides that foundation, following the
routing-algebra literature the paper builds on (Sobrinho's work on routing
on multiple optimality criteria, §X):

* a **metric** describes how one elementary quantity accumulates along a
  path (additively like latency, by bottleneck like bandwidth,
  multiplicatively like reliability) and whether smaller or larger is
  better,
* a **path vector** holds the values of several metrics for one path and
  supports Pareto-dominance comparisons, and
* helper functions check **isotonicity** (extension preserves preference),
  the property whose violation by intra-AS latency motivates extended-path
  optimization (paper §IV-E), and compute **Pareto frontiers** of
  incomparable dominant paths.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.exceptions import AlgebraError


class Accumulation(enum.Enum):
    """How a metric accumulates when a path is extended by one hop."""

    ADDITIVE = "additive"
    BOTTLENECK = "bottleneck"
    MULTIPLICATIVE = "multiplicative"


class Objective(enum.Enum):
    """Whether smaller or larger values of a metric are preferable."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class MetricDefinition:
    """The algebraic definition of one elementary metric.

    Attributes:
        name: Unique metric name (e.g. ``"latency_ms"``).
        accumulation: How the metric composes along a path.
        objective: Whether lower or higher values are preferred.
        identity: The value of the empty path: 0 for additive metrics,
            ``+inf`` for bottleneck-minimum metrics, 1 for multiplicative.
    """

    name: str
    accumulation: Accumulation
    objective: Objective

    @property
    def identity(self) -> float:
        """Return the neutral element of the accumulation operation."""
        if self.accumulation is Accumulation.ADDITIVE:
            return 0.0
        if self.accumulation is Accumulation.BOTTLENECK:
            return math.inf
        return 1.0

    def combine(self, path_value: float, hop_value: float) -> float:
        """Extend a path value by one hop value."""
        if self.accumulation is Accumulation.ADDITIVE:
            return path_value + hop_value
        if self.accumulation is Accumulation.BOTTLENECK:
            return min(path_value, hop_value)
        return path_value * hop_value

    def prefers(self, a: float, b: float) -> bool:
        """Return whether value ``a`` is strictly preferable to value ``b``."""
        if self.objective is Objective.MINIMIZE:
            return a < b
        return a > b

    def at_least_as_good(self, a: float, b: float) -> bool:
        """Return whether ``a`` is at least as good as ``b``."""
        return not self.prefers(b, a)

    def best(self, values: Iterable[float]) -> float:
        """Return the best value among ``values``.

        Raises:
            AlgebraError: If ``values`` is empty.
        """
        values = list(values)
        if not values:
            raise AlgebraError(f"cannot take the best of zero values for metric {self.name}")
        return min(values) if self.objective is Objective.MINIMIZE else max(values)

    def sort_key(self) -> Callable[[float], float]:
        """Return a key function that sorts values from best to worst."""
        if self.objective is Objective.MINIMIZE:
            return lambda value: value
        return lambda value: -value


# Standard metric definitions used throughout the library.
LATENCY = MetricDefinition(
    name="latency_ms", accumulation=Accumulation.ADDITIVE, objective=Objective.MINIMIZE
)
HOP_COUNT = MetricDefinition(
    name="hop_count", accumulation=Accumulation.ADDITIVE, objective=Objective.MINIMIZE
)
BANDWIDTH = MetricDefinition(
    name="bandwidth_mbps", accumulation=Accumulation.BOTTLENECK, objective=Objective.MAXIMIZE
)
RELIABILITY = MetricDefinition(
    name="reliability", accumulation=Accumulation.MULTIPLICATIVE, objective=Objective.MAXIMIZE
)

STANDARD_METRICS: Dict[str, MetricDefinition] = {
    metric.name: metric for metric in (LATENCY, HOP_COUNT, BANDWIDTH, RELIABILITY)
}


@functools.lru_cache(maxsize=None)
def signature_index_map(
    metrics: Tuple[MetricDefinition, ...]
) -> Dict[MetricDefinition, int]:
    """Return (and cache) the metric→index map of a signature.

    A *signature* (tuple of metric definitions) recurs across every vector
    of one criteria set, so the map is computed once per distinct signature
    instead of once per lookup.
    """
    return {metric: index for index, metric in enumerate(metrics)}


@dataclass(frozen=True)
class PathVector:
    """The values of several metrics for one path.

    A path vector is always interpreted relative to a fixed tuple of metric
    definitions (its *signature*); operations on vectors with different
    signatures raise :class:`AlgebraError`.
    """

    metrics: Tuple[MetricDefinition, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.metrics) != len(self.values):
            raise AlgebraError(
                f"vector has {len(self.values)} values for {len(self.metrics)} metrics"
            )

    @classmethod
    def _trusted(
        cls, metrics: Tuple[MetricDefinition, ...], values: Tuple[float, ...]
    ) -> "PathVector":
        """Build a vector from an already-validated signature/value pair.

        Internal fast path for operations that derive a vector from an
        existing one (the signature is known consistent), skipping the
        dataclass ``__init__``/``__post_init__`` re-validation.
        """
        vector = object.__new__(cls)
        object.__setattr__(vector, "metrics", metrics)
        object.__setattr__(vector, "values", values)
        return vector

    @classmethod
    def empty(cls, metrics: Sequence[MetricDefinition]) -> "PathVector":
        """Return the vector of the empty path (each metric's identity)."""
        metrics = tuple(metrics)
        return cls(metrics=metrics, values=tuple(m.identity for m in metrics))

    @classmethod
    def of(cls, assignments: Mapping[MetricDefinition, float]) -> "PathVector":
        """Build a vector from a metric-to-value mapping."""
        metrics = tuple(assignments)
        return cls(metrics=metrics, values=tuple(assignments[m] for m in metrics))

    def value_of(self, metric: MetricDefinition) -> float:
        """Return the value of ``metric``.

        Raises:
            AlgebraError: If the metric is not part of the signature.
        """
        index = signature_index_map(self.metrics).get(metric)
        if index is None:
            raise AlgebraError(f"metric {metric.name} not in vector signature")
        return self.values[index]

    def extend(self, hop: Mapping[MetricDefinition, float]) -> "PathVector":
        """Return the vector of this path extended by one hop."""
        new_values = []
        for metric, value in zip(self.metrics, self.values):
            hop_value = hop.get(metric)
            if hop_value is None:
                raise AlgebraError(f"hop does not provide metric {metric.name}")
            new_values.append(metric.combine(value, hop_value))
        return PathVector._trusted(self.metrics, tuple(new_values))

    def _check_signature(self, other: "PathVector") -> None:
        if self.metrics != other.metrics:
            raise AlgebraError("cannot compare path vectors with different signatures")

    def dominates(self, other: "PathVector") -> bool:
        """Return whether this vector Pareto-dominates ``other``.

        Domination requires being at least as good on every metric and
        strictly better on at least one.
        """
        self._check_signature(other)
        at_least_as_good = all(
            metric.at_least_as_good(mine, theirs)
            for metric, mine, theirs in zip(self.metrics, self.values, other.values)
        )
        strictly_better = any(
            metric.prefers(mine, theirs)
            for metric, mine, theirs in zip(self.metrics, self.values, other.values)
        )
        return at_least_as_good and strictly_better

    def incomparable_with(self, other: "PathVector") -> bool:
        """Return whether neither vector dominates the other (and they differ)."""
        self._check_signature(other)
        return (
            not self.dominates(other)
            and not other.dominates(self)
            and self.values != other.values
        )

    def as_dict(self) -> Dict[str, float]:
        """Return a ``{metric name: value}`` mapping, handy for reports."""
        return {metric.name: value for metric, value in zip(self.metrics, self.values)}


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


def is_isotone(
    metric: MetricDefinition,
    path_values: Sequence[float],
    extension_values: Sequence[float],
) -> bool:
    """Check isotonicity of a metric over concrete value samples.

    A metric is isotone when extending two paths by the same hop preserves
    their preference order.  Additive and bottleneck metrics over
    non-negative hop values are isotone; the *extended-path* problem of the
    paper (Figure 4) arises because the extension value is **not** the same
    for both paths (it depends on the ingress interface), which this helper
    makes easy to demonstrate in tests and examples.

    Args:
        metric: Metric definition under test.
        path_values: Candidate path values (at least two).
        extension_values: Hop values to extend every path with.

    Returns:
        ``True`` if, for every pair of path values and every extension
        value, the preference order is preserved after extension.
    """
    if len(path_values) < 2:
        raise AlgebraError("need at least two path values to check isotonicity")
    for extension in extension_values:
        for a in path_values:
            for b in path_values:
                if metric.prefers(a, b):
                    extended_a = metric.combine(a, extension)
                    extended_b = metric.combine(b, extension)
                    if metric.prefers(extended_b, extended_a):
                        return False
    return True


def lexicographic_compare(
    metrics: Sequence[MetricDefinition], a: Sequence[float], b: Sequence[float]
) -> int:
    """Compare two value tuples lexicographically under ``metrics``.

    Returns ``-1`` if ``a`` is preferable, ``1`` if ``b`` is preferable and
    ``0`` if they are equivalent.  Used by composite criteria such as
    shortest-widest (prefer higher bandwidth, break ties by lower latency;
    paper Figure 2c).
    """
    if not (len(metrics) == len(a) == len(b)):
        raise AlgebraError("lexicographic comparison requires equally-sized tuples")
    for metric, value_a, value_b in zip(metrics, a, b):
        if metric.prefers(value_a, value_b):
            return -1
        if metric.prefers(value_b, value_a):
            return 1
    return 0

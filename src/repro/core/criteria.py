"""Criteria and criteria sets.

The paper defines a *criteria set* as "a subset of all possible criteria
across the Internet required by at least one type of application in at
least one end domain" (§IV-A); every routing algorithm optimizes exactly
one criteria set.  This module turns that definition into code:

* a :class:`Criterion` binds a metric to an objective and optionally to a
  constraint (e.g. "latency at most 30 ms", Figure 1's live-video example),
* a :class:`CriteriaSet` combines one or more criteria with a composition
  rule (lexicographic or Pareto) and can *evaluate* and *rank* beacons, and
* :class:`StandardMetrics` extracts metric values from beacons, which keeps
  the mapping between PCB static info and algebraic metrics in one place.

Criteria sets are declarative, hashable and serializable — which is what
makes them *extensible*: an origin AS can describe a brand new criteria set
inside an on-demand algorithm payload without any code changes at the ASes
that execute it.

Fast-path note: beacons are immutable and extractor registration is
append-only, so extracted metric values and whole :class:`PathVector`\\ s
are memoized per beacon (see :meth:`StandardMetrics.vector_for`).  Every
RAC re-ranks its entire bucket each beaconing period; without the memo that
re-walks every entry of every beacon every round.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.algebra import (
    BANDWIDTH,
    HOP_COUNT,
    LATENCY,
    MetricDefinition,
    Objective,
    PathVector,
    STANDARD_METRICS,
    pareto_frontier,
)
from repro.core.beacon import Beacon
from repro.exceptions import AlgebraError, ConfigurationError


class StandardMetrics:
    """Extraction of standard metric values from beacons.

    The mapping from a beacon's static-info records to metric values is a
    *beta-tier* standardization concern in the paper's model (§VI): every
    participating AS must compute "latency" or "bandwidth" the same way for
    global optimization to be meaningful.  Centralizing the extraction here
    is this library's version of that standard.
    """

    _extractors: Dict[str, Callable[[Beacon], float]] = {
        LATENCY.name: lambda beacon: beacon.total_latency_ms(),
        HOP_COUNT.name: lambda beacon: float(beacon.hop_count),
        BANDWIDTH.name: lambda beacon: beacon.bottleneck_bandwidth_mbps(),
    }

    @classmethod
    def extract(cls, metric: MetricDefinition, beacon: Beacon) -> float:
        """Return the value of ``metric`` for ``beacon``.

        Raises:
            AlgebraError: If no extractor is registered for the metric.
        """
        extractor = cls._extractors.get(metric.name)
        if extractor is None:
            raise AlgebraError(f"no standard extractor for metric {metric.name}")
        return extractor(beacon)

    @classmethod
    def register(cls, metric: MetricDefinition, extractor: Callable[[Beacon], float]) -> None:
        """Register an extractor for a new metric (append-only, §VI beta tier)."""
        if metric.name in cls._extractors:
            raise AlgebraError(f"extractor for metric {metric.name} already registered")
        cls._extractors[metric.name] = extractor
        STANDARD_METRICS.setdefault(metric.name, metric)

    @classmethod
    def known_metrics(cls) -> Tuple[str, ...]:
        """Return the names of all metrics with registered extractors."""
        return tuple(sorted(cls._extractors))

    @classmethod
    def vector_for(cls, metrics: Sequence[MetricDefinition], beacon: Beacon) -> PathVector:
        """Return the :class:`PathVector` of ``beacon`` over ``metrics``.

        The vector is memoized per (beacon, signature): beacons are
        immutable and extractor registration is append-only, so the same
        beacon evaluated by the same criteria set across rounds (the common
        case — every RAC re-ranks its whole bucket each period) reuses the
        extracted values instead of re-walking the entries.
        """
        signature = tuple(metrics)
        cache = beacon._metric_vectors
        if cache is None:
            cache = {}
            object.__setattr__(beacon, "_metric_vectors", cache)
        vector = cache.get(signature)
        if vector is None:
            vector = PathVector(
                metrics=signature,
                values=tuple(cls.extract(metric, beacon) for metric in metrics),
            )
            cache[signature] = vector
        return vector


@dataclass(frozen=True)
class Constraint:
    """A bound on a metric value (e.g. latency at most 30 ms)."""

    metric: MetricDefinition
    maximum: Optional[float] = None
    minimum: Optional[float] = None

    def __post_init__(self) -> None:
        if self.maximum is None and self.minimum is None:
            raise ConfigurationError("a constraint needs a minimum or a maximum")

    def satisfied_by(self, value: float) -> bool:
        """Return whether ``value`` satisfies the constraint."""
        if self.maximum is not None and value > self.maximum:
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        return True

    def describe(self) -> str:
        """Return a human-readable rendering of the constraint."""
        parts = []
        if self.minimum is not None:
            parts.append(f"{self.metric.name} >= {self.minimum:g}")
        if self.maximum is not None:
            parts.append(f"{self.metric.name} <= {self.maximum:g}")
        return " and ".join(parts)


@dataclass(frozen=True)
class Criterion:
    """One elementary optimization criterion: a metric with an objective.

    The objective defaults to the metric's natural objective (minimize
    latency, maximize bandwidth) but can be overridden, which lets tests
    express intentionally unusual criteria.
    """

    metric: MetricDefinition
    objective: Optional[Objective] = None

    @property
    def effective_objective(self) -> Objective:
        """Return the objective actually used for comparisons."""
        return self.objective or self.metric.objective

    def evaluate(self, beacon: Beacon) -> float:
        """Return the beacon's value for this criterion's metric."""
        return StandardMetrics.extract(self.metric, beacon)

    def sort_key(self, beacon: Beacon) -> float:
        """Return a value that sorts beacons from best to worst."""
        value = self.evaluate(beacon)
        if self.effective_objective is Objective.MINIMIZE:
            return value
        return -value


class Composition(enum.Enum):
    """How the criteria of a set are combined into a preference."""

    #: Criteria are applied in order; earlier criteria dominate later ones.
    LEXICOGRAPHIC = "lexicographic"
    #: All non-dominated beacons are considered optimal.
    PARETO = "pareto"


@dataclass(frozen=True)
class CriteriaSet:
    """A named, self-contained description of what "optimal" means.

    Attributes:
        name: Identifier of the criteria set (unique within a deployment).
        criteria: The elementary criteria, in priority order for
            lexicographic composition.
        constraints: Hard constraints; beacons violating any constraint are
            filtered out before optimization.
        composition: How multiple criteria combine.
    """

    name: str
    criteria: Tuple[Criterion, ...]
    constraints: Tuple[Constraint, ...] = ()
    composition: Composition = Composition.LEXICOGRAPHIC

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a criteria set needs a non-empty name")
        if not self.criteria:
            raise ConfigurationError(f"criteria set {self.name!r} needs at least one criterion")

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def admits(self, beacon: Beacon) -> bool:
        """Return whether ``beacon`` satisfies every hard constraint."""
        for constraint in self.constraints:
            value = StandardMetrics.extract(constraint.metric, beacon)
            if not constraint.satisfied_by(value):
                return False
        return True

    def filter_admissible(self, beacons: Sequence[Beacon]) -> List[Beacon]:
        """Return the beacons that satisfy every constraint."""
        return [beacon for beacon in beacons if self.admits(beacon)]

    def sort_key(self, beacon: Beacon) -> Tuple[float, ...]:
        """Return the lexicographic sort key of ``beacon`` (best sorts first)."""
        return tuple(criterion.sort_key(beacon) for criterion in self.criteria)

    def rank(self, beacons: Sequence[Beacon]) -> List[Beacon]:
        """Return admissible beacons sorted from best to worst.

        For Pareto composition, the dominant beacons come first (in stable
        input order), followed by the dominated ones.
        """
        admissible = self.filter_admissible(beacons)
        if self.composition is Composition.LEXICOGRAPHIC:
            return sorted(admissible, key=self.sort_key)
        dominant = self.select(admissible, limit=len(admissible))
        dominant_ids = {id(beacon) for beacon in dominant}
        rest = [beacon for beacon in admissible if id(beacon) not in dominant_ids]
        return dominant + rest

    def select(self, beacons: Sequence[Beacon], limit: int) -> List[Beacon]:
        """Return the best at most ``limit`` admissible beacons.

        For lexicographic composition this is a simple sorted prefix; for
        Pareto composition the dominant set is computed first and truncated
        deterministically (shorter AS paths first) if it exceeds ``limit``.
        """
        if limit <= 0:
            return []
        admissible = self.filter_admissible(beacons)
        if self.composition is Composition.LEXICOGRAPHIC:
            return sorted(admissible, key=self.sort_key)[:limit]

        metrics = tuple(criterion.metric for criterion in self.criteria)
        labelled = [
            (beacon, StandardMetrics.vector_for(metrics, beacon)) for beacon in admissible
        ]
        frontier = [beacon for beacon, _vector in pareto_frontier(labelled)]
        frontier.sort(key=lambda beacon: (beacon.hop_count, beacon.total_latency_ms()))
        return frontier[:limit]

    def best(self, beacons: Sequence[Beacon]) -> Optional[Beacon]:
        """Return the single best admissible beacon, or ``None``."""
        selected = self.select(beacons, limit=1)
        return selected[0] if selected else None

    # ------------------------------------------------------------------
    # serialization (used by on-demand algorithm payloads)
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, object]:
        """Return a JSON-serializable description of this criteria set."""
        return {
            "name": self.name,
            "composition": self.composition.value,
            "criteria": [
                {
                    "metric": criterion.metric.name,
                    "objective": criterion.effective_objective.value,
                }
                for criterion in self.criteria
            ],
            "constraints": [
                {
                    "metric": constraint.metric.name,
                    "maximum": constraint.maximum,
                    "minimum": constraint.minimum,
                }
                for constraint in self.constraints
            ],
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "CriteriaSet":
        """Reconstruct a criteria set from :meth:`to_spec` output.

        Raises:
            ConfigurationError: If the specification references unknown
                metrics or is structurally invalid.
        """
        try:
            name = str(spec["name"])
            composition = Composition(str(spec.get("composition", "lexicographic")))
            criteria = []
            for entry in spec["criteria"]:  # type: ignore[index]
                metric = _resolve_metric(str(entry["metric"]))
                objective = Objective(str(entry["objective"]))
                criteria.append(Criterion(metric=metric, objective=objective))
            constraints = []
            for entry in spec.get("constraints", ()):  # type: ignore[union-attr]
                metric = _resolve_metric(str(entry["metric"]))
                constraints.append(
                    Constraint(
                        metric=metric,
                        maximum=_optional_float(entry.get("maximum")),
                        minimum=_optional_float(entry.get("minimum")),
                    )
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid criteria-set spec: {exc}") from exc
        return cls(
            name=name,
            criteria=tuple(criteria),
            constraints=tuple(constraints),
            composition=composition,
        )


def _resolve_metric(name: str) -> MetricDefinition:
    metric = STANDARD_METRICS.get(name)
    if metric is None:
        raise ConfigurationError(f"unknown metric {name!r}")
    return metric


def _optional_float(value: object) -> Optional[float]:
    if value is None:
        return None
    return float(value)


# ----------------------------------------------------------------------
# commonly used criteria sets (the paper's elementary criteria)
# ----------------------------------------------------------------------
def lowest_latency() -> CriteriaSet:
    """Latency-optimal paths (the VoIP example of Figure 1)."""
    return CriteriaSet(name="lowest-latency", criteria=(Criterion(LATENCY),))


def fewest_hops() -> CriteriaSet:
    """AS-hop-count-optimal paths (BGP-like shortest path)."""
    return CriteriaSet(name="fewest-hops", criteria=(Criterion(HOP_COUNT),))


def highest_bandwidth() -> CriteriaSet:
    """Bandwidth-optimal paths (the file-transfer example of Figure 1)."""
    return CriteriaSet(name="highest-bandwidth", criteria=(Criterion(BANDWIDTH),))


def shortest_widest() -> CriteriaSet:
    """Highest bandwidth, ties broken by lowest latency (Figure 2c)."""
    return CriteriaSet(
        name="shortest-widest", criteria=(Criterion(BANDWIDTH), Criterion(LATENCY))
    )


def widest_with_latency_bound(latency_bound_ms: float) -> CriteriaSet:
    """Highest bandwidth among paths within a latency bound (Figure 1, example #2)."""
    if latency_bound_ms <= 0.0 or not math.isfinite(latency_bound_ms):
        raise ConfigurationError(f"latency bound must be positive and finite: {latency_bound_ms}")
    return CriteriaSet(
        name=f"widest-latency<={latency_bound_ms:g}ms",
        criteria=(Criterion(BANDWIDTH), Criterion(LATENCY)),
        constraints=(Constraint(metric=LATENCY, maximum=latency_bound_ms),),
    )


def latency_bandwidth_pareto() -> CriteriaSet:
    """All latency/bandwidth Pareto-optimal paths (Sobrinho-style dominance)."""
    return CriteriaSet(
        name="latency-bandwidth-pareto",
        criteria=(Criterion(LATENCY), Criterion(BANDWIDTH)),
        composition=Composition.PARETO,
    )

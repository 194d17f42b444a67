"""Tests for criteria, criteria sets and metric extraction from beacons."""

import json
import math

import pytest

from repro.algorithms.registry import decode_payload
from repro.core.algebra import MetricDefinition, Objective
from repro.core.criteria import (
    BANDWIDTH,
    HOP_COUNT,
    LATENCY,
    METRICS,
    Composition,
    Constraint,
    CriteriaSet,
    Criterion,
    StandardMetrics,
    highest_bandwidth,
    latency_bandwidth_pareto,
    lowest_latency,
    shortest_widest,
    widest_with_latency_bound,
)
from repro.exceptions import AlgebraError, AlgorithmError, ConfigurationError

from tests.conftest import make_beacon


@pytest.fixture
def three_beacons(key_store):
    """Three beacons: fast/narrow, slow/wide, and balanced."""
    fast = make_beacon(
        key_store,
        [(1, None, 1), (2, 1, 2)],
        link_latencies=[10.0, 10.0],
        link_bandwidths=[100.0, 100.0],
    )
    wide = make_beacon(
        key_store,
        [(1, None, 1), (4, 1, 2), (5, 1, 2), (6, 1, 2)],
        link_latencies=[10.0, 10.0, 10.0, 10.0],
        link_bandwidths=[10_000.0, 10_000.0, 10_000.0, 10_000.0],
    )
    balanced = make_beacon(
        key_store,
        [(1, None, 1), (4, 1, 3), (5, 1, 3)],
        link_latencies=[10.0, 10.0, 10.0],
        link_bandwidths=[1_000.0, 1_000.0, 1_000.0],
    )
    return fast, wide, balanced


class TestStandardMetrics:
    def test_extraction(self, three_beacons):
        fast, wide, _balanced = three_beacons
        assert StandardMetrics.extract(LATENCY, fast) == pytest.approx(20.0)
        assert StandardMetrics.extract(HOP_COUNT, fast) == 2.0
        assert StandardMetrics.extract(BANDWIDTH, wide) == 10_000.0

    def test_unknown_metric_rejected(self, three_beacons):
        unknown = MetricDefinition(name="jitter", objective=Objective.MINIMIZE)
        with pytest.raises(AlgebraError):
            StandardMetrics.extract(unknown, three_beacons[0])

    def test_vector_for(self, three_beacons):
        vector = StandardMetrics.vector_for([LATENCY, BANDWIDTH], three_beacons[0])
        assert vector.metrics == (LATENCY, BANDWIDTH)
        assert vector.values == (pytest.approx(20.0), 100.0)

    def test_metrics_table_names_each_metric_once(self):
        assert sorted(METRICS) == ["bandwidth_mbps", "hop_count", "latency_ms"]
        for name, (metric, _extractor) in METRICS.items():
            assert metric.name == name


class TestConstraint:
    def test_needs_a_bound(self):
        with pytest.raises(ConfigurationError):
            Constraint(metric=LATENCY)

    def test_maximum(self):
        constraint = Constraint(metric=LATENCY, maximum=30.0)
        assert constraint.satisfied_by(30.0)
        assert not constraint.satisfied_by(31.0)

    def test_minimum(self):
        constraint = Constraint(metric=BANDWIDTH, minimum=100.0)
        assert constraint.satisfied_by(100.0)
        assert not constraint.satisfied_by(99.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"maximum": math.nan},
            {"minimum": math.nan},
            {"maximum": math.inf},
            {"minimum": -math.inf},
            {"minimum": 31.0, "maximum": 30.0},
        ],
        ids=["nan-maximum", "nan-minimum", "inf-maximum", "minus-inf-minimum", "inverted"],
    )
    def test_nonsense_bounds_rejected(self, bounds):
        with pytest.raises(ConfigurationError):
            Constraint(metric=LATENCY, **bounds)

    def test_nan_bound_in_payload_fails_to_decode(self):
        """``json.loads`` accepts ``NaN``; such a bound would admit every path."""
        spec = widest_with_latency_bound(30.0).to_spec()
        spec["constraints"][0]["maximum"] = math.nan
        payload = json.dumps({"kind": "criteria_set", "spec": spec}).encode("utf-8")
        assert b"NaN" in payload
        with pytest.raises(AlgorithmError):
            decode_payload(payload)


class TestCriteriaSets:
    def test_requires_name_and_criteria(self):
        with pytest.raises(ConfigurationError):
            CriteriaSet(name="", criteria=(Criterion(LATENCY),))
        with pytest.raises(ConfigurationError):
            CriteriaSet(name="x", criteria=())

    def test_lowest_latency_picks_fast_path(self, three_beacons):
        fast, wide, balanced = three_beacons
        assert lowest_latency().best([wide, balanced, fast]) is fast

    def test_highest_bandwidth_picks_wide_path(self, three_beacons):
        fast, wide, balanced = three_beacons
        assert highest_bandwidth().best([fast, balanced, wide]) is wide

    def test_fewest_hops(self, three_beacons):
        fast, wide, balanced = three_beacons
        fewest_hops = CriteriaSet(name="fewest-hops", criteria=(Criterion(HOP_COUNT),))
        assert fewest_hops.best([wide, balanced, fast]) is fast

    def test_latency_bounded_widest_matches_figure1(self, three_beacons):
        """Example #2 of the paper: widest path with latency <= 30 ms."""
        fast, wide, balanced = three_beacons
        criteria = widest_with_latency_bound(30.0)
        assert criteria.best([fast, wide, balanced]) is balanced

    def test_latency_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            widest_with_latency_bound(0.0)

    def test_shortest_widest_breaks_ties_by_latency(self, key_store):
        wide_long = make_beacon(
            key_store,
            [(1, None, 1), (2, 1, 2), (3, 1, 2)],
            link_latencies=[20.0, 20.0, 20.0],
            link_bandwidths=[1000.0, 1000.0, 1000.0],
        )
        wide_short = make_beacon(
            key_store,
            [(1, None, 1), (4, 1, 2)],
            link_latencies=[10.0, 10.0],
            link_bandwidths=[1000.0, 1000.0],
        )
        assert shortest_widest().best([wide_long, wide_short]) is wide_short

    def test_rank_orders_best_first(self, three_beacons):
        fast, wide, balanced = three_beacons
        ranked = lowest_latency().select([wide, balanced, fast], limit=3)
        assert ranked[0] is fast
        assert ranked[-1] is wide

    def test_select_respects_limit(self, three_beacons):
        selected = lowest_latency().select(list(three_beacons), limit=2)
        assert len(selected) == 2
        assert lowest_latency().select(list(three_beacons), limit=0) == []

    def test_admits_filters_constraints(self, three_beacons):
        fast, wide, _balanced = three_beacons
        criteria = widest_with_latency_bound(30.0)
        assert criteria.admits(fast)
        assert not criteria.admits(wide)

    def test_best_of_empty_is_none(self):
        assert lowest_latency().best([]) is None


class TestParetoComposition:
    def test_pareto_keeps_incomparable_paths(self, three_beacons):
        fast, wide, balanced = three_beacons
        criteria = latency_bandwidth_pareto()
        selected = criteria.select([fast, wide, balanced], limit=10)
        assert fast in selected
        assert wide in selected
        assert balanced in selected  # each is better than the others on one axis

    def test_pareto_drops_dominated(self, key_store, three_beacons):
        fast, wide, balanced = three_beacons
        dominated = make_beacon(
            key_store,
            [(1, None, 1), (7, 1, 2), (8, 1, 2)],
            link_latencies=[30.0, 30.0, 30.0],
            link_bandwidths=[50.0, 50.0, 50.0],
        )
        criteria = latency_bandwidth_pareto()
        selected = criteria.select([fast, wide, balanced, dominated], limit=10)
        assert dominated not in selected

    def test_pareto_select_orders_by_hops_then_latency(self, three_beacons):
        fast, wide, balanced = three_beacons
        criteria = latency_bandwidth_pareto()
        assert criteria.select([wide, balanced, fast], limit=10) == [fast, balanced, wide]
        assert criteria.select([wide, balanced, fast], limit=2) == [fast, balanced]

    def test_pareto_honours_a_criterions_objective_override(self, three_beacons):
        # Maximizing latency beside bandwidth: the slow, wide path is better
        # on both axes, so it alone is non-dominated.  Ranked by the metric's
        # own objective (minimize latency) all three would be incomparable.
        fast, wide, balanced = three_beacons
        criteria = CriteriaSet(
            name="slowest-widest",
            criteria=(Criterion(LATENCY, objective=Objective.MAXIMIZE), Criterion(BANDWIDTH)),
            composition=Composition.PARETO,
        )
        assert criteria.select([fast, wide, balanced], limit=10) == [wide]
        restored = CriteriaSet.from_spec(criteria.to_spec())
        assert restored.select([fast, wide, balanced], limit=10) == [wide]


class TestSpecRoundTrip:
    def test_to_spec_and_back(self):
        original = widest_with_latency_bound(25.0)
        restored = CriteriaSet.from_spec(original.to_spec())
        assert restored.name == original.name
        assert restored.composition is Composition.LEXICOGRAPHIC
        assert len(restored.criteria) == len(original.criteria)
        assert restored.constraints[0].maximum == 25.0

    def test_pareto_spec_round_trip(self):
        original = latency_bandwidth_pareto()
        restored = CriteriaSet.from_spec(original.to_spec())
        assert restored.composition is Composition.PARETO

    def test_unknown_metric_in_spec(self):
        spec = {
            "name": "broken",
            "criteria": [{"metric": "no-such-metric", "objective": "minimize"}],
        }
        with pytest.raises(ConfigurationError):
            CriteriaSet.from_spec(spec)

    def test_structurally_invalid_spec(self):
        with pytest.raises(ConfigurationError):
            CriteriaSet.from_spec({"criteria": []})

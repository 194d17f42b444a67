"""Tests for the routing algebra: metrics, path vectors, dominance, frontiers."""

import pytest

from repro.core.algebra import PathVector, pareto_frontier
from repro.core.criteria import BANDWIDTH, LATENCY
from repro.exceptions import AlgebraError


def vector(assignments):
    """Build a path vector from a ``{metric: value}`` mapping."""
    return PathVector(metrics=tuple(assignments), values=tuple(assignments.values()))


class TestMetricDefinition:
    def test_preference(self):
        assert LATENCY.prefers(5.0, 10.0)
        assert not LATENCY.prefers(10.0, 5.0)
        assert BANDWIDTH.prefers(100.0, 40.0)
        assert not LATENCY.prefers(5.0, 5.0)


class TestPathVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            PathVector(metrics=(LATENCY,), values=(1.0, 2.0))

    def test_dominance(self):
        better = vector({LATENCY: 10.0, BANDWIDTH: 100.0})
        worse = vector({LATENCY: 20.0, BANDWIDTH: 50.0})
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_incomparability(self):
        low_latency = vector({LATENCY: 10.0, BANDWIDTH: 50.0})
        high_bandwidth = vector({LATENCY: 20.0, BANDWIDTH: 100.0})
        assert not low_latency.dominates(high_bandwidth)
        assert not high_bandwidth.dominates(low_latency)

    def test_equal_vectors_do_not_dominate(self):
        a = vector({LATENCY: 10.0})
        b = vector({LATENCY: 10.0})
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_signature_mismatch(self):
        a = vector({LATENCY: 10.0})
        b = vector({BANDWIDTH: 10.0})
        with pytest.raises(AlgebraError):
            a.dominates(b)


class TestParetoFrontier:
    def test_dominated_entries_removed(self):
        entries = [
            ("a", vector({LATENCY: 10.0, BANDWIDTH: 100.0})),
            ("b", vector({LATENCY: 20.0, BANDWIDTH: 50.0})),  # dominated by a
            ("c", vector({LATENCY: 5.0, BANDWIDTH: 20.0})),
        ]
        frontier = pareto_frontier(entries)
        labels = [label for label, _vector in frontier]
        assert labels == ["a", "c"]

    def test_all_incomparable_kept(self):
        entries = [
            ("a", vector({LATENCY: 10.0, BANDWIDTH: 10.0})),
            ("b", vector({LATENCY: 20.0, BANDWIDTH: 20.0})),
        ]
        assert len(pareto_frontier(entries)) == 2

    def test_empty_input(self):
        assert pareto_frontier([]) == []

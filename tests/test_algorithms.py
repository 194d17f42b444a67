"""Tests for the routing algorithms executed inside RACs."""

import pytest

from repro.algorithms.base import CandidateBeacon, ExecutionContext, ExecutionResult
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.shortest_path import (
    LEGACY_PATH_COUNT,
    KShortestPathAlgorithm,
    legacy_scion_algorithm,
)
from repro.core.criteria import (
    highest_bandwidth,
    latency_bandwidth_pareto,
    shortest_widest,
    widest_with_latency_bound,
)
from repro.exceptions import AlgorithmError, ConfigurationError

from tests.conftest import make_beacon

LOCAL_AS = 100


def zero_intra(_a: int, _b: int) -> float:
    return 0.0


def make_context(candidates, egress_interfaces=(1,), limit=20, intra=zero_intra):
    return ExecutionContext(
        local_as=LOCAL_AS,
        candidates=tuple(candidates),
        egress_interfaces=tuple(egress_interfaces),
        max_paths_per_interface=limit,
        intra_latency_ms=intra,
    )


def total_selected(result):
    """Return the number of (interface, beacon) selections of ``result``."""
    return sum(len(beacons) for beacons in result.selections.values())


@pytest.fixture
def candidate_set(key_store):
    """Five candidates from origin 1 with varied lengths, delays, bandwidths."""
    specs = [
        # (hops, latencies, bandwidths)
        ([(1, None, 1), (2, 1, 2)], [10.0, 10.0], [100.0, 100.0]),
        ([(1, None, 1), (3, 1, 2)], [5.0, 5.0], [500.0, 500.0]),
        ([(1, None, 1), (4, 1, 2), (5, 1, 2)], [5.0, 5.0, 5.0], [10_000.0, 10_000.0, 10_000.0]),
        ([(1, None, 1), (6, 1, 2), (7, 1, 2)], [20.0, 20.0, 20.0], [1_000.0, 1_000.0, 1_000.0]),
        ([(1, None, 2), (8, 1, 2), (9, 1, 2), (10, 1, 2)], [2.0] * 4, [2_000.0] * 4),
    ]
    candidates = []
    for hops, latencies, bandwidths in specs:
        beacon = make_beacon(key_store, hops, link_latencies=latencies, link_bandwidths=bandwidths)
        candidates.append(CandidateBeacon(beacon=beacon, ingress_interface=1))
    return candidates


class TestExecutionResult:
    def test_query(self, candidate_set):
        result = ExecutionResult()
        result.selections[1] = [candidate_set[0].beacon, candidate_set[1].beacon]
        result.selections[2] = [candidate_set[0].beacon]
        assert len(result.beacons_for(1)) == 2
        assert result.beacons_for(3) == []
        assert total_selected(result) == 3


class TestKShortestPath:
    def test_invalid_k(self):
        with pytest.raises(AlgorithmError):
            KShortestPathAlgorithm(k=0)

    def test_one_shortest(self, candidate_set):
        result = KShortestPathAlgorithm(k=1).execute(make_context(candidate_set))
        selected = result.beacons_for(1)
        assert len(selected) == 1
        assert selected[0].hop_count == 2
        # Tie on hop count broken by latency: the 10 ms two-hop path.
        assert selected[0].total_latency_ms() == pytest.approx(10.0)

    def test_k_larger_than_candidates(self, candidate_set):
        result = KShortestPathAlgorithm(k=50).execute(make_context(candidate_set))
        assert len(result.beacons_for(1)) == len(candidate_set)

    def test_rac_limit_caps_k(self, candidate_set):
        result = KShortestPathAlgorithm(k=5).execute(make_context(candidate_set, limit=2))
        assert len(result.beacons_for(1)) == 2

    def test_same_selection_on_every_interface(self, candidate_set):
        result = KShortestPathAlgorithm(k=2).execute(
            make_context(candidate_set, egress_interfaces=(1, 2, 3))
        )
        digests = {
            interface: [b.digest() for b in result.beacons_for(interface)]
            for interface in (1, 2, 3)
        }
        assert digests[1] == digests[2] == digests[3]

    def test_loop_candidates_excluded(self, key_store, candidate_set):
        looping = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (LOCAL_AS, 1, 2)]),
            ingress_interface=1,
        )
        result = KShortestPathAlgorithm(k=10).execute(make_context(candidate_set + [looping]))
        digests = {b.digest() for b in result.beacons_for(1)}
        assert looping.beacon.digest() not in digests

    def test_legacy_algorithm_selects_twenty(self):
        assert legacy_scion_algorithm().k == LEGACY_PATH_COUNT

    def test_determinism(self, candidate_set):
        a = KShortestPathAlgorithm(k=3).execute(make_context(candidate_set))
        b = KShortestPathAlgorithm(k=3).execute(make_context(list(reversed(candidate_set))))
        assert [x.digest() for x in a.beacons_for(1)] == [x.digest() for x in b.beacons_for(1)]


class TestDelayOptimization:
    def test_invalid_config(self):
        with pytest.raises(AlgorithmError):
            DelayOptimizationAlgorithm(paths_per_interface=0)

    def test_don_picks_lowest_received_latency(self, candidate_set):
        result = DelayOptimizationAlgorithm(paths_per_interface=1).execute(
            make_context(candidate_set)
        )
        selected = result.beacons_for(1)[0]
        assert selected.total_latency_ms() == pytest.approx(8.0)

    def test_dob_uses_intra_latency(self, key_store):
        """Figure 4: extension with intra-AS latency flips the decision."""
        received_close = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_latencies=[35.0, 35.0]),
            ingress_interface=1,
        )
        received_far = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_latencies=[34.0, 34.0]),
            ingress_interface=2,
        )

        def intra(a: int, b: int) -> float:
            # Interface 2 is far from egress interface 3; interface 1 is close.
            table = {(1, 3): 1.0, (2, 3): 10.0}
            return table.get((a, b), table.get((b, a), 0.0))

        don = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=False)
        dob = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=True)
        context = make_context([received_close, received_far], egress_interfaces=(3,), intra=intra)
        assert don.execute(context).beacons_for(3)[0].digest() == received_far.beacon.digest()
        assert dob.execute(context).beacons_for(3)[0].digest() == received_close.beacon.digest()

    @pytest.fixture
    def figure4_pair(self, key_store):
        """P1 (70 ms, on interface 1) and P2 (72 ms, on interface 2).

        The intra-AS latency to egress 3 is 30 ms from interface 1 but 5 ms
        from interface 2; to egress 4 it is 0 ms from interface 1 and 30 ms
        from interface 2 (paper Figure 4, numbers scaled).
        """
        p1 = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_latencies=[35.0, 35.0]),
            ingress_interface=1,
        )
        p2 = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_latencies=[36.0, 36.0]),
            ingress_interface=2,
        )
        table = {(1, 3): 30.0, (2, 3): 5.0, (1, 4): 0.0, (2, 4): 30.0}

        def intra(a: int, b: int) -> float:
            return table.get((a, b), table.get((b, a), 0.0))

        return p1, p2, intra

    def test_dob_choice_depends_on_egress_interface(self, figure4_pair):
        p1, p2, intra = figure4_pair
        dob = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=True)
        result = dob.execute(make_context([p1, p2], egress_interfaces=(3, 4), intra=intra))
        assert result.beacons_for(3)[0].digest() == p2.beacon.digest()  # 72 + 5 < 70 + 30
        assert result.beacons_for(4)[0].digest() == p1.beacon.digest()  # 70 + 0 < 72 + 30

    def test_don_choice_ignores_egress_interface(self, figure4_pair):
        p1, p2, intra = figure4_pair
        don = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=False)
        result = don.execute(make_context([p1, p2], egress_interfaces=(3, 4), intra=intra))
        assert result.beacons_for(3)[0].digest() == p1.beacon.digest()
        assert result.beacons_for(4)[0].digest() == p1.beacon.digest()

    def test_dob_ranks_by_received_plus_intra_latency(self, figure4_pair):
        p1, p2, intra = figure4_pair
        dob = DelayOptimizationAlgorithm(paths_per_interface=2, use_extended_paths=True)
        selected = dob.execute(
            make_context([p1, p2], egress_interfaces=(3,), intra=intra)
        ).beacons_for(3)
        assert [b.digest() for b in selected] == [p2.beacon.digest(), p1.beacon.digest()]

    def test_dob_without_candidates_selects_nothing(self, figure4_pair):
        _p1, _p2, intra = figure4_pair
        dob = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=True)
        result = dob.execute(make_context([], egress_interfaces=(3, 4), intra=intra))
        assert total_selected(result) == 0
        assert result.beacons_for(3) == []

    def test_dob_adds_no_intra_latency_without_ingress_interface(self, key_store):
        local = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (2, 1, 2)], link_latencies=[35.0, 35.0]),
            ingress_interface=None,
        )
        received = CandidateBeacon(
            beacon=make_beacon(key_store, [(1, None, 1), (3, 1, 2)], link_latencies=[30.0, 30.0]),
            ingress_interface=1,
        )
        dob = DelayOptimizationAlgorithm(paths_per_interface=1, use_extended_paths=True)
        context = make_context(
            [local, received], egress_interfaces=(3,), intra=lambda _a, _b: 20.0
        )
        # 70 ms with no intra term beats 60 + 20 ms.
        assert dob.execute(context).beacons_for(3)[0].digest() == local.beacon.digest()

    def test_dob_equals_don_without_intra_latency(self, candidate_set):
        don = DelayOptimizationAlgorithm(paths_per_interface=3, use_extended_paths=False)
        dob = DelayOptimizationAlgorithm(paths_per_interface=3, use_extended_paths=True)
        context = make_context(candidate_set, egress_interfaces=(1, 2))
        for interface in (1, 2):
            assert [b.digest() for b in dob.execute(context).beacons_for(interface)] == [
                b.digest() for b in don.execute(context).beacons_for(interface)
            ]

    def test_names_reflect_variant(self):
        assert DelayOptimizationAlgorithm(use_extended_paths=False).name == "don"
        assert DelayOptimizationAlgorithm(use_extended_paths=True).name == "dob"


class TestBandwidthAlgorithms:
    def test_widest(self, candidate_set):
        result = CriteriaSetAlgorithm(highest_bandwidth()).execute(make_context(candidate_set))
        assert result.beacons_for(1)[0].bottleneck_bandwidth_mbps() == 10_000.0

    def test_shortest_widest_tie_break(self, key_store):
        wide_long = CandidateBeacon(
            beacon=make_beacon(
                key_store,
                [(1, None, 1), (2, 1, 2), (3, 1, 2)],
                link_latencies=[30.0, 30.0, 30.0],
                link_bandwidths=[1000.0] * 3,
            ),
            ingress_interface=1,
        )
        wide_short = CandidateBeacon(
            beacon=make_beacon(
                key_store,
                [(1, None, 1), (4, 1, 2)],
                link_latencies=[10.0, 10.0],
                link_bandwidths=[1000.0, 1000.0],
            ),
            ingress_interface=1,
        )
        algorithm = CriteriaSetAlgorithm(shortest_widest())
        result = algorithm.execute(make_context([wide_long, wide_short]))
        assert result.beacons_for(1)[0].digest() == wide_short.beacon.digest()

    def test_latency_bounded_widest(self, candidate_set):
        algorithm = CriteriaSetAlgorithm(widest_with_latency_bound(30.0))
        result = algorithm.execute(make_context(candidate_set))
        selected = result.beacons_for(1)[0]
        assert selected.total_latency_ms() <= 30.0
        # The 15 ms / 10 Gbit path qualifies and is the widest within bound.
        assert selected.bottleneck_bandwidth_mbps() == 10_000.0

    def test_latency_bound_excludes_everything(self, candidate_set):
        algorithm = CriteriaSetAlgorithm(widest_with_latency_bound(1.0))
        result = algorithm.execute(make_context(candidate_set))
        assert result.beacons_for(1) == []

    def test_invalid_parameters(self):
        with pytest.raises(AlgorithmError):
            CriteriaSetAlgorithm(highest_bandwidth(), paths_per_interface=0)
        with pytest.raises(ConfigurationError):
            widest_with_latency_bound(-5.0)


class TestHeuristicDisjointness:
    def test_selects_disjoint_paths(self, key_store):
        shared_prefix_a = make_beacon(
            key_store, [(1, None, 1), (2, 1, 2), (3, 1, 2)]
        )
        shared_prefix_b = make_beacon(
            key_store, [(1, None, 1), (2, 1, 3), (4, 1, 2)]
        )
        disjoint = make_beacon(key_store, [(1, None, 2), (5, 1, 2), (6, 1, 2)])
        candidates = [
            CandidateBeacon(beacon=b, ingress_interface=1)
            for b in (shared_prefix_a, shared_prefix_b, disjoint)
        ]
        algorithm = HeuristicDisjointnessAlgorithm(paths_per_interface=2)
        result = algorithm.execute(make_context(candidates))
        selected = result.beacons_for(1)
        assert len(selected) == 2
        # The first two picks must be the two link-disjoint alternatives.
        digests = {b.digest() for b in selected}
        assert disjoint.digest() in digests

    def test_memory_suppresses_repeat_propagation(self, candidate_set):
        algorithm = HeuristicDisjointnessAlgorithm(paths_per_interface=2)
        first = algorithm.execute(make_context(candidate_set))
        second = algorithm.execute(make_context(candidate_set))
        assert total_selected(first) > 0
        # Already-propagated beacons are not selected again; later rounds
        # pick different (previously unserved) beacons instead.
        first_digests = {b.digest() for b in first.beacons_for(1)}
        second_digests = {b.digest() for b in second.beacons_for(1)}
        assert first_digests.isdisjoint(second_digests)
        # Once every candidate has been served, selection dries up entirely.
        for _ in range(len(candidate_set)):
            algorithm.execute(make_context(candidate_set))
        exhausted = algorithm.execute(make_context(candidate_set))
        assert total_selected(exhausted) == 0
        # The memory is per instance: a fresh one selects as the first did.
        fresh = HeuristicDisjointnessAlgorithm(paths_per_interface=2)
        assert total_selected(fresh.execute(make_context(candidate_set))) == total_selected(first)

    def test_invalid_config(self):
        with pytest.raises(AlgorithmError):
            HeuristicDisjointnessAlgorithm(paths_per_interface=0)


class TestLinkAvoiding:
    def test_avoids_configured_links(self, key_store):
        through_forbidden = make_beacon(key_store, [(1, None, 7), (2, 3, 5)])
        clean = make_beacon(key_store, [(1, None, 8), (3, 4, 5)])
        forbidden_link = (((1, 7), (2, 3)),)
        algorithm = LinkAvoidingAlgorithm(avoid_links=frozenset(forbidden_link))
        candidates = [
            CandidateBeacon(beacon=b, ingress_interface=1) for b in (through_forbidden, clean)
        ]
        result = algorithm.execute(make_context(candidates))
        selected = result.beacons_for(1)
        assert len(selected) == 1
        assert selected[0].digest() == clean.digest()

    def test_empty_avoid_set_selects_shortest(self, candidate_set):
        result = LinkAvoidingAlgorithm(paths_per_interface=1).execute(make_context(candidate_set))
        assert len(result.beacons_for(1)) == 1


class TestCriteriaSetAlgorithm:
    def test_wraps_declarative_criteria(self, candidate_set):
        algorithm = CriteriaSetAlgorithm(
            criteria_set=widest_with_latency_bound(30.0), paths_per_interface=1
        )
        result = algorithm.execute(make_context(candidate_set))
        selected = result.beacons_for(1)[0]
        assert selected.total_latency_ms() <= 30.0

    def test_invalid_paths_per_interface(self):
        with pytest.raises(AlgorithmError):
            CriteriaSetAlgorithm(criteria_set=widest_with_latency_bound(30.0), paths_per_interface=0)


class TestParetoDominant:
    def test_keeps_all_dominant_paths(self, candidate_set):
        algorithm = CriteriaSetAlgorithm(latency_bandwidth_pareto(), paths_per_interface=20)
        result = algorithm.execute(make_context(candidate_set))
        selected = result.beacons_for(1)
        # The low-latency and the high-bandwidth paths are incomparable and
        # must both survive.
        latencies = sorted(b.total_latency_ms() for b in selected)
        bandwidths = sorted(b.bottleneck_bandwidth_mbps() for b in selected)
        assert latencies[0] == pytest.approx(8.0)
        assert bandwidths[-1] == 10_000.0

    def test_pareto_set_is_larger_than_single_criterion(self, candidate_set):
        algorithm = CriteriaSetAlgorithm(latency_bandwidth_pareto(), paths_per_interface=20)
        pareto = algorithm.execute(make_context(candidate_set))
        single = KShortestPathAlgorithm(k=1).execute(make_context(candidate_set))
        assert total_selected(pareto) > total_selected(single)

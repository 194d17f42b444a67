"""Tests for the flow-level traffic engine and its building blocks."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.criteria import (
    highest_bandwidth,
    latency_bandwidth_pareto,
    lowest_latency,
    shortest_widest,
    widest_with_latency_bound,
)
from repro.core.databases import PathService, RegisteredPath
from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure
from repro.simulation.scenario import don_scenario
from repro.simulation.failures import LinkState
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic import (
    BandwidthAwarePolicy,
    CapacityLinkModel,
    ClosedLoopDemand,
    CriteriaPolicy,
    EcmpPolicy,
    FlowGroup,
    LatencyGreedyPolicy,
    PathLoad,
    TagPinnedPolicy,
    TrafficEngine,
    TrafficMatrix,
    gravity_matrix,
    hotspot_matrix,
    prefer_clean,
    random_matrix,
    uniform_matrix,
)
from repro.units import minutes

from tests.conftest import figure1_topology, make_beacon
from tests.test_examples import load_example

#: Pinned digest of the example scenario's traffic trace (see
#: ``examples/traffic_failover.py``); update it when engine behaviour
#: changes intentionally, like the control-plane golden trace.
#: PR 4: flow groups break on revocation *arrival* at their source AS
#: (cause = the revocation's trace label, timestamps propagation-ordered)
#: instead of instantly at the failure event, so every break line changed.
#: PR 6: same-timestamp failures aggregate into one multi-element
#: revocation per origin (the example cuts both victim links at once), so
#: break causes carry the batched ``revoke link A+link B`` label.
EXAMPLE_TRACE_DIGEST = "aaa47b230d7245ae4bb3fa75c753e2fc9c9fccd996a10c5bb0bf19f12e376465"


# ----------------------------------------------------------------------
# fixtures: the Figure-1 topology with its three 1 -> 3 paths
# ----------------------------------------------------------------------
@pytest.fixture
def fig1():
    return figure1_topology()


@pytest.fixture
def fig1_paths(key_store):
    """The three registered 1->3 paths of the Figure-1 topology."""
    short = make_beacon(
        key_store,
        [(3, None, 1), (2, 2, 1), (1, 1, None)],
        link_latencies=[10.0, 10.0, 0.0],
        link_bandwidths=[100.0, 100.0, None],
    )
    wide = make_beacon(
        key_store,
        [(3, None, 2), (6, 2, 1), (5, 2, 1), (4, 2, 1), (1, 2, None)],
        link_latencies=[10.0, 10.0, 10.0, 10.0, 0.0],
        link_bandwidths=[10_000.0, 10_000.0, 10_000.0, 10_000.0, None],
    )
    middle = make_beacon(
        key_store,
        [(3, None, 3), (5, 3, 1), (4, 2, 1), (1, 2, None)],
        link_latencies=[10.0, 10.0, 10.0, 0.0],
        link_bandwidths=[1_000.0, 10_000.0, 10_000.0, None],
    )
    return short, wide, middle


@pytest.fixture
def fig1_service(fig1_paths):
    service = PathService()
    for tag, segment in zip(("1sp", "hd", "don"), fig1_paths):
        assert service.register(
            RegisteredPath(segment=segment, criteria_tags=(tag,), registered_at_ms=0.0)
        )
    return service


# ----------------------------------------------------------------------
# demand models
# ----------------------------------------------------------------------
class TestDemand:
    def test_flow_group_validation(self):
        with pytest.raises(ConfigurationError):
            FlowGroup(group_id=0, source_as=1, destination_as=1, demand_mbps=1.0)
        with pytest.raises(ConfigurationError):
            FlowGroup(group_id=0, source_as=1, destination_as=2, demand_mbps=0.0)
        with pytest.raises(ConfigurationError):
            FlowGroup(group_id=0, source_as=1, destination_as=2, demand_mbps=1.0, flow_count=0)

    def test_uniform_conserves_totals(self, fig1):
        matrix = uniform_matrix(fig1, total_demand_mbps=600.0, total_flows=6_000)
        assert matrix.total_flows == 6_000
        assert matrix.total_demand_mbps == pytest.approx(600.0)
        demands = {group.demand_mbps for group in matrix}
        assert len(demands) == 1  # uniform means uniform

    def test_gravity_weighs_by_degree(self, fig1):
        matrix = gravity_matrix(fig1, total_demand_mbps=1_000.0, total_flows=10_000)
        assert matrix.total_demand_mbps == pytest.approx(1_000.0)
        assert matrix.total_flows == 10_000
        by_pair = {(g.source_as, g.destination_as): g.demand_mbps for g in matrix}
        # AS 5 (degree 3) attracts more than AS 6 (degree 2) from the same source.
        assert by_pair[(1, 5)] > by_pair[(1, 6)]

    def test_hotspot_redirects_fraction(self, fig1):
        matrix = hotspot_matrix(
            fig1, total_demand_mbps=1_000.0, total_flows=5_000,
            hotspot_as=3, hotspot_fraction=0.5,
        )
        assert matrix.total_demand_mbps == pytest.approx(1_000.0)
        towards_hotspot = sum(
            g.demand_mbps for g in matrix if g.destination_as == 3
        )
        assert towards_hotspot > 500.0  # spike plus the gravity base load

    def test_hotspot_full_fraction(self, fig1):
        matrix = hotspot_matrix(
            fig1, total_demand_mbps=100.0, total_flows=500,
            hotspot_as=3, hotspot_fraction=1.0,
        )
        assert matrix.total_demand_mbps == pytest.approx(100.0)
        assert all(group.destination_as == 3 for group in matrix)

    def test_random_matrix_is_seed_deterministic(self, fig1):
        one = random_matrix(fig1, pair_count=8, total_flows=800, rng=random.Random(5))
        two = random_matrix(fig1, pair_count=8, total_flows=800, rng=random.Random(5))
        assert one == two
        other = random_matrix(fig1, pair_count=8, total_flows=800, rng=random.Random(6))
        assert one != other

    def test_aggregation_needs_one_flow_per_pair(self, fig1):
        with pytest.raises(ConfigurationError):
            uniform_matrix(fig1, total_demand_mbps=10.0, total_flows=3)


# ----------------------------------------------------------------------
# capacity-aware link model
# ----------------------------------------------------------------------
class TestCapacityLinkModel:
    def test_unsaturated_demands_fully_carried(self, fig1):
        model = CapacityLinkModel(fig1)
        link = model.link_index(fig1.link_ids()[0])
        result = model.allocate(
            [PathLoad(key="a", link_indices=(link,), demand_mbps=10.0)]
        )
        assert result.carried_mbps["a"] == pytest.approx(10.0)
        assert result.lost_mbps == pytest.approx(0.0)

    def test_equal_shares_on_saturated_link(self, fig1):
        model = CapacityLinkModel(fig1)
        # Link (1,1)-(2,1) has 100 Mbit/s.
        link = model.link_index(((1, 1), (2, 1)))
        result = model.allocate(
            [
                PathLoad(key="a", link_indices=(link,), demand_mbps=100.0),
                PathLoad(key="b", link_indices=(link,), demand_mbps=100.0),
            ]
        )
        assert result.carried_mbps["a"] == pytest.approx(50.0)
        assert result.carried_mbps["b"] == pytest.approx(50.0)
        assert result.link_load_mbps[link] == pytest.approx(100.0)

    def test_weighted_max_min_shares(self, fig1):
        model = CapacityLinkModel(fig1)
        link = model.link_index(((1, 1), (2, 1)))
        result = model.allocate(
            [
                PathLoad(key="big", link_indices=(link,), demand_mbps=500.0, weight=3.0),
                PathLoad(key="small", link_indices=(link,), demand_mbps=500.0, weight=1.0),
            ]
        )
        assert result.carried_mbps["big"] == pytest.approx(75.0)
        assert result.carried_mbps["small"] == pytest.approx(25.0)

    def test_demand_capped_flow_releases_capacity(self, fig1):
        model = CapacityLinkModel(fig1)
        link = model.link_index(((1, 1), (2, 1)))
        result = model.allocate(
            [
                PathLoad(key="small", link_indices=(link,), demand_mbps=10.0),
                PathLoad(key="greedy", link_indices=(link,), demand_mbps=1_000.0),
            ]
        )
        # Max-min: the small demand is satisfied, the greedy one gets the rest.
        assert result.carried_mbps["small"] == pytest.approx(10.0)
        assert result.carried_mbps["greedy"] == pytest.approx(90.0)

    def test_multi_link_path_bottleneck(self, fig1):
        model = CapacityLinkModel(fig1)
        narrow = model.link_index(((1, 1), (2, 1)))  # 100 Mbit/s
        wide = model.link_index(((1, 2), (4, 1)))  # 10 000 Mbit/s
        result = model.allocate(
            [PathLoad(key="path", link_indices=(narrow, wide), demand_mbps=5_000.0)]
        )
        assert result.carried_mbps["path"] == pytest.approx(100.0)

    def test_capacity_scale(self, fig1):
        model = CapacityLinkModel(fig1, capacity_scale=0.5)
        link = model.link_index(((1, 1), (2, 1)))
        result = model.allocate(
            [PathLoad(key="a", link_indices=(link,), demand_mbps=100.0)]
        )
        assert result.carried_mbps["a"] == pytest.approx(50.0)

    def test_empty_and_zero_loads(self, fig1):
        model = CapacityLinkModel(fig1)
        assert model.allocate([]).total_carried_mbps == 0.0
        link = model.link_index(fig1.link_ids()[0])
        result = model.allocate(
            [PathLoad(key="z", link_indices=(link,), demand_mbps=5.0, weight=0.0)]
        )
        assert result.carried_mbps["z"] == 0.0


# ----------------------------------------------------------------------
# selection policies
# ----------------------------------------------------------------------
def select(service, policy):
    """Apply ``policy`` to the registered 1 -> 3 paths, as the engine does."""
    return policy(service.paths_to(3))


class TestSelectionPolicies:
    def test_latency_greedy(self, fig1_service):
        selected = select(fig1_service, LatencyGreedyPolicy())
        assert len(selected) == 1
        path, weight = selected[0]
        assert path.segment.total_latency_ms() == pytest.approx(20.0)
        assert weight == pytest.approx(1.0)

    def test_bandwidth_aware(self, fig1_service):
        [(path, _weight)] = select(fig1_service, BandwidthAwarePolicy())
        assert path.segment.bottleneck_bandwidth_mbps() == pytest.approx(10_000.0)

    def test_ecmp_splits_evenly(self, fig1_service):
        selected = select(fig1_service, EcmpPolicy(max_paths=2))
        assert len(selected) == 2
        assert [weight for _path, weight in selected] == [0.5, 0.5]
        latencies = [path.segment.total_latency_ms() for path, _ in selected]
        assert latencies == sorted(latencies)  # best paths first

    def test_ecmp_bandwidth_weighted(self, fig1_service):
        selected = select(
            fig1_service, EcmpPolicy(max_paths=3, prefer="bandwidth", weight_by_bandwidth=True)
        )
        weights = {
            path.segment.bottleneck_bandwidth_mbps(): weight for path, weight in selected
        }
        assert weights[10_000.0] > weights[1_000.0] > weights[100.0]
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_tag_pinning_and_fallback(self, fig1_service):
        [(path, _)] = select(fig1_service, TagPinnedPolicy(tag="hd"))
        assert "hd" in path.criteria_tags
        assert select(fig1_service, TagPinnedPolicy(tag="nope")) == []
        [(fallback, _)] = select(fig1_service, TagPinnedPolicy(tag="nope", fallback=True))
        assert fallback.segment.total_latency_ms() == pytest.approx(20.0)

    def test_criteria_policy_ranks_by_the_application_criteria(self, fig1_service):
        [(fast, weight)] = select(fig1_service, CriteriaPolicy(lowest_latency()))
        [(wide, _)] = select(fig1_service, CriteriaPolicy(highest_bandwidth()))
        assert fast.segment.total_latency_ms() == pytest.approx(20.0)
        assert weight == 1.0
        assert wide.segment.bottleneck_bandwidth_mbps() == pytest.approx(10_000.0)

    def test_criteria_policy_constraints_rule_paths_out(self, fig1_service):
        [(bounded, _)] = select(fig1_service, CriteriaPolicy(widest_with_latency_bound(30.0)))
        assert bounded.segment.total_latency_ms() <= 30.0
        assert bounded.segment.bottleneck_bandwidth_mbps() == pytest.approx(1_000.0)
        assert select(fig1_service, CriteriaPolicy(widest_with_latency_bound(5.0))) == []

    def test_tag_pinned_criteria_policy(self, fig1_service):
        """Required tags pin the candidates before the criteria rank them."""
        policy = TagPinnedPolicy(tag="hd", inner=CriteriaPolicy(lowest_latency()))
        [(path, _)] = select(fig1_service, policy)
        assert "hd" in path.criteria_tags
        assert path.segment.total_latency_ms() == pytest.approx(40.0)

    def test_criteria_policy_ties_keep_candidate_order(self, key_store):
        upper = make_beacon(key_store, [(4, None, 1), (2, 2, 1), (1, 1, None)])
        lower = make_beacon(key_store, [(4, None, 2), (3, 2, 1), (1, 2, None)])
        assert upper.total_latency_ms() == lower.total_latency_ms()
        paths = [
            RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
            for segment in (upper, lower)
        ]
        policy = CriteriaPolicy(lowest_latency())
        assert policy(paths)[0][0] is paths[0]
        assert policy(paths[::-1])[0][0] is paths[1]

    def test_criteria_policy_pareto_prefers_the_shortest_dominant_path(self, fig1_paths):
        """All three Figure-1 paths are latency/bandwidth Pareto-optimal; the
        criteria set's own tie-break (fewest hops, then latency) picks, not
        the candidates' order."""
        wide_first = [
            RegisteredPath(segment=segment, criteria_tags=("hd",), registered_at_ms=0.0)
            for segment in (fig1_paths[1], fig1_paths[2], fig1_paths[0])
        ]
        [(path, _)] = CriteriaPolicy(latency_bandwidth_pareto())(wide_first)
        assert path is wide_first[2]
        assert path.segment.hop_count == 3

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(order=st.permutations(range(3)), which=st.integers(0, 4))
    def test_criteria_policy_picks_the_head_of_the_ranking(self, fig1_paths, order, which):
        criteria_set = (
            lowest_latency(),
            highest_bandwidth(),
            shortest_widest(),
            widest_with_latency_bound(30.0),
            latency_bandwidth_pareto(),
        )[which]
        candidates = [
            RegisteredPath(segment=fig1_paths[i], criteria_tags=("1sp",), registered_at_ms=0.0)
            for i in order
        ]
        [(path, weight)] = CriteriaPolicy(criteria_set)(candidates)
        ranking = criteria_set.select([c.segment for c in candidates], limit=len(candidates))
        assert path.segment is ranking[0]
        assert weight == 1.0

    def test_policies_on_empty_candidates(self):
        for policy in (
            LatencyGreedyPolicy(),
            BandwidthAwarePolicy(),
            CriteriaPolicy(lowest_latency()),
            EcmpPolicy(max_paths=2),
            TagPinnedPolicy(tag="x", fallback=True),
        ):
            assert policy([]) == []

    def test_ecmp_validation(self):
        with pytest.raises(ConfigurationError):
            EcmpPolicy(max_paths=0)
        with pytest.raises(ConfigurationError):
            EcmpPolicy(prefer="hops")


# ----------------------------------------------------------------------
# the engine, standalone (hand-built path service)
# ----------------------------------------------------------------------
class TestTrafficEngineStandalone:
    def _engine(self, fig1, fig1_service, policy, demand=50.0, **kwargs):
        matrix = TrafficMatrix(
            groups=(
                FlowGroup(
                    group_id=0, source_as=1, destination_as=3,
                    demand_mbps=demand, flow_count=100,
                ),
            )
        )
        return TrafficEngine(
            topology=fig1,
            path_services={1: fig1_service},
            matrix=matrix,
            link_state=LinkState(),
            policy=policy,
            **kwargs,
        )

    def test_round_carries_demand(self, fig1, fig1_service):
        engine = self._engine(fig1, fig1_service, LatencyGreedyPolicy())
        collector = engine.run_rounds(3)
        assert engine.rounds_run == 3
        assert len(collector.samples) == 3
        sample = collector.samples[-1]
        assert sample.carried_mbps == pytest.approx(50.0)
        assert sample.flow_rounds == 100
        assert collector.total_flow_rounds == 300
        assert sample.mean_latency_ms == pytest.approx(20.0)

    def test_capacity_limits_goodput(self, fig1, fig1_service):
        # The latency-greedy path bottlenecks at 100 Mbit/s.
        engine = self._engine(fig1, fig1_service, LatencyGreedyPolicy(), demand=400.0)
        sample = engine.run_rounds(1).samples[0]
        assert sample.carried_mbps == pytest.approx(100.0)
        assert sample.lost_mbps == pytest.approx(300.0)
        assert sample.max_link_utilization == pytest.approx(1.0)

    def test_ecmp_uses_parallel_capacity(self, fig1, fig1_service):
        engine = self._engine(fig1, fig1_service, EcmpPolicy(max_paths=2), demand=400.0)
        sample = engine.run_rounds(1).samples[0]
        # Half the demand fits the wide path, half saturates the narrow one.
        assert sample.carried_mbps == pytest.approx(300.0)

    @pytest.mark.parametrize(
        "criteria_set, latency_ms",
        [
            (lowest_latency(), 20.0),
            (shortest_widest(), 40.0),
            (widest_with_latency_bound(30.5), 30.0),
        ],
        ids=["voip", "file-transfer", "live-video"],
    )
    def test_criteria_policy_steers_each_application(
        self, fig1, fig1_service, criteria_set, latency_ms
    ):
        """The Figure-1 applications, as flow groups: each rides its own path."""
        engine = self._engine(fig1, fig1_service, CriteriaPolicy(criteria_set), demand=10.0)
        sample = engine.run_rounds(1).samples[0]
        assert sample.carried_mbps == pytest.approx(10.0)
        assert sample.mean_latency_ms == pytest.approx(latency_ms)

    def test_unserved_without_paths(self, fig1, fig1_service):
        matrix = TrafficMatrix(
            groups=(
                FlowGroup(group_id=0, source_as=1, destination_as=6, demand_mbps=10.0),
            )
        )
        engine = TrafficEngine(
            topology=fig1, path_services={1: fig1_service}, matrix=matrix, link_state=LinkState()
        )
        sample = engine.run_rounds(1).samples[0]
        assert sample.blackholed_groups == 1
        assert sample.unserved_mbps == pytest.approx(10.0)
        assert sample.carried_mbps == pytest.approx(0.0)

    def test_failed_link_triggers_reselection(self, fig1, fig1_service):
        engine = self._engine(fig1, fig1_service, LatencyGreedyPolicy())
        engine.run_rounds(1)
        assert engine.collector.samples[0].mean_latency_ms == pytest.approx(20.0)
        # Fail the 1-2 link: the next round must move to the 30 ms path.
        engine.link_state.fail_link(((1, 1), (2, 1)))
        engine.run_rounds(1)
        assert engine.collector.samples[1].mean_latency_ms == pytest.approx(30.0)
        assert engine.collector.samples[1].carried_mbps == pytest.approx(50.0)

    def test_withdrawn_path_triggers_reselection(self, fig1, fig1_service):
        engine = self._engine(fig1, fig1_service, LatencyGreedyPolicy())
        engine.run_rounds(1)
        fig1_service.remove_matching(
            lambda path: path.segment.total_latency_ms() == pytest.approx(20.0)
        )
        engine.run_rounds(1)
        assert engine.collector.samples[1].mean_latency_ms == pytest.approx(30.0)

    def test_unknown_source_as_rejected(self, fig1, fig1_service):
        matrix = TrafficMatrix(
            groups=(
                FlowGroup(group_id=0, source_as=99, destination_as=3, demand_mbps=1.0),
            )
        )
        with pytest.raises(ConfigurationError):
            TrafficEngine(
                topology=fig1,
                path_services={1: fig1_service},
                matrix=matrix,
                link_state=LinkState(),
            )


# ----------------------------------------------------------------------
# the engine coupled to the dynamic-scenario beaconing driver
# ----------------------------------------------------------------------
def build_coupled(period_count=4, fail_at_periods=2.5, round_interval_ms=minutes(1)):
    topology = generate_topology(
        TopologyConfig(num_ases=18, num_core=3, num_transit=6, seed=13)
    )
    victim_as = topology.as_ids()[-1]
    matrix = hotspot_matrix(
        topology, total_demand_mbps=20_000.0, total_flows=50_000,
        hotspot_as=victim_as, hotspot_fraction=0.4, max_pairs=80, seed=3,
    )
    scenario = don_scenario(periods=period_count, verify_signatures=False)
    for link in topology.links_of(victim_as):
        scenario.timeline.add(fail_at_periods * minutes(10), LinkFailure(link.key))
    simulation = BeaconingSimulation(topology, scenario)
    engine = TrafficEngine.for_simulation(
        simulation, matrix, policy=EcmpPolicy(max_paths=2),
        round_interval_ms=round_interval_ms,
    )
    engine.schedule_rounds(start_ms=minutes(10) + round_interval_ms, count=25)
    return simulation, engine


@pytest.fixture(scope="module")
def coupled_run():
    """One shared coupled beaconing+traffic run (read-only in tests)."""
    simulation, engine = build_coupled()
    simulation.run()
    return simulation, engine


class TestTrafficEngineCoupled:
    def test_failure_breaks_and_reroutes_flows(self, coupled_run):
        _simulation, engine = coupled_run
        collector = engine.collector
        fail_ms = 2.5 * minutes(10)
        assert engine.rounds_run == 25
        assert collector.reroutes, "cutting an AS off must break flow groups"
        for record in collector.reroutes:
            # PR 4: groups break when the revocation *message* withdraws
            # their paths at the source AS — at the failure instant for
            # sources adjacent to the failed link, a few propagation hops
            # later for everyone else — never before the failure and well
            # within the same period.
            assert fail_ms <= record.broken_at_ms < fail_ms + minutes(1)
            assert record.cause.startswith("revoke link")
        # Groups towards the cut-off stub stay black-holed (no recovery
        # was scheduled); their demand shows up as unserved.
        assert collector.open_blackholes()
        assert any(
            sample.blackholed_groups > 0 for sample in collector.samples
        )

    def test_coupled_run_is_deterministic(self, coupled_run):
        _simulation, engine = coupled_run
        repeat_sim, repeat_engine = build_coupled()
        repeat_sim.run()
        assert repeat_engine.collector.trace_digest() == engine.collector.trace_digest()
        assert repeat_engine.collector.trace_text() == engine.collector.trace_text()

    def test_goodput_dips_after_cutoff(self, coupled_run):
        _simulation, engine = coupled_run
        samples = engine.collector.samples
        fail_ms = 2.5 * minutes(10)
        before = [s.carried_mbps for s in samples if s.time_ms < fail_ms]
        after = [s.carried_mbps for s in samples if s.time_ms > fail_ms]
        assert before and after
        assert min(after) < before[-1]


# ----------------------------------------------------------------------
# the pinned example scenario (digest regression, like the golden trace)
# ----------------------------------------------------------------------
class TestExampleScenarioDigest:
    def test_traffic_failover_example_digest(self):
        module = load_example("traffic_failover.py")
        simulation, engine = module.build()
        simulation.run()
        collector = engine.collector
        digest = collector.trace_digest()
        assert digest == EXAMPLE_TRACE_DIGEST, (
            "traffic trace changed — if intentional, update "
            f"EXAMPLE_TRACE_DIGEST to {digest!r}"
        )
        # The scenario's headline numbers the example prints.
        assert collector.reroutes
        assert collector.mean_time_to_reroute_ms() is not None
        failure_ms = min(t.time_ms for t in simulation.scenario.timeline)
        assert collector.goodput_recovery_ms(failure_ms) is not None


# ----------------------------------------------------------------------
# goodput recovery on oscillating traces (PR 4 satellite)
# ----------------------------------------------------------------------
def _trace(collector_samples):
    from repro.traffic.collector import RoundSample, TrafficCollector

    collector = TrafficCollector()
    for time_ms, carried in collector_samples:
        collector.on_round(
            RoundSample(
                time_ms=time_ms,
                offered_mbps=100.0,
                carried_mbps=carried,
                unserved_mbps=0.0,
                active_groups=1,
                blackholed_groups=0,
                flow_rounds=1,
                max_link_utilization=0.5,
            )
        )
    return collector


class TestGoodputRecovery:
    def test_oscillating_recovery_dates_after_last_dip(self):
        # Goodput dips, pops back in band for one sample, dips again, and
        # only then recovers for good.  The first in-band sample at t=300
        # is a transient: recovery must be dated at t=500, after the last
        # dip — the pre-fix code returned 300 - 100 = 200 here.
        collector = _trace(
            [(0.0, 100.0), (100.0, 50.0), (200.0, 60.0), (300.0, 100.0),
             (400.0, 55.0), (500.0, 99.5), (600.0, 100.0)]
        )
        assert collector.goodput_recovery_ms(50.0, tolerance=0.01) == 450.0

    def test_monotone_recovery_unchanged(self):
        collector = _trace(
            [(0.0, 100.0), (100.0, 50.0), (200.0, 100.0), (300.0, 100.0)]
        )
        assert collector.goodput_recovery_ms(50.0, tolerance=0.01) == 150.0

    def test_trace_ending_in_a_dip_is_unrecovered(self):
        collector = _trace([(0.0, 100.0), (100.0, 50.0), (200.0, 100.0), (300.0, 40.0)])
        assert collector.goodput_recovery_ms(50.0, tolerance=0.01) is None

    def test_no_dip_returns_none(self):
        collector = _trace([(0.0, 100.0), (100.0, 100.0), (200.0, 100.0)])
        assert collector.goodput_recovery_ms(50.0) is None


# ----------------------------------------------------------------------
# PR 7: closed-loop demand under silent degradation
# ----------------------------------------------------------------------
class TestPreferClean:
    def test_returns_clean_subset(self, fig1_paths):
        short, wide, middle = fig1_paths
        paths = [
            RegisteredPath(segment=s, criteria_tags=("t",), registered_at_ms=0.0)
            for s in (short, wide, middle)
        ]
        loss = {id(paths[0]): 0.9, id(paths[1]): 0.0, id(paths[2]): 0.2}
        clean = prefer_clean(paths, lambda p: loss[id(p)], threshold=0.05)
        assert clean == [paths[1]]

    def test_all_lossy_returns_everything(self, fig1_paths):
        short, wide, _middle = fig1_paths
        paths = [
            RegisteredPath(segment=s, criteria_tags=("t",), registered_at_ms=0.0)
            for s in (short, wide)
        ]
        clean = prefer_clean(paths, lambda _p: 0.5, threshold=0.05)
        assert clean == paths  # back-off, not starvation, handles this case


class TestClosedLoopDemand:
    def _engine(self, fig1, fig1_service, link_state, closed_loop, demand=50.0):
        matrix = TrafficMatrix(
            groups=(
                FlowGroup(
                    group_id=0, source_as=1, destination_as=3,
                    demand_mbps=demand, flow_count=100,
                ),
            )
        )
        return TrafficEngine(
            topology=fig1,
            path_services={1: fig1_service},
            matrix=matrix,
            policy=LatencyGreedyPolicy(),
            link_state=link_state,
            closed_loop=closed_loop,
        )

    def test_config_validation(self):
        ClosedLoopDemand()  # defaults are valid
        with pytest.raises(ConfigurationError):
            ClosedLoopDemand(loss_threshold=0.0)
        with pytest.raises(ConfigurationError):
            ClosedLoopDemand(backoff_factor=1.0)
        with pytest.raises(ConfigurationError):
            ClosedLoopDemand(recovery_factor=0.9)
        with pytest.raises(ConfigurationError):
            ClosedLoopDemand(min_demand_fraction=0.0)

    def test_backoff_under_silent_loss_and_recovery_after(self, fig1, fig1_service):
        state = LinkState()
        for link in fig1.link_ids():
            state.set_gray(link, 1.0)  # every path silently black-holes
        engine = self._engine(
            fig1, fig1_service, state,
            ClosedLoopDemand(
                backoff_factor=0.5, recovery_factor=2.0, min_demand_fraction=0.1
            ),
        )
        collector = engine.run_rounds(5)

        offered = [sample.offered_mbps for sample in collector.samples]
        # Nominal demand in round 0, then multiplicative back-off, floored
        # at 10 % of nominal.
        assert offered[0] == pytest.approx(50.0)
        assert offered[1] == pytest.approx(25.0)
        assert offered[2] == pytest.approx(12.5)
        assert offered[3] == pytest.approx(6.25)
        assert offered[4] == pytest.approx(5.0)
        assert any(" backoff " in line for line in collector.trace)

        # The gray failure clears: demand multiplicatively recovers to
        # nominal and stays there.
        for link in fig1.link_ids():
            state.clear_gray(link)
        collector = engine.run_rounds(8)
        assert collector.samples[-1].offered_mbps == pytest.approx(50.0)

    def test_open_loop_engine_ignores_degradation(self, fig1, fig1_service):
        state = LinkState()
        for link in fig1.link_ids():
            state.set_gray(link, 1.0)
        engine = self._engine(fig1, fig1_service, state, closed_loop=None)
        collector = engine.run_rounds(3)
        assert all(s.offered_mbps == pytest.approx(50.0) for s in collector.samples)
        assert not any(" backoff " in line for line in collector.trace)

    def test_selection_steers_around_lossy_path(self, fig1, fig1_service, fig1_paths):
        """With a clean alternative registered, groups avoid the gray path."""
        short, _wide, _middle = fig1_paths
        state = LinkState()
        for link in short.links():
            state.set_gray(link, 1.0)
        engine = self._engine(fig1, fig1_service, state, ClosedLoopDemand())
        collector = engine.run_rounds(2)
        # Latency-greedy would pick the 20 ms short path; prefer_clean
        # forces the clean 30 ms middle path instead, and no back-off
        # fires because the chosen path delivers everything.
        assert collector.samples[0].mean_latency_ms == pytest.approx(30.0)
        assert collector.samples[-1].offered_mbps == pytest.approx(50.0)
        assert not any(" backoff " in line for line in collector.trace)

    def test_backoff_lines_make_trace_digest_diverge(self, fig1, fig1_service):
        """The closed-loop trace is digest-pinnable and distinct."""
        state = LinkState()
        for link in fig1.link_ids():
            state.set_gray(link, 1.0)
        closed = self._engine(fig1, fig1_service, state, ClosedLoopDemand())
        open_loop = self._engine(fig1, fig1_service, state, None)
        assert (
            closed.run_rounds(3).trace_digest()
            != open_loop.run_rounds(3).trace_digest()
        )

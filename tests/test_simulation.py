"""Tests for the discrete-event engine, simulated transport and beaconing driver."""

import dataclasses
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.collector import MESSAGE_KINDS, MetricsCollector
from repro.simulation.engine import EventScheduler
from repro.simulation.events import LinkFailure
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import (
    AlgorithmSpec,
    ScenarioConfig,
    disjointness_scenario,
    dob_scenario,
    don_scenario,
    one_shortest_path_spec,
    paper_algorithm_suite,
)
from repro.topology.generator import generate_topology
from repro.units import minutes

from tests.conftest import line_topology, run_all, small_test_config


class TestEventScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(20.0, lambda now: order.append(("b", now)))
        scheduler.schedule_at(10.0, lambda now: order.append(("a", now)))
        scheduler.schedule_at(30.0, lambda now: order.append(("c", now)))
        processed = scheduler.run_until(25.0)
        assert processed == 2
        assert [label for label, _now in order] == ["a", "b"]
        assert scheduler.now_ms == 25.0
        scheduler.run_until(100.0)
        assert [label for label, _now in order] == ["a", "b", "c"]

    def test_tie_break_is_fifo(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(10.0, lambda now: order.append("first"))
        scheduler.schedule_at(10.0, lambda now: order.append("second"))
        run_all(scheduler)
        assert order == ["first", "second"]

    def test_schedule_in_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(50.0)
        with pytest.raises(SimulationError):
            scheduler.schedule_at(10.0, lambda now: None)
        with pytest.raises(SimulationError):
            scheduler.schedule_in(-1.0, lambda now: None)

    def test_next_event_time(self):
        scheduler = EventScheduler()
        assert scheduler.next_event_time() is None
        scheduler.schedule_at(5.0, lambda now: None)
        assert scheduler.next_event_time() == 5.0


class TestMetricsCollector:
    def test_binning_by_period(self):
        collector = MetricsCollector(period_ms=100.0)
        collector.record("pcb", 1, 1, 10.0)
        collector.record("pcb", 1, 1, 20.0)
        collector.record("pcb", 1, 1, 150.0)
        collector.record("pcb", 2, 1, 150.0)
        # Interface (1, 1) sends twice in period 0 and once in period 1.
        assert collector._counts[((1, 1), 0)] == 2
        assert collector._counts[((1, 1), 1)] == 1
        assert collector.total_sent == 4
        assert sorted(collector.pcbs_per_interface_per_period()) == [1, 1, 2]

    def test_returns_and_fetches(self):
        collector = MetricsCollector(period_ms=100.0)
        collector.record("pull_return", 3, -1, 10.0)
        collector.record_algorithm_fetch()
        assert collector.sent["pull_return"] == 1
        assert collector.algorithm_fetches() == 1
        assert collector.total_sent == 0

    @pytest.mark.parametrize(
        "recorder, args",
        [
            ("record", (1, 1, 0.0)),
            ("record_drop", ()),
            ("record_gray_drop", ()),
        ],
    )
    def test_unknown_kind_has_no_ledger(self, recorder, args):
        collector = MetricsCollector()
        with pytest.raises(SimulationError, match="has no ledger"):
            getattr(collector, recorder)("mystery", *args)
        assert collector.control_messages_total() == 0
        assert collector.gray_dropped_total() == 0
        assert _ledgers(collector) == _ledgers(MetricsCollector())


_KIND = st.sampled_from(MESSAGE_KINDS)
_AS = st.integers(min_value=1, max_value=4)
#: One strategy per recorder, so a generated stream reaches every ledger.
_RECORDS = (
    st.tuples(
        st.just("record"), _KIND, _AS, st.integers(1, 3), st.floats(0.0, 399.0)
    ),
    st.tuples(st.just("record_drop"), _KIND),
    st.tuples(st.just("record_gray_drop"), _KIND),
    st.tuples(st.just("record_revocation_batch"), st.integers(1, 6)),
    st.tuples(st.just("record_algorithm_fetch")),
)


def _ledgers(collector):
    """Every dataclass field of ``collector``."""
    return {
        ledger.name: getattr(collector, ledger.name)
        for ledger in dataclasses.fields(collector)
    }


class TestCollectorMerge:
    """``merge`` is what a sharded run's totals rest on: two collectors that
    split a stream and merge must read as one that saw all of it."""

    @settings(max_examples=60, deadline=None)
    @given(
        one_of_each=st.tuples(*_RECORDS),
        extra=st.lists(st.one_of(*_RECORDS), max_size=40),
        sides=st.lists(st.booleans(), min_size=50, max_size=50),
        order=st.randoms(use_true_random=False),
    )
    def test_merge_equals_one_collector(
        self, one_of_each, extra, sides, order
    ):
        stream = list(one_of_each) + extra
        order.shuffle(stream)
        whole = MetricsCollector(period_ms=100.0)
        halves = (MetricsCollector(period_ms=100.0), MetricsCollector(period_ms=100.0))
        for (name, *args), side in zip(stream, sides):
            getattr(whole, name)(*args)
            getattr(halves[side], name)(*args)
        left, right = halves
        # What a fork worker ships at ``gather`` is a pickle.
        shipped = pickle.loads(pickle.dumps(right))
        assert _ledgers(shipped) == _ledgers(right)
        left.merge(shipped)
        assert _ledgers(left) == _ledgers(whole)
        assert left.control_messages_total() == whole.control_messages_total()


class TestScenarioConfig:
    def test_static_spec_needs_factory(self):
        with pytest.raises(ConfigurationError):
            AlgorithmSpec(rac_id="broken")

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(algorithms=())
        with pytest.raises(ConfigurationError):
            ScenarioConfig(algorithms=(one_shortest_path_spec(),), periods=0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(
                algorithms=(one_shortest_path_spec(),), propagation_interval_ms=0.0
            )
        with pytest.raises(ConfigurationError):
            ScenarioConfig(algorithms=(one_shortest_path_spec(),), registration_limit=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("propagation_interval_ms", math.nan),
            ("propagation_interval_ms", math.inf),
        ],
    )
    def test_scenario_rejects_non_finite_and_negative_timings(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ScenarioConfig(algorithms=(one_shortest_path_spec(),), **{name: value})

    def test_paper_suite_contains_expected_racs(self):
        suite = paper_algorithm_suite()
        ids = [spec.rac_id for spec in suite]
        assert ids == ["1sp", "5sp", "hd", "don", "on-demand"]
        assert suite[-1].on_demand

    def test_prebuilt_scenarios(self):
        assert {spec.rac_id for spec in don_scenario().algorithms} == {"1sp", "5sp", "don"}
        assert any(spec.rac_id == "dob300" for spec in dob_scenario(300).algorithms)
        assert any(spec.on_demand for spec in disjointness_scenario().algorithms)


class TestBeaconingSimulation:
    def test_registered_paths_appear_and_overhead_recorded(self, small_topology):
        scenario = don_scenario(periods=2, verify_signatures=False)
        simulation = BeaconingSimulation(small_topology, scenario)
        result = simulation.run()
        assert result.periods_run == 2
        assert result.collector.total_sent > 0
        # Every AS should have registered at least one path to some origin.
        some_as = small_topology.as_ids()[-1]
        assert len(result.service(some_as).path_service.all_paths()) > 0
        assert result.collector.pcbs_per_interface_per_period()

    def test_simulation_is_deterministic(self, small_topology):
        scenario = don_scenario(periods=2, verify_signatures=False)
        first = BeaconingSimulation(small_topology, scenario).run()
        second = BeaconingSimulation(
            generate_topology(small_test_config()), don_scenario(periods=2, verify_signatures=False)
        ).run()
        assert first.collector.total_sent == second.collector.total_sent

    def test_signature_verification_mode(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2, verify_signatures=True)
        result = BeaconingSimulation(topology, scenario).run()
        assert result.service(3).path_service.paths_to(1)

    def test_link_delay_respected_in_delivery_times(self):
        topology = line_topology(3, latency_ms=50.0)
        scenario = don_scenario(periods=1, verify_signatures=False)
        simulation = BeaconingSimulation(topology, scenario)
        simulation.run()
        # The scheduler processed delivery events strictly after origination.
        assert simulation.scheduler.processed_events > 0

    def test_mixed_legacy_deployment(self):
        topology = line_topology(4)
        scenario = ScenarioConfig(
            algorithms=(one_shortest_path_spec(),),
            periods=3,
            verify_signatures=False,
            legacy_ases=(2,),
        )
        result = BeaconingSimulation(topology, scenario).run()
        # Paths still traverse the legacy AS 2, proving interoperability.
        paths = result.service(4).path_service.paths_to(1)
        assert paths
        assert paths[0].segment.as_path() == (1, 2, 3, 4)

    def test_registration_limit_sizes_every_path_service(self):
        scenario = ScenarioConfig(
            algorithms=(one_shortest_path_spec(),),
            periods=1,
            verify_signatures=False,
            legacy_ases=(2,),
            registration_limit=3,
        )
        simulation = BeaconingSimulation(line_topology(4), scenario)
        limits = {
            as_id: service.path_service.max_paths_per_key
            for as_id, service in simulation.services.items()
        }
        assert limits == {1: 3, 2: 3, 3: 3, 4: 3}

    def test_pull_orchestrator_requires_irec_as(self):
        topology = line_topology(3)
        scenario = ScenarioConfig(
            algorithms=(one_shortest_path_spec(),),
            periods=1,
            verify_signatures=False,
            legacy_ases=(1,),
        )
        simulation = BeaconingSimulation(topology, scenario)
        with pytest.raises(ConfigurationError):
            simulation.add_pull_disjointness(origin_as=1, target_as=3)

    def test_unknown_as_lookup(self, small_topology):
        scenario = don_scenario(periods=1, verify_signatures=False)
        result = BeaconingSimulation(small_topology, scenario).run()
        from repro.exceptions import UnknownASError

        with pytest.raises(UnknownASError):
            result.service(10_000)


class TestTracerSeams:
    """irecbench's tracer and tick hooks (``benchmarks/irecbench/tracing.py``
    ``Tracer.install``, ``harness.py`` ``install_ticks``) wrap these handlers
    *as instance attributes*.  A call made through the class, a bound method
    hoisted at construction or ``__slots__`` on a service would bypass the
    wrappers and silently zero their spans — on either flavour."""

    SEAMS = ("run_round", "on_message_batch", "on_revocation", "originate_revocation")

    def test_instance_level_spies_see_every_call_on_both_flavours(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=3, verify_signatures=False)
        scenario.legacy_ases = (2,)
        links = topology.link_ids()
        # 3-4 fails: AS 3's flood crosses legacy AS 2 on its way to AS 1.
        scenario.timeline.add(minutes(12), LinkFailure(links[2]))
        # 1-2 fails: IREC AS 1 and legacy AS 2 both originate.
        scenario.timeline.add(minutes(15), LinkFailure(links[0]))
        simulation = BeaconingSimulation(topology, scenario)
        calls = Counter()
        delivered = Counter()

        def spy(owner, name, key):
            inner = getattr(owner, name)

            def call(*args, **kwargs):
                calls[key, name] += 1
                if name == "on_message_batch":
                    delivered[key] += len(args[0])
                return inner(*args, **kwargs)

            setattr(owner, name, call)

        spy(simulation.transport, "send_message", "fabric")
        for as_id, service in simulation.services.items():
            for name in self.SEAMS:
                spy(service, name, as_id)
        result = simulation.run()

        collector = result.collector
        assert calls["fabric", "send_message"] == collector.control_messages_total() > 0
        assert sum(delivered.values()) == (
            collector.control_messages_total()
            - collector.total_dropped
            - collector.revocations_dropped
        )
        for as_id, service in result.services.items():
            assert calls[as_id, "run_round"] == scenario.periods
            assert delivered[as_id] > 0
            assert calls[as_id, "on_revocation"] == service.revocations.received
            assert calls[as_id, "originate_revocation"] == service.revocations.originated
        for as_id in (1, 2):  # one IREC, one legacy: both handlers, both flavours
            assert calls[as_id, "on_revocation"] > 0
            assert calls[as_id, "originate_revocation"] > 0


class TestSimulatedTransport:
    def test_delivery_is_scheduled(self, small_topology, key_store):
        from repro.core.local_view import LocalTopologyView
        from repro.core.control_service import IrecControlService
        from repro.algorithms.shortest_path import KShortestPathAlgorithm

        scheduler = EventScheduler()
        transport = SimulatedTransport(topology=small_topology, scheduler=scheduler)
        services = {}
        for as_info in small_topology:
            view = LocalTopologyView.from_topology(small_topology, as_info.as_id)
            service = IrecControlService(view=view, key_store=key_store, transport=transport)
            service.add_static_rac(rac_id="1sp", algorithm=KShortestPathAlgorithm(k=1))
            services[as_info.as_id] = service
            transport.register(service)
        origin = services[small_topology.as_ids()[0]]
        origin.originate(now_ms=0.0)
        assert transport.collector.total_sent > 0
        # Sending only schedules the delivery: the neighbour holds the
        # beacons once the scheduler has run.
        neighbor = small_topology.neighbors(origin.as_id)[0]
        assert len(services[neighbor].ingress.database) == 0
        run_all(scheduler)
        assert len(services[neighbor].ingress.database) > 0

"""Tests for the dynamic-scenario subsystem.

Covers the timeline and its validation, the live link/AS state, event application inside
the beaconing driver (failures interrupting propagation, churn, policy and
RAC hot-swaps, period changes) and the convergence metrics the collector
derives from watched AS pairs.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    BeaconPeriodChange,
    ForwardingSuppression,
    GrayFailure,
    GrayRecovery,
    LinkFailure,
    LinkFlap,
    LinkRecovery,
    RevocationForgery,
    RevocationReplay,
    ScenarioEvent,
    ScenarioTimeline,
    TimedEvent,
    TopologyGrowth,
    random_churn,
)
from repro.simulation.failures import LinkState
from repro.simulation.scenario import don_scenario
from repro.topology.generator import TopologyConfig, generate_topology
from repro.units import minutes

from tests.conftest import line_topology, run_all
from tests.test_golden_trace import FAMILY_DIGESTS, run_family_scenario, run_scenario


def _mid_period(period: int, interval_ms: float = minutes(10)) -> float:
    return period * interval_ms + interval_ms / 2.0


class TestTimelineDSL:
    def test_builder_chains_and_orders(self):
        timeline = ScenarioTimeline()
        link = ((1, 2), (2, 1))
        timeline.add(100.0, LinkFailure(link)).add(200.0, LinkRecovery(link)).add(
            200.0, ASLeave(7)
        )
        kinds = [type(timed.event) for timed in timeline]
        assert kinds == [LinkFailure, LinkRecovery, ASLeave]
        assert [timed.time_ms for timed in timeline] == [100.0, 200.0, 200.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            TimedEvent(time_ms=-1.0, event=ASLeave(as_id=1))

    def test_non_positive_period_rejected(self):
        with pytest.raises(ConfigurationError):
            BeaconPeriodChange(interval_ms=0.0)

    def test_link_ids_are_normalised(self):
        event = LinkFailure(link_id=((2, 1), (1, 2)))
        assert event.link_id == ((1, 2), (2, 1))

    def test_trace_labels_are_stable(self):
        assert LinkFailure(((1, 2), (2, 1))).trace_label() == "fail_link 1.2-2.1"
        assert ASLeave(9).trace_label() == "as_leave 9"

    def test_extend_validates_type(self):
        with pytest.raises(ConfigurationError):
            ScenarioTimeline().extend([ASLeave(as_id=1)])  # not a TimedEvent


NON_FINITE = (math.nan, math.inf, -math.inf)
#: Any float, with the values events must reject drawn often.
NUMBER = st.one_of(st.floats(), st.sampled_from((0.0, -1.0) + NON_FINITE))


class TestEventConstruction:
    """Values an event could not act on are rejected when it is built."""

    link = ((1, 2), (2, 1))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_event_time_rejected(self, value):
        # A NaN or infinite time used to be accepted and then never fire.
        with pytest.raises(ConfigurationError, match="finite"):
            ScenarioTimeline().add(value, ASLeave(as_id=1))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_beacon_period_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            BeaconPeriodChange(interval_ms=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_flap_offset_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            LinkFlap(link_id=self.link, schedule=(0.0, value))

    def test_sequences_are_stored_as_tuples(self):
        assert LinkFlap(link_id=self.link, schedule=[0.0, 1.0]).schedule == (0.0, 1.0)


@functools.lru_cache(maxsize=None)
def _generated_topology():
    return generate_topology(TopologyConfig(num_ases=12, num_core=2, num_transit=4, seed=3))


def _event_fields(links):
    """Map every event class to strategies of its constructor arguments,
    bad values (NaN, ±inf, negatives, zero, empty tuples) included."""
    rate = st.one_of(st.floats(min_value=-0.5, max_value=1.5), st.just(math.nan))
    count = st.integers(min_value=-1, max_value=3)
    as_id = st.integers(min_value=0, max_value=15)
    as_list = st.lists(as_id, max_size=3).map(tuple)
    link = st.sampled_from(links + [((98, 1), (99, 1))])
    return {
        LinkFailure: {"link_id": link},
        LinkRecovery: {"link_id": link},
        ASLeave: {"as_id": as_id},
        ASJoin: {"as_id": as_id},
        BeaconPeriodChange: {"interval_ms": NUMBER},
        LinkFlap: {
            "link_id": link,
            "schedule": st.lists(NUMBER, max_size=4),
            "loss_ab": rate,
            "loss_ba": rate,
        },
        GrayFailure: {"link_id": link, "drop_rate": rate},
        GrayRecovery: {"link_id": link},
        RevocationForgery: {
            "attacker_as": as_id,
            "claimed_origin": as_id,
            "link_id": link,
            "count": count,
        },
        RevocationReplay: {"attacker_as": as_id, "count": count},
        ForwardingSuppression: {"as_ids": as_list},
        TopologyGrowth: {"new_as": as_id, "attach_to": as_list},
    }


class TestLoadersFailTyped:
    """Whatever a caller passes, building and validating a timeline either
    succeeds or raises :class:`ConfigurationError` — never another error."""

    def test_every_event_class_is_drawn(self):
        assert set(_event_fields([])) == set(ScenarioEvent.__subclasses__())

    @seed(20261017)
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_construction_and_validation_fail_typed(self, data):
        topology = _generated_topology()
        drawn_event = st.one_of(
            [
                st.tuples(st.just(cls), st.fixed_dictionaries(fields))
                for cls, fields in _event_fields(sorted(topology.links)).items()
            ]
        )
        # Each built event is validated on top of the valid prefix so far,
        # so later events meet a replay state other events have shaped.
        valid = []
        for at_ms, (cls, fields) in data.draw(st.lists(st.tuples(NUMBER, drawn_event), max_size=8)):
            try:
                timeline = ScenarioTimeline().extend(valid).add(at_ms, cls(**fields))
                timeline.validate(topology)
            except ConfigurationError:
                continue
            valid = list(timeline)
        for timed in valid:
            assert math.isfinite(timed.time_ms) and timed.time_ms >= 0
            assert isinstance(timed.trace_label(), str)


class TestTimelineValidation:
    """Satellite: impossible schedules fail loudly instead of no-opping."""

    link = ((1, 2), (2, 1))

    def test_recovery_without_failure_rejected(self):
        timeline = ScenarioTimeline()
        timeline.add(100.0, LinkRecovery(self.link))
        with pytest.raises(ConfigurationError, match="not failed"):
            timeline.validate()

    def test_recovery_scheduled_before_its_failure_rejected(self):
        timeline = ScenarioTimeline()
        # Insertion order is fine, execution order is not: the recovery
        # fires at 100 ms, before the 200 ms failure.
        timeline.add(200.0, LinkFailure(self.link)).add(100.0, LinkRecovery(self.link))
        with pytest.raises(ConfigurationError, match="not failed"):
            timeline.validate()

    def test_double_recovery_rejected(self):
        timeline = ScenarioTimeline()
        timeline.add(10.0, LinkFailure(self.link))
        timeline.add(20.0, LinkRecovery(self.link)).add(30.0, LinkRecovery(self.link))
        with pytest.raises(ConfigurationError, match="not failed"):
            timeline.validate()

    def test_join_without_leave_rejected(self):
        timeline = ScenarioTimeline()
        timeline.add(50.0, ASJoin(3))
        with pytest.raises(ConfigurationError, match="not offline"):
            timeline.validate()

    def test_valid_schedules_pass(self):
        timeline = ScenarioTimeline()
        timeline.add(10.0, LinkFailure(self.link)).add(20.0, LinkRecovery(self.link))
        timeline.add(30.0, LinkFailure(self.link)).add(40.0, LinkRecovery(self.link))
        timeline.add(50.0, ASLeave(3)).add(60.0, ASJoin(3))
        timeline.validate()  # must not raise

    def test_negative_event_time_rejected_with_clear_error(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ScenarioTimeline().add(-5.0, LinkFailure(link_id=self.link))

    def test_engine_rejects_recovery_of_never_failed_link(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2, verify_signatures=False)
        scenario.timeline.add(100.0, LinkRecovery(topology.link_ids()[0]))
        with pytest.raises(ConfigurationError, match="not failed"):
            BeaconingSimulation(topology, scenario)


class TestLinkState:
    def test_link_and_as_availability(self):
        state = LinkState()
        link = ((1, 2), (2, 1))
        assert state.link_available(link)
        state.fail_link(link)
        assert not state.link_available(link)
        state.restore_link(link)
        assert state.link_available(link)

        state.set_as_offline(2)
        assert not state.link_available(link)  # endpoint down takes link down
        assert state.is_link_up(link)  # ...but the link itself is not failed
        state.set_as_online(2)
        assert state.link_available(link)

    def test_path_availability(self):
        state = LinkState()
        links = [((1, 2), (2, 1)), ((2, 2), (3, 1))]
        assert state.path_available(links)
        state.fail_link(links[1])
        assert not state.path_available(links)


class TestEngineValidation:
    def test_unknown_link_in_timeline_rejected(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=1, verify_signatures=False)
        scenario.timeline.add(10.0, LinkFailure(((1, 1), (99, 1))))
        with pytest.raises(ConfigurationError):
            BeaconingSimulation(topology, scenario)

    def test_unknown_as_in_timeline_rejected(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=1, verify_signatures=False)
        scenario.timeline.add(10.0, ASLeave(99))
        with pytest.raises(ConfigurationError):
            BeaconingSimulation(topology, scenario)

    def test_unknown_watch_pair_rejected(self):
        topology = line_topology(3)
        simulation = BeaconingSimulation(topology, don_scenario(periods=1, verify_signatures=False))
        from repro.exceptions import UnknownASError

        with pytest.raises(UnknownASError):
            simulation.watch_pair(1, 99)


class TestFailureAndRecovery:
    def _run_fail_recover(self, fail_at_ms, recover_at_ms, periods=7):
        topology = line_topology(4)
        scenario = don_scenario(periods=periods, verify_signatures=False)
        link = topology.link_ids()[1]  # the 2-3 link
        scenario.timeline.add(fail_at_ms, LinkFailure(link)).add(recover_at_ms, LinkRecovery(link))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(3, 1)
        return simulation, simulation.run()

    def test_failure_interrupts_and_recovery_heals(self):
        simulation, result = self._run_fail_recover(
            fail_at_ms=_mid_period(2), recover_at_ms=_mid_period(4)
        )
        records = result.convergence.records
        assert len(records) == 1
        record = records[0]
        assert record.paths_lost >= 1
        assert record.recovered
        assert record.time_to_recovery_ms > 0
        assert record.paths_regained >= 1
        assert record.control_message_overhead > 0
        # After recovery the watched pair reports no ongoing outage.
        assert result.convergence.current_outage_ms(3, 1, result.final_time_ms) == 0.0
        # The failure really dropped PCBs and triggered a revocation flood.
        assert result.collector.total_dropped > 0
        assert result.collector.total_revocations > 0

    def test_unrecovered_failure_stays_open(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        link = topology.link_ids()[1]
        scenario.timeline.add(_mid_period(2), LinkFailure(link))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(3, 1)
        result = simulation.run()
        open_records = [record for record in result.convergence.records if not record.recovered]
        assert len(open_records) == 1
        assert open_records[0].time_to_recovery_ms is None
        outage = result.convergence.current_outage_ms(3, 1, result.final_time_ms)
        assert outage > 0
        # The registered path crossing the dead link was withdrawn everywhere.
        assert simulation.usable_path_count(3, 1) == 0

    def test_databases_purged_on_failure(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=3, verify_signatures=False)
        link = topology.link_ids()[1]
        scenario.timeline.add(_mid_period(2), LinkFailure(link))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        # No AS keeps an ingress beacon or registered path crossing the link.
        for service in result.services.values():
            for stored in service.ingress.database.all_beacons():
                assert link not in stored.beacon.links()
            for path in service.path_service.all_paths():
                assert link not in path.segment.links()

    def test_dynamic_run_is_deterministic(self):
        _sim_a, result_a = self._run_fail_recover(_mid_period(2), _mid_period(4))
        _sim_b, result_b = self._run_fail_recover(_mid_period(2), _mid_period(4))
        assert result_a.convergence.trace_text() == result_b.convergence.trace_text()
        assert result_a.collector.total_sent == result_b.collector.total_sent
        assert result_a.collector.total_dropped == result_b.collector.total_dropped


class TestChurn:
    def test_as_leave_and_rejoin(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=7, verify_signatures=False)
        scenario.timeline.add(_mid_period(2), ASLeave(2)).add(_mid_period(3), ASJoin(2))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(3, 1)
        result = simulation.run()
        records = result.convergence.records
        assert len(records) == 1
        assert records[0].paths_lost >= 1
        assert records[0].recovered  # paths re-propagate after the rejoin
        assert records[0].time_to_recovery_ms > 0

    def test_offline_as_neither_originates_nor_processes(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2, verify_signatures=False)
        scenario.timeline.add(0.0, ASLeave(2))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        # AS 2 is the only transit: nothing can traverse it while offline.
        assert simulation.usable_path_count(3, 1) == 0
        # Its own databases were wiped by the cold restart.
        assert len(result.service(2).ingress.database) == 0

    def test_state_crossing_departed_as_withdrawn(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        scenario.timeline.add(_mid_period(3), ASLeave(2))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        for as_id, service in result.services.items():
            if as_id == 2:
                continue
            for path in service.path_service.all_paths():
                assert not path.segment.contains_as(2)


class TestOperatorEvents:
    def test_event_targeting_unknown_as_rejected_at_construction(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=1, verify_signatures=False)
        scenario.timeline.add(10.0, ForwardingSuppression((99,)))
        with pytest.raises(ConfigurationError):
            BeaconingSimulation(topology, scenario)

    def test_beacon_period_change_applies_to_later_periods(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=3, verify_signatures=False)
        scenario.timeline.add(_mid_period(0), BeaconPeriodChange(minutes(5)))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        # Period 0 keeps its 10-minute length; periods 1 and 2 are 5 minutes.
        assert result.final_time_ms == pytest.approx(minutes(10) + 2 * minutes(5) + 1.0)


class TestReviewRegressions:
    def test_in_flight_beacon_crossing_failed_link_is_dropped(self, key_store):
        # A PCB whose *own path* crosses a link that fails while the PCB is
        # in flight on a different (healthy) link must not be delivered:
        # it would re-poison the databases the invalidation flood purged.
        from repro.core.control_service import IrecControlService
        from repro.core.local_view import LocalTopologyView
        from repro.simulation.engine import EventScheduler
        from repro.simulation.network import SimulatedTransport
        from tests.conftest import make_beacon, pcb_message

        topology = line_topology(3)
        scheduler = EventScheduler()
        link_state = LinkState()
        transport = SimulatedTransport(
            topology=topology, scheduler=scheduler, link_state=link_state
        )
        for as_info in topology:
            view = LocalTopologyView.from_topology(topology, as_info.as_id)
            service = IrecControlService(view=view, key_store=key_store, transport=transport)
            transport.register(service)

        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))  # in flight towards AS 3
        link_state.fail_link(((1, 2), (2, 1)))  # beacon's first hop fails
        run_all(scheduler)
        assert len(transport.service_of(3).ingress.database) == 0
        assert transport.collector.total_dropped == 1

    def test_event_past_horizon_is_deferred_not_applied(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2, verify_signatures=False)
        link = topology.link_ids()[0]
        # Lands inside run()'s final in-flight flush window (horizon + 1 ms).
        scenario.timeline.add(2 * minutes(10) + 0.5, LinkFailure(link))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        assert result.link_state.link_available(link)
        assert all("fail_link" not in line for line in result.convergence.trace)
        # Continuing the same simulation applies the deferred event at the
        # start of the next period instead of silently losing it.
        simulation.run(periods=1)
        assert not simulation.link_state.link_available(link)
        assert any("fail_link" in line for line in simulation.convergence.trace)

    def test_churned_as_restarts_with_fresh_racs(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=4, verify_signatures=False)
        scenario.timeline.add(_mid_period(1), ASLeave(2)).add(_mid_period(2), ASJoin(2))
        simulation = BeaconingSimulation(topology, scenario)
        racs_before = list(simulation.services[2].racs)
        result = simulation.run()
        racs_after = simulation.services[2].racs
        # Cold restart: same deployment, freshly instantiated containers.
        assert [r.config.rac_id for r in racs_after] == [
            r.config.rac_id for r in racs_before
        ]
        assert all(
            after is not before for after, before in zip(racs_after, racs_before)
        )
        # The rejoined AS participates again: it re-registers paths.
        assert result.service(2).path_service.all_paths()

    def test_second_failure_deepens_open_disruption(self):
        # Diamond: two disjoint routes 1-2-4 and 1-3-4; losing one opens the
        # disruption, losing the other must deepen it (not vanish).
        from tests.test_fig8b_failures import diamond_topology

        topology = diamond_topology()
        scenario = don_scenario(periods=5, verify_signatures=False)
        # Both failures inside one period: no probe (and so no possible
        # recovery) in between, so the second must deepen the open record.
        scenario.timeline.add(_mid_period(2), LinkFailure(((1, 1), (2, 1))))
        scenario.timeline.add(_mid_period(2) + 10_000.0, LinkFailure(((1, 2), (3, 1))))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.watch_pair(4, 1)
        result = simulation.run()
        records = result.convergence.records
        assert len(records) == 1
        record = records[0]
        assert record.paths_after == 0  # low-water mark reflects both losses
        assert not record.recovered
        assert any("deepen (4,1)" in line for line in result.convergence.trace)


class TestRandomGenerators:
    def test_random_churn_restricts_to_candidates(self):
        topology = line_topology(4)
        events = random_churn(
            topology, count=1, rng=random.Random(7), start_ms=0.0,
            spacing_ms=1.0, downtime_ms=50.0, candidates=[4],
        )
        assert [type(t.event) for t in events] == [ASLeave, ASJoin]
        assert all(t.event.as_id == 4 for t in events)

    def test_generated_events_run_in_engine(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=3, verify_signatures=False)
        scenario.timeline.extend(
            random_churn(
                topology, count=1, rng=random.Random(3),
                start_ms=_mid_period(1), spacing_ms=minutes(10),
                downtime_ms=minutes(10), candidates=[4],
            )
        )
        result = BeaconingSimulation(topology, scenario).run()
        assert result.periods_run == 3


# ---------------------------------------------------------------------------
# PR 17: the convergence probe serves maintained counts
# ---------------------------------------------------------------------------


def _check_probes(simulation):
    """Make every probe of ``simulation`` prove itself against a full
    recount; return the (growing) list of pairs the probes recounted.

    The reference is the unpatched ``usable_path_count``; the counting
    wrapper sits on the instance attribute, the seam ``probe`` recounts
    through (and irecbench's span is patched onto).
    """
    recounted = []
    probe, full_recount = simulation.probe, simulation.usable_path_count

    def counted_recount(source_as, destination_as):
        recounted.append((source_as, destination_as))
        return full_recount(source_as, destination_as)

    def checked_probe(pairs, with_times=False):
        result = probe(pairs, with_times)
        assert result[0] == {pair: full_recount(*pair) for pair in pairs}
        return result

    simulation.usable_path_count = counted_recount
    simulation.probe = checked_probe
    return recounted


def _listener_count(simulation):
    return sum(
        len(service.path_service._invalidation_listeners)
        for service in simulation.services.values()
    )


def _warm_line():
    """A converged four-AS line with probes checked; no pair watched yet."""
    topology = line_topology(4)
    simulation = BeaconingSimulation(
        topology, don_scenario(periods=3, verify_signatures=False)
    )
    recounted = _check_probes(simulation)
    simulation.run()
    return topology, simulation, recounted


class TestMaintainedProbeCounts:
    @pytest.mark.parametrize("family", [None, *sorted(FAMILY_DIGESTS)])
    def test_cached_probe_equals_full_recount_on_golden_scenarios(self, family):
        """Every probe of the golden and the four family scenarios, with
        every AS pair watched, returns what a full recount returns — across
        failures, flaps, gray loss, forged/replayed revocations, an AS
        leaving (cold restart) and rejoining, and topology growth."""
        built = []

        def build(topology, scenario):
            simulation = BeaconingSimulation(topology, scenario)
            as_ids = list(topology.as_ids())
            for pair in itertools.permutations(as_ids, 2):
                simulation.watch_pair(*pair)
            built.append((simulation, _check_probes(simulation), len(as_ids)))
            return simulation

        if family is None:
            run_scenario(factory=build)
        else:
            run_family_scenario(family, factory=build)
        (simulation, recounted, sources), = built
        # The check above ran on warm counts, not on a recount per probe.
        events = sum(1 for line in simulation.convergence.trace if " event " in line)
        probes = 2 * events + simulation.periods_run
        assert len(recounted) < probes * len(simulation.watched_pairs)
        assert _listener_count(simulation) == len(simulation.services) + sources

    def test_link_state_changed_behind_the_drivers_back_is_seen(self):
        topology, simulation, recounted = _warm_line()
        pairs = [(3, 1), (4, 3), (1, 2)]
        link = topology.link_ids()[1]  # the 2-3 link: only (3, 1) crosses it
        healthy = simulation.probe(pairs)[0]
        assert all(healthy.values())
        del recounted[:]
        simulation.link_state.fail_link(link)
        assert simulation.probe(pairs)[0] == {**healthy, (3, 1): 0}
        simulation.link_state.restore_link(link)
        assert simulation.probe(pairs)[0] == healthy
        assert recounted == [(3, 1), (3, 1)]

    def test_fail_and_restore_between_two_probes_recounts_nothing(self):
        topology, simulation, recounted = _warm_line()
        pairs = [(3, 1), (4, 1)]
        before = simulation.probe(pairs)[0]
        del recounted[:]
        simulation.link_state.fail_link(topology.link_ids()[1])
        simulation.link_state.restore_link(topology.link_ids()[1])
        assert simulation.probe(pairs)[0] == before
        assert recounted == []

    def test_offline_as_change_recounts_everything(self):
        _topology, simulation, recounted = _warm_line()
        pairs = [(3, 1), (4, 3), (1, 2)]
        healthy = simulation.probe(pairs)[0]
        del recounted[:]
        simulation.link_state.set_as_offline(2)
        assert simulation.probe(pairs)[0] == {(3, 1): 0, (4, 3): healthy[4, 3], (1, 2): 0}
        assert sorted(recounted) == sorted(pairs)

    def test_pair_watched_mid_run_joins_the_maintained_counts(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=6, verify_signatures=False)
        link = topology.link_ids()[1]
        scenario.timeline.add(_mid_period(3), LinkFailure(link))
        scenario.timeline.add(_mid_period(4), LinkRecovery(link))
        simulation = BeaconingSimulation(topology, scenario)
        _check_probes(simulation)
        simulation.watch_pair(3, 1)
        simulation.run(periods=3)
        simulation.watch_pair(4, 1)
        simulation.watch_pair(4, 2)
        result = simulation.run(periods=3)
        disrupted = {
            (record.source_as, record.destination_as) for record in result.convergence.records
        }
        assert disrupted == {(3, 1), (4, 1), (4, 2)}

    def test_watched_source_that_cold_restarts_keeps_reporting(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=7, verify_signatures=False)
        scenario.timeline.add(_mid_period(2), ASLeave(3)).add(_mid_period(3), ASJoin(3))
        simulation = BeaconingSimulation(topology, scenario)
        _check_probes(simulation)
        simulation.watch_pair(3, 1)
        path_service = simulation.services[3].path_service
        result = simulation.run()
        (record,) = result.convergence.records
        assert (record.source_as, record.destination_as) == (3, 1)
        assert record.paths_after == 0 and record.recovered
        # The restart wiped the path service in place: one subscription
        # served the whole run.
        assert simulation.services[3].path_service is path_service
        assert _listener_count(simulation) == len(simulation.services) + 1

    def test_pair_dropped_from_the_argument_list_is_not_served_stale(self):
        topology, simulation, recounted = _warm_line()
        healthy = simulation.probe([(3, 1), (4, 3)])[0]
        assert all(healthy.values())
        simulation.link_state.fail_link(topology.link_ids()[1])
        # (3, 1) moves while only (4, 3) is asked for ...
        assert simulation.probe([(4, 3)])[0] == {(4, 3): healthy[4, 3]}
        # ... and a later link change must not be needed to notice.
        assert simulation.probe([(3, 1), (4, 3)])[0] == {**healthy, (3, 1): 0}

    def test_unwatched_simulation_subscribes_to_no_path_service(self):
        """The three irecbench workloads without watched pairs pay nothing."""
        topology = line_topology(4)
        scenario = don_scenario(periods=3, verify_signatures=False)
        scenario.timeline.add(_mid_period(1), LinkFailure(topology.link_ids()[1]))
        simulation = BeaconingSimulation(topology, scenario)
        fresh = _listener_count(simulation)
        simulation.run()
        assert _listener_count(simulation) == fresh

    def test_one_subscription_per_watched_source(self):
        topology = line_topology(5)
        scenario = don_scenario(periods=5, verify_signatures=False)
        link = topology.link_ids()[1]
        scenario.timeline.add(_mid_period(2), LinkFailure(link))
        scenario.timeline.add(_mid_period(3), LinkRecovery(link))
        simulation = BeaconingSimulation(topology, scenario)
        fresh = _listener_count(simulation)
        for pair in [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (5, 3), (5, 4)]:
            simulation.watch_pair(*pair)
        simulation.run()
        assert _listener_count(simulation) == fresh + 2  # sources 3 and 5

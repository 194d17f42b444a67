"""Bounded, rate-limited control-plane inboxes (PR 6).

Covers the tentpole queue model end to end:

* equivalence — the unlimited default (and any profile that keeps an
  infinite service rate and unbounded queue) is bit-identical to the
  PR-5 fabric, both on a hypothesis-driven dynamic scenario and on the
  pinned golden trace;
* pinned behaviours — tail-drop ordering, ECN-style marking, priority
  preemption of revocations over queued PCBs, deferred ``applied_at``
  timestamps under a synthetic revocation storm;
* overload scenarios — revocation storms, beacon-flood DoS, slow-AS
  stragglers via :class:`ServiceRateChange` timeline events;
* validation — timeline and profile rejection of nonsensical inputs.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import RevocationMessage
from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.collector import MetricsCollector, QuantileReservoir
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    BeaconFlood,
    LinkFailure,
    LinkRecovery,
    ServiceRateChange,
    random_link_failures,
)
from repro.simulation.network import InboxProfile
from repro.simulation.scenario import don_scenario
from repro.units import minutes

from tests.conftest import build_services, line_topology, make_beacon, pcb_message
from tests.test_golden_trace import GOLDEN_DIGEST
from tests.test_message_fabric import _fabric_state


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _run_dynamic(profile, link_index, fail_minute, recover):
    """Run the fabric-equivalence dynamic scenario under ``profile``."""
    topology = line_topology(4)
    scenario = don_scenario(periods=4, verify_signatures=False)
    scenario.inbox_profile = profile
    link = topology.link_ids()[link_index]
    fail_at = float(fail_minute) * 60_000.0
    scenario.timeline.add(fail_at, LinkFailure(link))
    if recover:
        scenario.timeline.add(fail_at + minutes(10), LinkRecovery(link))
    simulation = BeaconingSimulation(topology, scenario)
    result = simulation.run()
    counters = (
        result.collector.total_sent,
        result.collector.total_dropped,
        result.collector.total_revocations,
        result.collector.revocations_dropped,
        result.collector.control_messages_total(),
        result.collector.inbox_dropped_total(),
        result.collector.inbox_marked_total(),
        result.collector.inbox_deferred_total(),
    )
    return _fabric_state(result), counters


def _golden_digest(profile):
    """Run the golden scenario of tests.test_golden_trace under ``profile``."""
    topology = line_topology(5)
    scenario = don_scenario(periods=11, verify_signatures=False)
    scenario.inbox_profile = profile

    core_link = topology.link_ids()[1]
    scenario.timeline.add(minutes(25), LinkFailure(core_link))
    scenario.timeline.add(minutes(45), LinkRecovery(core_link))
    scenario.timeline.add(minutes(55), ASLeave(4)).add(minutes(65), ASJoin(4))
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=1,
            rng=random.Random(1234),
            start_ms=minutes(15),
            spacing_ms=minutes(10),
            recovery_after_ms=minutes(10),
        )
    )

    simulation = BeaconingSimulation(topology, scenario)
    simulation.watch_pair(3, 1)
    simulation.watch_pair(5, 1)
    result = simulation.run()

    summary = (
        f"sent={result.collector.total_sent}"
        f" dropped={result.collector.total_dropped}"
        f" revocations={result.collector.total_revocations}"
        f" periods={result.periods_run}"
        f" final={result.final_time_ms:.3f}"
        f" records={len(result.convergence.records)}"
    )
    record_lines = [record.trace_label() for record in result.convergence.records]
    trace = "\n".join([result.convergence.trace_text(), *record_lines, summary])
    return hashlib.sha256(trace.encode("utf-8")).hexdigest()


def _revocation(topology, sequence):
    """A distinct unsigned revocation of the 2-3 link (signatures off)."""
    return RevocationMessage(
        origin_as=1,
        sequence=sequence,
        created_at_ms=0.0,
        failed_links=(topology.link_ids()[1],),
    )


# ----------------------------------------------------------------------
# tentpole invariant: unlimited == PR-5, bit for bit
# ----------------------------------------------------------------------
class TestUnlimitedEquivalence:
    """An infinite budget + unbounded queue must reproduce PR-5 exactly."""

    @settings(max_examples=6, deadline=None)
    @given(
        link_index=st.integers(min_value=0, max_value=2),
        fail_minute=st.integers(min_value=3, max_value=35),
        profile=st.sampled_from(
            [InboxProfile(), InboxProfile(capacity=100_000, overflow_policy="mark")]
        ),
    )
    def test_unlimited_profiles_bit_identical(self, link_index, fail_minute, profile):
        baseline = _run_dynamic(None, link_index, fail_minute, True)
        assert _run_dynamic(profile, link_index, fail_minute, True) == baseline

    def test_default_profile_reports_no_overload(self):
        _state, counters = _run_dynamic(None, 1, 15, True)
        assert counters[-3:] == (0, 0, 0)  # no drops, marks or deferrals

    def test_golden_trace_unchanged_under_unlimited_profile(self):
        assert _golden_digest(InboxProfile()) == GOLDEN_DIGEST

    def test_golden_trace_unchanged_under_huge_capacity(self):
        assert _golden_digest(InboxProfile(capacity=1_000_000)) == GOLDEN_DIGEST


# ----------------------------------------------------------------------
# pinned: bounded-capacity overflow behaviour
# ----------------------------------------------------------------------
class TestBoundedCapacity:
    def test_tail_drop_keeps_earliest_arrivals(self, key_store):
        """A full ``drop`` inbox tail-drops the *arriving* message."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology, key_store, inbox_profiles={2: InboxProfile(capacity=2)}
        )
        for sequence in (1, 2, 3, 4):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        # The first two arrivals were queued and applied; the last two hit
        # the full queue and were dropped before their handlers ever ran.
        assert set(services[2].revocations.applied_at) == {(1, 1), (1, 2)}
        assert transport.collector.inbox_dropped["revocation"] == 2
        assert transport.collector.inbox_marked_total() == 0
        assert transport.collector.queue_high_water(2) == 2

    def test_mark_mode_delivers_and_counts(self, key_store):
        """``mark`` overflow delivers every message but stamps the surplus."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={2: InboxProfile(capacity=2, overflow_policy="mark")},
        )
        for sequence in (1, 2, 3, 4):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        assert set(services[2].revocations.applied_at) == {
            (1, 1), (1, 2), (1, 3), (1, 4)
        }
        assert transport.collector.inbox_marked["revocation"] == 2
        assert transport.collector.inbox_dropped_total() == 0

    def test_congestion_mark_preserves_identity(self):
        message = _revocation(line_topology(3), 7)
        marked = message.with_congestion_mark()
        assert marked.congestion_marked and not message.congestion_marked
        assert marked.key == message.key
        assert marked.trace_label() == message.trace_label()


# ----------------------------------------------------------------------
# pinned: service-rate budget, priority and deferral
# ----------------------------------------------------------------------
class TestServiceBudget:
    def test_revocation_preempts_queued_pcb(self, key_store):
        """With pending > budget, revocations are serviced before PCBs."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(budget_per_tick=1, service_interval_ms=5.0)
            },
        )
        beacon = make_beacon(key_store, [(1, None, 2)])
        transport.send_message(1, 2, pcb_message(1, beacon))  # arrives first ...
        transport.send_message(1, 2, _revocation(topology, 1))  # ... same tick
        scheduler.run_until(11.0)  # 10 ms link + 1 ms processing
        # The revocation jumped the queue: applied at the arrival tick
        # while the earlier-queued beacon is still deferred.
        assert services[2].revocations.applied_at == {(1, 1): 11.0}
        assert len(services[2].ingress.database) == 0
        scheduler.run_until(16.0)  # one service interval later
        assert len(services[2].ingress.database) == 1
        assert transport.collector.inbox_deferred["pcb"] == 1
        assert "revocation" not in transport.collector.inbox_deferred

    def test_deferred_service_pays_queueing_delay(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(budget_per_tick=1, service_interval_ms=5.0)
            },
        )
        for sequence in (1, 2, 3):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        applied = services[2].revocations.applied_at
        # One revocation per 5 ms service round, in arrival order.
        assert applied == {(1, 1): 11.0, (1, 2): 16.0, (1, 3): 21.0}
        stats = transport.collector.queue_delay_stats()
        assert stats["count"] == 2
        assert stats["max"] == pytest.approx(10.0)
        assert transport.collector.queue_high_water(2) == 3

    def test_configure_inbox_hot_swap_drains_backlog(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        transport.configure_inbox(
            2, InboxProfile(budget_per_tick=1, service_interval_ms=50.0)
        )
        for sequence in (1, 2, 3, 4):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(11.0)
        assert len(services[2].revocations.applied_at) == 1
        assert transport.pending_messages(2) == 3
        assert transport.queue_backlog_ms(2) == pytest.approx(150.0)
        # Restoring the unlimited rate promptly drains the whole backlog.
        transport.set_inbox_budget(2, None)
        scheduler.run_until(12.0)
        assert len(services[2].revocations.applied_at) == 4
        assert transport.pending_messages(2) == 0
        assert transport.queue_backlog_ms(2) == 0.0


# ----------------------------------------------------------------------
# overload scenarios on the full simulation driver
# ----------------------------------------------------------------------
def _run_storm(budget):
    """Run the pinned revocation-storm scenario under a uniform budget."""
    topology = line_topology(6)
    scenario = don_scenario(periods=8, verify_signatures=False)
    if budget is not None:
        scenario.inbox_profile = InboxProfile(
            budget_per_tick=budget, service_interval_ms=5.0
        )
    scenario.timeline.extend(
        random_link_failures(
            topology,
            count=3,
            rng=random.Random(7),
            start_ms=minutes(25),
            spacing_ms=0.0,
            recovery_after_ms=minutes(20),
        )
    )
    simulation = BeaconingSimulation(topology, scenario)
    result = simulation.run()
    applied = {
        as_id: dict(service.revocations.applied_at)
        for as_id, service in result.services.items()
    }
    return result, applied


def _run_cross_storm(budget):
    """Two simultaneous failures whose floods collide at the middle AS.

    Links 1-2 and 4-5 of a six-AS line fail in the same tick, so AS 3
    receives one revocation from each side at the same arrival tick —
    with ``budget_per_tick=1`` one of them *must* queue behind the other
    even though revocations preempt PCBs.
    """
    topology = line_topology(6)
    scenario = don_scenario(periods=8, verify_signatures=False)
    if budget is not None:
        scenario.inbox_profile = InboxProfile(
            budget_per_tick=budget, service_interval_ms=5.0
        )
    link_a, link_b = topology.link_ids()[0], topology.link_ids()[3]
    scenario.timeline.add(minutes(25), LinkFailure(link_a)).add(minutes(25), LinkFailure(link_b))
    scenario.timeline.add(minutes(45), LinkRecovery(link_a)).add(minutes(45), LinkRecovery(link_b))
    simulation = BeaconingSimulation(topology, scenario)
    result = simulation.run()
    applied = {
        as_id: dict(service.revocations.applied_at)
        for as_id, service in result.services.items()
    }
    return result, applied


class TestRevocationStorm:
    def test_storm_defers_withdrawals_load_dependently(self):
        unlimited, applied_unlimited = _run_cross_storm(None)
        squeezed, applied_squeezed = _run_cross_storm(1)
        relaxed, applied_relaxed = _run_cross_storm(4)

        assert unlimited.collector.inbox_deferred_total() == 0
        assert squeezed.collector.inbox_deferred_total() > 0

        def total_delay(applied):
            """Sum of withdrawal delays over keys every run observed."""
            delay = 0.0
            for as_id, baseline in applied_unlimited.items():
                for key, at_ms in baseline.items():
                    if key in applied[as_id]:
                        delay += applied[as_id][key] - at_ms
            return delay

        # Queueing never makes a withdrawal *earlier* than the unlimited
        # run, and strictly delays at least one; quadrupling the service
        # budget strictly reduces the total queueing delay.
        for as_id, baseline in applied_unlimited.items():
            for key, at_ms in baseline.items():
                if key in applied_squeezed[as_id]:
                    assert applied_squeezed[as_id][key] >= at_ms
        assert total_delay(applied_squeezed) > total_delay(applied_relaxed) >= 0.0

    def test_storm_surfaces_queue_metrics(self):
        squeezed, _applied = _run_storm(1)
        collector = squeezed.collector
        stats = collector.queue_delay_stats()
        assert stats["count"] > 0
        assert stats["p99"] >= stats["p50"] > 0.0
        assert max(collector.queue_high_water_marks().values()) > 1
        assert any(
            "overload" in line for line in squeezed.convergence.trace_text().splitlines()
        )

    def test_storm_aggregates_same_tick_failures(self):
        """Satellite: simultaneous failures batch into one message per origin."""
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        link_a, link_b = topology.link_ids()[0], topology.link_ids()[1]
        scenario.timeline.add(minutes(15), LinkFailure(link_a))
        scenario.timeline.add(minutes(15), LinkFailure(link_b))
        simulation = BeaconingSimulation(topology, scenario)

        captured = []
        original = simulation.services[2].originate_revocation

        def spy(**kwargs):
            captured.append(kwargs)
            return original(**kwargs)

        simulation.services[2].originate_revocation = spy
        result = simulation.run()

        # AS 2 borders both failed links yet originated a single batched
        # revocation naming them both.
        assert len(captured) == 1
        assert set(captured[0]["failed_links"]) == {link_a, link_b}
        assert result.services[2].revocations.originated == 1
        assert result.services[1].revocations.originated == 1
        assert result.services[3].revocations.originated == 1


class TestBeaconFloodDoS:
    def test_flood_inflates_traffic_and_overflows_bounded_inbox(self):
        def run(flood, profile):
            topology = line_topology(4)
            scenario = don_scenario(periods=6, verify_signatures=False)
            if profile is not None:
                scenario.inbox_profiles = {2: profile}
            if flood:
                scenario.timeline.add(minutes(12), BeaconFlood(attacker_as=1, bursts=8))
            return BeaconingSimulation(topology, scenario).run()

        quiet = run(flood=False, profile=None)
        flooded = run(flood=True, profile=None)
        assert flooded.collector.total_sent > quiet.collector.total_sent

        bounded = run(flood=True, profile=InboxProfile(capacity=4))
        assert bounded.collector.inbox_dropped["pcb"] > 0

    def test_flood_from_offline_attacker_is_inert(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        scenario.timeline.add(minutes(12), ASLeave(1))
        scenario.timeline.add(minutes(15), BeaconFlood(attacker_as=1, bursts=8))
        result = BeaconingSimulation(topology, scenario).run()
        assert result.collector.inbox_dropped_total() == 0


class TestSlowAsStragglers:
    def test_straggler_defers_then_catches_up(self):
        topology = line_topology(4)
        scenario = don_scenario(periods=8, verify_signatures=False)
        scenario.timeline.add(minutes(12), ServiceRateChange(budget_per_tick=1, as_ids=(3,)))
        scenario.timeline.add(minutes(32), ServiceRateChange(budget_per_tick=None, as_ids=(3,)))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        collector = result.collector
        assert collector.inbox_deferred_total() > 0
        assert collector.queue_high_water(3) > 1
        # The budget was restored mid-run: the backlog fully drained and
        # the straggler still converged on a beacon database.
        assert simulation.transport.pending_messages(3) == 0
        assert len(result.services[3].ingress.database) > 0


# ----------------------------------------------------------------------
# satellite: negative caching of revoked elements
# ----------------------------------------------------------------------
class TestNegativeCache:
    def test_beacon_over_revoked_link_bounces_revocation(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        revoked = topology.link_ids()[0]  # the 1-2 link
        # AS 2 revokes its 1-2 link; the flood reaches AS 3 and populates
        # its negative cache.
        services[2].originate_revocation(now_ms=0.0, failed_links=(revoked,))
        scheduler.run_until(20.0)
        assert revoked in services[3].revocations.revoked_links
        duplicates_before = services[2].revocations.duplicates

        # A stale beacon crossing the revoked link arrives at AS 3.
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))
        scheduler.run_until(60.0)
        # AS 3 refused it and bounced the cached revocation to the sender,
        # which deduplicates it (it already processed that revocation).
        assert services[3].revocations.reoriginated == 1
        assert len(services[3].ingress.database) == 0
        assert services[2].revocations.duplicates > duplicates_before

    def test_cache_cleared_on_recovery_admits_beacons(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        revoked = topology.link_ids()[0]
        services[2].originate_revocation(now_ms=0.0, failed_links=(revoked,))
        scheduler.run_until(20.0)
        assert revoked in services[3].revocations.revoked_links

        # The element recovered (the driver clears caches network-wide).
        services[3].revocations.clear_revoked_link(revoked)
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))
        scheduler.run_until(60.0)
        assert services[3].revocations.reoriginated == 0
        assert len(services[3].ingress.database) == 1


# ----------------------------------------------------------------------
# satellite: timeline / profile validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_service_rate_change_rejects_non_positive_budget(self):
        with pytest.raises(ConfigurationError):
            ServiceRateChange(budget_per_tick=0)
        with pytest.raises(ConfigurationError):
            ServiceRateChange(budget_per_tick=-3)

    def test_timeline_rejects_unknown_service_rate_target(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2)
        scenario.timeline.add(minutes(5), ServiceRateChange(1, as_ids=(99,)))
        with pytest.raises(ConfigurationError, match="unknown AS"):
            scenario.timeline.validate(topology)
        scenario.timeline.validate()  # no topology: membership unchecked

    def test_timeline_rejects_unknown_flood_attacker(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2)
        scenario.timeline.add(minutes(5), BeaconFlood(attacker_as=42))
        with pytest.raises(ConfigurationError):
            scenario.timeline.validate(topology)

    def test_flood_rejects_non_positive_bursts(self):
        with pytest.raises(ConfigurationError):
            BeaconFlood(attacker_as=1, bursts=0)

    def test_profile_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            InboxProfile(budget_per_tick=0)
        with pytest.raises(ConfigurationError):
            InboxProfile(capacity=0)
        with pytest.raises(ConfigurationError):
            InboxProfile(overflow_policy="reject")
        with pytest.raises(ConfigurationError):
            InboxProfile(service_interval_ms=0.0)

    def test_simulation_rejects_unknown_inbox_profile_target(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2)
        scenario.inbox_profiles = {99: InboxProfile(budget_per_tick=1)}
        with pytest.raises(ConfigurationError, match="unknown AS"):
            BeaconingSimulation(topology, scenario)


# ----------------------------------------------------------------------
# PR 10 satellite: per-kind budget-cost weights
# ----------------------------------------------------------------------
class TestKindCosts:
    """``InboxProfile.kind_costs`` weights the service budget per kind."""

    def test_all_one_costs_bit_identical_to_unweighted(self):
        """An explicit all-1 table is the exact unweighted budget path."""
        unweighted = InboxProfile(budget_per_tick=2, service_interval_ms=5.0)
        weighted = InboxProfile(
            budget_per_tick=2,
            service_interval_ms=5.0,
            kind_costs={"revocation": 1, "pcb": 1, "path_registration": 1},
        )
        assert _run_dynamic(unweighted, 1, 20, True) == _run_dynamic(
            weighted, 1, 20, True
        )

    def test_default_none_costs_keep_golden_digest(self):
        assert _golden_digest(InboxProfile(kind_costs=None)) == GOLDEN_DIGEST

    def test_expensive_kind_fits_fewer_per_round(self, key_store):
        """Cost-5 revocations against budget 5: one serviced per round,
        where the unweighted budget would take all three at once."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(
                    budget_per_tick=5,
                    service_interval_ms=5.0,
                    kind_costs={"revocation": 5},
                )
            },
        )
        for sequence in (1, 2, 3):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        assert services[2].revocations.applied_at == {
            (1, 1): 11.0, (1, 2): 16.0, (1, 3): 21.0
        }
        assert transport.collector.inbox_deferred["revocation"] == 2

    def test_progress_guarantee_when_cost_exceeds_budget(self, key_store):
        """A message dearer than the whole budget still gets serviced —
        one per round — instead of deadlocking the queue."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(
                    budget_per_tick=2,
                    service_interval_ms=5.0,
                    kind_costs={"revocation": 10},
                )
            },
        )
        for sequence in (1, 2):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        assert services[2].revocations.applied_at == {(1, 1): 11.0, (1, 2): 16.0}

    def test_priority_order_survives_weighting(self, key_store):
        """Revocations still preempt queued PCBs under weighted costs; an
        expensive PCB defers to the next round."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(
                    budget_per_tick=2,
                    service_interval_ms=5.0,
                    kind_costs={"pcb": 2},
                )
            },
        )
        beacon = make_beacon(key_store, [(1, None, 2)])
        transport.send_message(1, 2, pcb_message(1, beacon))  # arrives first ...
        transport.send_message(1, 2, _revocation(topology, 1))  # ... same tick
        scheduler.run_until(11.0)
        # Revocation (cost 1) serviced at arrival; the cost-2 PCB would
        # overflow the round's remaining budget and waits.
        assert services[2].revocations.applied_at == {(1, 1): 11.0}
        assert len(services[2].ingress.database) == 0
        scheduler.run_until(16.0)
        assert len(services[2].ingress.database) == 1
        assert transport.collector.inbox_deferred["pcb"] == 1

    def test_unknown_kinds_cost_one_unit(self, key_store):
        """Kinds absent from the table keep the implicit cost of 1."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(
                    budget_per_tick=3,
                    service_interval_ms=5.0,
                    kind_costs={"path_query": 3},
                )
            },
        )
        for sequence in (1, 2, 3):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(11.0)
        # Revocations are not in the table: three cost-1 messages fit the
        # budget-3 round exactly.
        assert len(services[2].revocations.applied_at) == 3

    def test_profile_rejects_bad_costs(self):
        with pytest.raises(ConfigurationError):
            InboxProfile(kind_costs={"revocation": 0})
        with pytest.raises(ConfigurationError):
            InboxProfile(kind_costs={"revocation": -3})
        with pytest.raises(ConfigurationError):
            InboxProfile(kind_costs={"revocation": 1.5})

    def test_profile_freezes_cost_table(self):
        costs = {"revocation": 2}
        profile = InboxProfile(budget_per_tick=2, kind_costs=costs)
        costs["revocation"] = 99
        assert profile.kind_costs["revocation"] == 2

    def test_hot_swap_budget_preserves_cost_table(self, key_store):
        """``set_inbox_budget`` keeps the kind-cost table of the profile."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(
            topology,
            key_store,
            inbox_profiles={
                2: InboxProfile(
                    budget_per_tick=5,
                    service_interval_ms=5.0,
                    kind_costs={"revocation": 5},
                )
            },
        )
        transport.set_inbox_budget(2, 5)
        for sequence in (1, 2):
            transport.send_message(1, 2, _revocation(topology, sequence))
        scheduler.run_until(100.0)
        # Still one cost-5 revocation per round after the budget swap.
        assert services[2].revocations.applied_at == {(1, 1): 11.0, (1, 2): 16.0}


# ----------------------------------------------------------------------
# bounded queue-delay reservoir
# ----------------------------------------------------------------------

class TestQuantileReservoir:
    def test_exact_until_capacity(self):
        reservoir = QuantileReservoir(capacity=64)
        values = [float(i) for i in range(50)]
        for value in values:
            reservoir.observe(value)
        stats = reservoir.stats()
        assert stats["count"] == 50
        assert stats["mean"] == pytest.approx(sum(values) / 50)
        assert stats["max"] == 49.0
        ordered = sorted(values)
        assert stats["p50"] == ordered[int(0.50 * 50)]
        assert stats["p99"] == ordered[min(49, int(0.99 * 50))]

    def test_bounded_memory_and_quantile_tolerance_100k(self):
        """100k observations, fixed memory, p50/p99 within tolerance of
        the exact stream quantiles."""
        rng = random.Random(99)
        stream = [rng.expovariate(1.0 / 40.0) for _ in range(100_000)]
        reservoir = QuantileReservoir(capacity=4096, seed=0)
        for value in stream:
            reservoir.observe(value)
        assert reservoir.sample_size == 4096  # bounded, not 100k
        stats = reservoir.stats()
        assert stats["count"] == 100_000
        assert stats["mean"] == pytest.approx(sum(stream) / len(stream))
        assert stats["max"] == max(stream)
        ordered = sorted(stream)
        exact_p50 = ordered[int(0.50 * len(ordered))]
        exact_p99 = ordered[int(0.99 * len(ordered))]
        assert stats["p50"] == pytest.approx(exact_p50, rel=0.10)
        assert stats["p99"] == pytest.approx(exact_p99, rel=0.10)

    def test_deterministic_for_fixed_seed(self):
        def fill():
            reservoir = QuantileReservoir(capacity=16, seed=3)
            for index in range(1000):
                reservoir.observe(float(index % 97))
            return reservoir.stats()

        assert fill() == fill()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            QuantileReservoir(capacity=0)


class TestCollectorQueueDelays:
    def test_100k_delays_stay_bounded_with_stable_stats(self):
        collector = MetricsCollector()
        for index in range(100_000):
            collector.record_queue_delay(float(index % 500))
        assert collector._queue_delays.sample_size <= 4096
        stats = collector.queue_delay_stats()
        assert stats["count"] == 100_000
        assert stats["max"] == 499.0
        assert stats["mean"] == pytest.approx(249.5, rel=0.01)
        # The stream is uniform over [0, 500); the sampled percentiles
        # must land near the exact ones.
        assert stats["p50"] == pytest.approx(250.0, rel=0.10)
        assert stats["p99"] == pytest.approx(495.0, rel=0.05)

    def test_short_stream_is_bit_identical_to_unbounded_impl(self):
        """Below the reservoir capacity the stats match a
        sort-everything implementation exactly (golden-trace safety)."""
        delays = [3.5, 1.0, 99.0, 42.0, 17.25, 0.5, 63.0]
        collector = MetricsCollector()
        for delay in delays:
            collector.record_queue_delay(delay)
        ordered = sorted(delays)
        count = len(ordered)
        expected = {
            "count": count,
            "mean": sum(ordered) / count,
            "max": ordered[-1],
            "p50": ordered[min(count - 1, int(0.50 * count))],
            "p99": ordered[min(count - 1, int(0.99 * count))],
        }
        assert collector.queue_delay_stats() == expected

    def test_reset_clears_reservoir(self):
        collector = MetricsCollector()
        collector.record_queue_delay(5.0)
        collector.reset()
        assert collector.queue_delay_stats()["count"] == 0

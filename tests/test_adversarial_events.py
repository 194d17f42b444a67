"""Tests of the adversarial & gray-failure event family (PR 7).

Covers timeline validation of the new events (unknown targets, malformed
flap schedules), the behavioural contracts of each family — gray failures
stay invisible to the control plane, flaps produce loud failure/recovery
cycles plus directional loss, forged and replayed revocations never
withdraw a path, suppressors swallow floods, topology growth brings a
live newcomer — and the driver-level scheduling checks.
"""

import random

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import (
    ASJoin,
    ASLeave,
    ForwardingSuppression,
    GrayFailure,
    GrayRecovery,
    LinkFailure,
    LinkFlap,
    RevocationForgery,
    RevocationReplay,
    ScenarioTimeline,
    TopologyGrowth,
    byzantine_attack,
    flapping_links,
    growth_churn,
)
from repro.simulation.failures import LinkState
from repro.simulation.scenario import don_scenario
from repro.units import minutes

from tests.conftest import line_topology


def _link(topology, index):
    return topology.link_ids()[index]


def _run(topology, scenario, pairs=()):
    simulation = BeaconingSimulation(topology, scenario)
    for source, destination in pairs:
        simulation.watch_pair(source, destination)
    return simulation.run()


def _aggregate(result, counter):
    return sum(getattr(s.revocations, counter) for s in result.services.values())


class TestEventConstruction:
    def test_flap_schedule_must_be_strictly_increasing(self):
        link = ((1, 1), (2, 1))
        with pytest.raises(ConfigurationError):
            LinkFlap(link_id=link, schedule=(100.0, 100.0))
        with pytest.raises(ConfigurationError):
            LinkFlap(link_id=link, schedule=(200.0, 100.0))

    def test_flap_schedule_rejects_negative_offsets(self):
        with pytest.raises(ConfigurationError):
            LinkFlap(link_id=((1, 1), (2, 1)), schedule=(-1.0, 100.0))

    def test_flap_needs_a_schedule(self):
        with pytest.raises(ConfigurationError):
            LinkFlap(link_id=((1, 1), (2, 1)), schedule=(), loss_ab=0.2)

    def test_flap_ends_down_reflects_schedule_parity(self):
        link = ((1, 1), (2, 1))
        assert LinkFlap(link_id=link, schedule=(0.0,)).ends_down
        assert not LinkFlap(link_id=link, schedule=(0.0, 10.0)).ends_down

    def test_gray_failure_rejects_out_of_range_rate(self):
        link = ((1, 1), (2, 1))
        with pytest.raises(ConfigurationError):
            GrayFailure(link_id=link, drop_rate=0.0)
        with pytest.raises(ConfigurationError):
            GrayFailure(link_id=link, drop_rate=1.5)

    def test_growth_rejects_self_attachment_and_empty_attach(self):
        with pytest.raises(ConfigurationError):
            TopologyGrowth(new_as=9, attach_to=())
        with pytest.raises(ConfigurationError):
            TopologyGrowth(new_as=9, attach_to=(9,))
        with pytest.raises(ConfigurationError):
            TopologyGrowth(new_as=9, attach_to=(1, 1))

    def test_forgery_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RevocationForgery(
                attacker_as=1, claimed_origin=2, link_id=((2, 1), (3, 1)), count=0
            )


class TestTimelineValidation:
    """Satellite: ``validate(topology)`` rejects unknown adversarial targets."""

    def test_flap_of_unknown_link_rejected(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=2)
        scenario.timeline.add(minutes(5), LinkFlap(((8, 1), (9, 1)), schedule=(0.0, 10.0)))
        with pytest.raises(ConfigurationError):
            scenario.timeline.validate(topology)

    def test_gray_failure_of_unknown_link_rejected(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), GrayFailure(((8, 1), (9, 1))))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)

    def test_gray_recovery_needs_earlier_gray_failure(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), GrayRecovery(_link(topology, 0)))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)
        fixed = ScenarioTimeline()
        fixed.add(minutes(2), GrayFailure(_link(topology, 0)))
        fixed.add(minutes(5), GrayRecovery(_link(topology, 0)))
        fixed.validate(topology)

    def test_forgery_from_unknown_attacker_rejected(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), RevocationForgery(
            attacker_as=99, claimed_origin=1, link_id=_link(topology, 0)
        ))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)

    def test_replay_and_suppression_targets_must_exist(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), RevocationReplay(attacker_as=99))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), ForwardingSuppression((2, 99)))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)

    def test_growth_of_existing_as_rejected(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), TopologyGrowth(2, attach_to=(1,)))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)

    def test_growth_attached_to_unknown_as_rejected(self):
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), TopologyGrowth(9, attach_to=(42,)))
        with pytest.raises(ConfigurationError):
            timeline.validate(topology)

    def test_grown_as_is_valid_target_for_later_events(self):
        """Events may target an AS that earlier growth introduces."""
        topology = line_topology(3)
        timeline = ScenarioTimeline()
        timeline.add(minutes(5), TopologyGrowth(9, attach_to=(2, 3)))
        timeline.add(minutes(10), ForwardingSuppression((9,)))
        timeline.validate(topology)


class TestGrayFailureBehaviour:
    def test_gray_drops_are_silent(self):
        """Messages vanish, yet no revocation originates and paths linger."""
        topology = line_topology(4)
        scenario = don_scenario(periods=4)
        scenario.loss_seed = 5
        link = _link(topology, 1)  # the 2-3 link
        scenario.timeline.add(minutes(15), GrayFailure(link, drop_rate=1.0))

        result = _run(topology, scenario, pairs=[(4, 1)])

        assert result.collector.gray_dropped_total() > 0
        assert result.collector.total_revocations == 0
        assert _aggregate(result, "originated") == 0
        # The control plane still believes the link is up ...
        assert result.link_state.link_available(link)
        assert not result.convergence.records
        # ... and the stale paths crossing it are still registered.
        assert any(
            link in path.segment.links()
            for path in result.service(4).path_service.all_paths()
        )

    def test_gray_recovery_restores_delivery(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=4)
        scenario.loss_seed = 5
        link = _link(topology, 0)
        scenario.timeline.add(minutes(12), GrayFailure(link, drop_rate=1.0))
        scenario.timeline.add(minutes(18), GrayRecovery(link))

        result = _run(topology, scenario)

        assert result.collector.gray_dropped_total() > 0
        assert not result.link_state.gray_links  # cleared by the recovery
        assert result.link_state.drop_probability(link, link[0][0]) == 0.0

    def test_partial_drop_rate_is_seeded(self):
        """Same loss seed ⇒ identical gray-drop counts; the dice are owned."""
        counts = []
        for _attempt in range(2):
            topology = line_topology(3)
            scenario = don_scenario(periods=4)
            scenario.loss_seed = 77
            scenario.timeline.add(minutes(12), GrayFailure(_link(topology, 0), drop_rate=0.5))
            result = _run(topology, scenario)
            counts.append(result.collector.gray_dropped_total())
        assert counts[0] == counts[1]
        assert counts[0] > 0


class TestLinkFlapBehaviour:
    def test_flap_produces_loud_failure_and_recovery(self):
        """Each down toggle floods revocations; the link ends up again."""
        topology = line_topology(4)
        scenario = don_scenario(periods=5)
        link = _link(topology, 1)
        scenario.timeline.add(minutes(15), LinkFlap(
            link, schedule=(0.0, minutes(5), minutes(10), minutes(15))
        ))

        result = _run(topology, scenario, pairs=[(4, 1)])

        assert result.collector.total_revocations > 0
        assert result.link_state.is_link_up(link)
        assert not result.link_state.failed_links

    def test_flap_loss_rates_are_cleared_after_schedule(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=5)
        scenario.loss_seed = 3
        link = _link(topology, 0)
        # Up during [17, 23] min with loss active: the period boundary at
        # minute 20 sends PCBs into the loss dice.
        scenario.timeline.add(minutes(15), LinkFlap(
            link, schedule=(0.0, minutes(2), minutes(8), minutes(10)),
            loss_ab=1.0, loss_ba=1.0,
        ))

        result = _run(topology, scenario)

        assert result.collector.gray_dropped_total() > 0  # loss dice fired
        assert not result.link_state.link_loss  # cleared at schedule end

    def test_flapping_links_generator_is_topology_validated(self):
        topology = line_topology(4)
        events = flapping_links(
            topology, count=2, rng=random.Random(9), start_ms=minutes(5)
        )
        timeline = ScenarioTimeline().extend(events)
        timeline.validate(topology)  # all generated targets are real links


class TestByzantineRevocations:
    def test_forged_revocations_never_withdraw_a_path(self):
        """Counter-pinned acceptance: every forged copy dies rejected_invalid."""
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=True)
        scenario.timeline.add(minutes(15), RevocationForgery(
            attacker_as=4, claimed_origin=1, link_id=_link(topology, 0), count=2
        ))

        result = _run(topology, scenario, pairs=[(4, 1)])

        received = _aggregate(result, "received")
        assert received > 0
        assert _aggregate(result, "rejected_invalid") == received
        # No withdrawal anywhere: the forgery applied at no AS.
        for service in result.services.values():
            assert service.revocations.applied_at == {}
        # The victim pair's registered paths survived untouched.
        assert result.service(4).path_service.paths_to(1)
        assert not result.convergence.records

    def test_forgery_succeeds_when_verification_is_disabled(self):
        """The scenario knob: what signature checking actually buys."""
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        scenario.timeline.add(minutes(15), RevocationForgery(
            attacker_as=4, claimed_origin=1, link_id=_link(topology, 0), count=1
        ))

        result = _run(topology, scenario)

        assert _aggregate(result, "rejected_invalid") == 0
        assert any(
            service.revocations.applied_at for service in result.services.values()
        )

    def test_replayed_revocations_die_as_duplicates(self):
        topology = line_topology(4)
        link = _link(topology, 0)

        def run(replays):
            scenario = don_scenario(periods=5, verify_signatures=True)
            scenario.timeline.add(minutes(15), LinkFailure(link))
            if replays:
                scenario.timeline.add(minutes(16), RevocationReplay(
                    attacker_as=4, count=replays
                ))
            return _run(line_topology(4), scenario)

        baseline = run(replays=0)
        attacked = run(replays=2)
        assert _aggregate(attacked, "duplicates") > _aggregate(baseline, "duplicates")
        # The replay re-applied nothing: the same withdrawals as baseline.
        assert sum(
            len(s.revocations.applied_at) for s in attacked.services.values()
        ) == sum(len(s.revocations.applied_at) for s in baseline.services.values())

    def test_suppressor_swallows_the_flood(self):
        """ASes behind a suppressor never hear about the failure."""
        topology = line_topology(5)
        scenario = don_scenario(periods=5)
        scenario.timeline.add(minutes(5), ForwardingSuppression((3,)))
        scenario.timeline.add(minutes(15), LinkFailure(_link(topology, 0)))  # the 1-2 link

        result = _run(topology, scenario)

        suppressor = result.service(3).revocations
        assert suppressor.applied_at  # still applies what it receives ...
        assert suppressor.forwarded == 0  # ... but re-forwards nothing
        assert result.service(4).revocations.received == 0
        assert result.service(5).revocations.received == 0

    def test_byzantine_attack_generator_requires_some_behaviour(self):
        with pytest.raises(ConfigurationError):
            byzantine_attack(
                attacker_as=1,
                claimed_origin=2,
                link_id=((2, 1), (3, 1)),
                at_ms=minutes(5),
                forgeries=0,
                replays=0,
                suppress=False,
            )


class TestTopologyGrowth:
    def test_grown_as_becomes_a_live_participant(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=5)
        scenario.timeline.add(minutes(15), TopologyGrowth(9, attach_to=(2, 3)))

        result = _run(topology, scenario, pairs=[(3, 1)])

        assert 9 in result.topology
        assert 9 in result.services
        # Both customer-provider attachment links exist and are live.
        grown_links = [
            link
            for link in result.topology.link_ids()
            if 9 in (link[0][0], link[1][0])
        ]
        assert len(grown_links) == 2
        # The newcomer originates beacons / registers paths after joining.
        assert result.service(9).path_service.all_paths()

    def test_neighbors_learn_the_new_interface(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=5)
        scenario.timeline.add(minutes(15), TopologyGrowth(9, attach_to=(2,)))

        result = _run(topology, scenario)

        neighbor = result.service(2)
        new_link = next(
            link
            for link in result.topology.link_ids()
            if 9 in (link[0][0], link[1][0])
        )
        endpoint_a, endpoint_b = new_link
        neighbor_as, neighbor_if = endpoint_a if endpoint_a[0] == 2 else endpoint_b
        assert neighbor_as == 2
        assert neighbor.view.link_of(neighbor_if) is result.topology.links[new_link]

    @pytest.mark.parametrize("legacy_ases", [(), (3,)])
    def test_attachment_as_originates_on_the_grown_link(self, legacy_ases):
        """AS 3 originates over its link to the newcomer too, so AS 6 holds
        the direct path (3, 6), not only the detour through AS 5."""
        topology = line_topology(5)
        scenario = don_scenario(periods=5)
        scenario.legacy_ases = legacy_ases
        scenario.timeline.add(minutes(15), TopologyGrowth(6, attach_to=(3, 5)))

        result = _run(topology, scenario)

        as_paths = {p.segment.as_path() for p in result.service(6).path_service.paths_to(3)}
        assert (3, 6) in as_paths
        assert (3, 4, 5, 6) in as_paths

    def test_events_aimed_at_a_grown_as_apply(self):
        """Suppression, departure and return of an AS grown earlier in the
        timeline act on the newcomer's own service."""
        topology = line_topology(5)
        scenario = don_scenario(periods=8, verify_signatures=False)
        scenario.timeline.add(minutes(15), TopologyGrowth(6, attach_to=(3, 5)))
        scenario.timeline.add(minutes(25), ForwardingSuppression((6,)))
        scenario.timeline.add(minutes(45), ASLeave(6))
        scenario.timeline.add(minutes(55), ASJoin(6))

        result = _run(topology, scenario, pairs=[(5, 1), (3, 1)])

        trace = result.convergence.trace_text()
        assert "suppress_forwarding on @ 6" in trace
        assert "as_leave 6" in trace and "as_join 6" in trace
        assert result.service(6).revocations.suppress_forwarding
        assert result.link_state.is_as_up(6)
        # The newcomer's neighbours revoked it when it left.
        assert result.collector.total_revocations > 0

    def test_growth_churn_generator_allocates_fresh_ids(self):
        topology = line_topology(4)
        events = growth_churn(
            topology,
            count=2,
            rng=random.Random(3),
            start_ms=minutes(5),
            spacing_ms=minutes(5),
        )
        new_ids = [timed.event.new_as for timed in events]
        assert new_ids == [5, 6]  # continue past the current maximum
        ScenarioTimeline().extend(events).validate(topology)

    def test_driver_rejects_byzantine_target_missing_from_topology(self):
        """The driver's own scheduling check mirrors timeline validation."""
        topology = line_topology(3)
        scenario = don_scenario(periods=2)
        scenario.timeline.add(minutes(5), RevocationReplay(attacker_as=77))
        with pytest.raises((ConfigurationError, SimulationError)):
            BeaconingSimulation(topology, scenario).run()


class TestLinkStateDegradation:
    def test_drop_probability_composes_gray_and_directional_loss(self):
        state = LinkState()
        link = ((1, 1), (2, 1))
        state.set_gray(link, 0.5)
        state.set_link_loss(link, toward_as=2, rate=0.5)
        assert state.drop_probability(link, 2) == pytest.approx(0.75)
        assert state.drop_probability(link, 1) == pytest.approx(0.5)
        assert state.silent_loss(link) == pytest.approx(0.75)

    def test_degradation_is_invisible_to_availability(self):
        state = LinkState()
        link = ((1, 1), (2, 1))
        state.set_gray(link, 1.0)
        assert state.degraded()
        assert not state.impaired()
        assert state.link_available(link)
        assert state.path_available([link])

    def test_zero_rate_clears_directional_loss(self):
        state = LinkState()
        link = ((1, 1), (2, 1))
        state.set_link_loss(link, toward_as=2, rate=0.3)
        state.set_link_loss(link, toward_as=2, rate=0.0)
        assert not state.degraded()

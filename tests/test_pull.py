"""Tests for the pull-based disjointness orchestrator."""

import pytest

from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.pull import PullBasedDisjointnessOrchestrator, PullState
from repro.exceptions import ConfigurationError
from repro.topology.entities import Relationship

from tests.conftest import build_services, build_topology


def diamond_topology():
    """Origin AS 1 and target AS 4 connected by two link-disjoint paths."""
    loc = (47.0, 8.0)
    interfaces = {
        1: {1: loc, 2: loc},
        2: {1: loc, 2: loc},
        3: {1: loc, 2: loc},
        4: {1: loc, 2: loc},
    }
    links = [
        ((1, 1), (2, 1), 5.0, 100.0, Relationship.PEER),
        ((2, 2), (4, 1), 5.0, 100.0, Relationship.PEER),
        ((1, 2), (3, 1), 5.0, 100.0, Relationship.PEER),
        ((3, 2), (4, 2), 5.0, 100.0, Relationship.PEER),
    ]
    return build_topology(interfaces, links)


@pytest.fixture
def fabric(key_store):
    """The diamond on the fabric: a 1SP and an on-demand RAC at every AS."""
    scheduler, _transport, services = build_services(
        diamond_topology(),
        key_store,
        verify_signatures=True,
        racs={"1sp": lambda: KShortestPathAlgorithm(k=1)},
    )
    for service in services.values():
        service.add_on_demand_rac(rac_id="on-demand")
    return scheduler, services


def run_rounds(scheduler, services, rounds, start_ms=0.0):
    """Run RAC rounds 1 s apart, each after delivering what is in flight,
    then deliver what they sent up to the next round's start."""
    for index in range(rounds):
        now = start_ms + index * 1000.0
        scheduler.run_until(now)
        for service in services.values():
            service.run_round(now_ms=now)
    scheduler.run_until(start_ms + rounds * 1000.0)


class TestPullOrchestrator:
    def test_validation(self, fabric):
        _scheduler, services = fabric
        with pytest.raises(ConfigurationError):
            PullBasedDisjointnessOrchestrator(service=services[1], target_as=1)
        with pytest.raises(ConfigurationError):
            PullBasedDisjointnessOrchestrator(service=services[1], target_as=4, desired_paths=0)

    def test_collects_link_disjoint_paths(self, fabric):
        scheduler, services = fabric
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        assert orchestrator.state is PullState.WAITING
        for round_index in range(6):
            run_rounds(scheduler, services, rounds=1, start_ms=round_index * 1000.0)
            orchestrator.advance(now_ms=(round_index + 1) * 1000.0)
            if orchestrator.state is PullState.DONE:
                break
        assert orchestrator.state is PullState.DONE
        assert orchestrator.disjoint_path_count() == 2
        # The two collected paths must not share any inter-domain link.
        first, second = orchestrator.collected
        assert set(first.links()).isdisjoint(set(second.links()))

    def test_seed_paths_count_towards_goal(self, fabric):
        scheduler, services = fabric
        # Discover a seed path with a tiny pull run first.
        seeder = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=1
        )
        seeder.start(now_ms=0.0)
        # The beacon reaches AS 2 after round 0; AS 2 forwards it in
        # round 1, AS 4 terminates and returns it in round 2.
        run_rounds(scheduler, services, rounds=3)
        seeder.advance(now_ms=3000.0)
        assert seeder.state is PullState.DONE
        seed = seeder.collected

        satisfied = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=1, seed_paths=seed
        )
        satisfied.start(now_ms=4000.0)
        assert satisfied.state is PullState.DONE
        assert satisfied.disjoint_path_count() == 1

    def test_each_iteration_publishes_new_algorithm(self, fabric):
        scheduler, services = fabric
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        for round_index in range(6):
            run_rounds(scheduler, services, rounds=1, start_ms=round_index * 1000.0)
            orchestrator.advance(now_ms=(round_index + 1) * 1000.0)
            if orchestrator.state is PullState.DONE:
                break
        published = services[1].repository.published_ids()
        assert len(published) == len(orchestrator.iterations)
        # Later iterations carry strictly larger avoid sets.
        sizes = [len(iteration.avoid_links) for iteration in orchestrator.iterations]
        assert sizes == sorted(sizes)

    def test_abort_iteration_starts_a_new_one(self, fabric):
        _scheduler, services = fabric
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        orchestrator.abort_iteration(now_ms=1.0)
        assert len(orchestrator.iterations) == 2

    def test_advance_without_results_keeps_waiting(self, fabric):
        _scheduler, services = fabric
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        assert orchestrator.advance(now_ms=1.0) is PullState.WAITING

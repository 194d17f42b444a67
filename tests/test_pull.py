"""Tests for the pull-based disjointness orchestrator."""

import pytest

from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.control_service import IrecControlService
from repro.core.local_view import LocalTopologyView
from repro.core.pull import PullBasedDisjointnessOrchestrator, PullState
from repro.core.transport import LoopbackTransport
from repro.exceptions import ConfigurationError
from repro.topology.entities import Relationship

from tests.conftest import build_topology


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


def build_pull_deployment(key_store):
    topology = diamond_topology()
    transport = LoopbackTransport(topology=topology)
    services = {}
    for as_info in topology:
        view = LocalTopologyView.from_topology(topology, as_info.as_id)
        service = IrecControlService(view=view, key_store=key_store, transport=transport)
        service.add_static_rac(rac_id="1sp", algorithm=KShortestPathAlgorithm(k=1))
        service.add_on_demand_rac(rac_id="on-demand")
        services[as_info.as_id] = service
        transport.register(service)
    return topology, services


def run_rounds(services, rounds, start_ms=0.0):
    for index in range(rounds):
        now = start_ms + index * 1000.0
        for service in services.values():
            service.run_round(now_ms=now)


class TestPullOrchestrator:
    def test_validation(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        with pytest.raises(ConfigurationError):
            PullBasedDisjointnessOrchestrator(service=services[1], target_as=1)
        with pytest.raises(ConfigurationError):
            PullBasedDisjointnessOrchestrator(service=services[1], target_as=4, desired_paths=0)

    def test_collects_link_disjoint_paths(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        assert orchestrator.state is PullState.WAITING
        for round_index in range(6):
            run_rounds(services, rounds=1, start_ms=round_index * 1000.0)
            orchestrator.advance(now_ms=(round_index + 1) * 1000.0)
            if orchestrator.state is PullState.DONE:
                break
        assert orchestrator.state is PullState.DONE
        assert orchestrator.disjoint_path_count() == 2
        # The two collected paths must not share any inter-domain link.
        first, second = orchestrator.collected
        assert set(first.links()).isdisjoint(set(second.links()))

    def test_seed_paths_count_towards_goal(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        # Discover a seed path with a tiny pull run first.
        seeder = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=1
        )
        seeder.start(now_ms=0.0)
        run_rounds(services, rounds=2)
        seeder.advance(now_ms=2000.0)
        assert seeder.state is PullState.DONE
        seed = seeder.collected

        satisfied = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=1, seed_paths=seed
        )
        satisfied.start(now_ms=3000.0)
        assert satisfied.state is PullState.DONE
        assert satisfied.disjoint_path_count() == 1

    def test_each_iteration_publishes_new_algorithm(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        for round_index in range(6):
            run_rounds(services, rounds=1, start_ms=round_index * 1000.0)
            orchestrator.advance(now_ms=(round_index + 1) * 1000.0)
            if orchestrator.state is PullState.DONE:
                break
        published = services[1].repository.published_ids()
        assert len(published) == len(orchestrator.iterations)
        # Later iterations carry strictly larger avoid sets.
        sizes = [len(iteration.avoid_links) for iteration in orchestrator.iterations]
        assert sizes == sorted(sizes)

    def test_abort_iteration_starts_a_new_one(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        orchestrator.abort_iteration(now_ms=1.0)
        assert len(orchestrator.iterations) == 2

    def test_advance_without_results_keeps_waiting(self, key_store):
        _topology, services = build_pull_deployment(key_store)
        orchestrator = PullBasedDisjointnessOrchestrator(
            service=services[1], target_as=4, desired_paths=2
        )
        orchestrator.start(now_ms=0.0)
        assert orchestrator.advance(now_ms=1.0) is PullState.WAITING

"""Tests for link-failure injection."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.failures import LinkFailureInjector, minimum_failures_to_disconnect
from repro.simulation.scenario import disjointness_scenario
from repro.topology.generator import generate_topology, small_test_config


class TestLinkFailureInjection:
    @pytest.fixture(scope="class")
    def disjoint_run(self):
        topology = generate_topology(small_test_config())
        scenario = disjointness_scenario(periods=3, verify_signatures=False)
        return BeaconingSimulation(topology, scenario).run()

    def test_fail_unknown_link_rejected(self, disjoint_run):
        injector = LinkFailureInjector(topology=disjoint_run.topology)
        with pytest.raises(SimulationError):
            injector.fail_link(((999, 1), (998, 1)))
        with pytest.raises(SimulationError):
            injector.fail_random_links(-1)

    def test_random_failures_and_restore(self, disjoint_run):
        injector = LinkFailureInjector(topology=disjoint_run.topology)
        failed = injector.fail_random_links(3, rng=random.Random(1))
        assert len(failed) == 3
        assert injector.failed_links == set(failed)
        injector.restore_all()
        assert injector.failed_links == set()

    def test_surviving_paths_filtering(self, disjoint_run):
        topology = disjoint_run.topology
        as_ids = topology.as_ids()
        source, destination = as_ids[-1], as_ids[0]
        segments = [
            p.segment
            for p in disjoint_run.service(source).path_service.paths_to(destination)
        ]
        assert segments
        injector = LinkFailureInjector(topology=topology)
        # Fail the first link of the first path: that path must disappear
        # from the surviving set.
        victim_link = segments[0].links()[0]
        injector.fail_link(victim_link)
        surviving = injector.surviving_paths(segments)
        assert segments[0] not in surviving
        assert all(victim_link not in s.links() for s in surviving)

    def test_tlf_prediction_matches_failure_injection(self, disjoint_run):
        """Removing fewer links than the TLF never disconnects the pair."""
        topology = disjoint_run.topology
        as_ids = topology.as_ids()
        source, destination = as_ids[-1], as_ids[0]
        segments = [
            p.segment
            for p in disjoint_run.service(source).path_service.paths_to(destination)
            if "hd" in p.criteria_tags or "5sp" in p.criteria_tags
        ]
        assert segments
        tlf = minimum_failures_to_disconnect(segments, source, destination)
        assert tlf >= 1
        rng = random.Random(3)
        used_links = sorted({link for s in segments for link in s.links()})
        for _trial in range(5):
            injector = LinkFailureInjector(topology=topology)
            sample = rng.sample(used_links, k=min(tlf - 1, len(used_links))) if tlf > 1 else []
            for link in sample:
                injector.fail_link(link)
            assert injector.pair_still_connected(segments)

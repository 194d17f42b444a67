"""Tests for link failures on a :class:`LinkState` against registered paths."""

import random

import pytest

from repro.analysis.disjointness_eval import tolerable_link_failures
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.failures import LinkState
from repro.simulation.scenario import disjointness_scenario
from repro.topology.generator import generate_topology

from tests.conftest import small_test_config


class TestLinkFailures:
    @pytest.fixture(scope="class")
    def disjoint_run(self):
        topology = generate_topology(small_test_config())
        scenario = disjointness_scenario(periods=3, verify_signatures=False)
        return BeaconingSimulation(topology, scenario).run()

    def test_random_failures_and_restore(self, disjoint_run):
        state = LinkState()
        failed = random.Random(1).sample(sorted(disjoint_run.topology.links), k=3)
        for link in failed:
            state.fail_link(link)
        assert len(failed) == 3
        assert state.failed_links == set(failed)
        for link in failed:
            state.restore_link(link)
        assert state.failed_links == set()

    def test_surviving_paths_filtering(self, disjoint_run):
        topology = disjoint_run.topology
        as_ids = topology.as_ids()
        source, destination = as_ids[-1], as_ids[0]
        segments = [
            p.segment
            for p in disjoint_run.service(source).path_service.paths_to(destination)
        ]
        assert segments
        state = LinkState()
        # Fail the first link of the first path: that path must disappear
        # from the surviving set.
        victim_link = segments[0].links()[0]
        state.fail_link(victim_link)
        surviving = [s for s in segments if state.path_available(s.links())]
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
        tlf = tolerable_link_failures([s.links() for s in segments], source, destination)
        assert tlf >= 1
        rng = random.Random(3)
        used_links = sorted({link for s in segments for link in s.links()})
        for _trial in range(5):
            state = LinkState()
            sample = rng.sample(used_links, k=min(tlf - 1, len(used_links))) if tlf > 1 else []
            for link in sample:
                state.fail_link(link)
            assert any(state.path_available(s.links()) for s in segments)

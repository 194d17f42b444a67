"""Tests for the §IX bootstrapping extension and for link-failure injection."""

import random

import pytest

from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.bootstrap import (
    BootstrapReport,
    NeighborPathCache,
    RapidPropagationRAC,
    bootstrap_paths,
    summarize_bootstrap,
)
from repro.core.control_service import IrecControlService
from repro.core.databases import StoredBeacon
from repro.core.local_view import LocalTopologyView
from repro.core.transport import LoopbackTransport
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.failures import LinkFailureInjector, minimum_failures_to_disconnect
from repro.simulation.scenario import disjointness_scenario, don_scenario
from repro.topology.generator import generate_topology, small_test_config

from tests.conftest import line_topology, make_beacon


class TestRapidPropagationRAC:
    def _stored(self, key_store, origin=1, egress=1):
        beacon = make_beacon(key_store, [(origin, None, egress), (2, 1, 2)])
        return StoredBeacon(beacon=beacon, received_on_interface=1, received_at_ms=0.0)

    def test_first_beacon_per_origin_is_forwarded(self, key_store):
        rac = RapidPropagationRAC(rate_limit_ms=1000.0)
        selections = rac.on_beacon_arrival(self._stored(key_store), (3, 4), now_ms=0.0)
        assert len(selections) == 1
        assert selections[0].egress_interfaces == [3, 4]
        assert selections[0].criteria_tag == "rapid"
        assert rac.forwarded == 1

    def test_rate_limit_per_origin(self, key_store):
        rac = RapidPropagationRAC(rate_limit_ms=1000.0)
        rac.on_beacon_arrival(self._stored(key_store, origin=1), (3,), now_ms=0.0)
        suppressed = rac.on_beacon_arrival(self._stored(key_store, origin=1, egress=2), (3,), now_ms=100.0)
        other_origin = rac.on_beacon_arrival(self._stored(key_store, origin=5), (3,), now_ms=100.0)
        after_interval = rac.on_beacon_arrival(self._stored(key_store, origin=1, egress=3), (3,), now_ms=2000.0)
        assert suppressed == []
        assert len(other_origin) == 1
        assert len(after_interval) == 1
        assert rac.suppressed == 1

    def test_reset(self, key_store):
        rac = RapidPropagationRAC(rate_limit_ms=1000.0)
        rac.on_beacon_arrival(self._stored(key_store), (3,), now_ms=0.0)
        rac.reset()
        assert rac.forwarded == 0
        assert len(rac.on_beacon_arrival(self._stored(key_store), (3,), now_ms=1.0)) == 1

    def test_rapid_forward_reaches_neighbor(self, key_store):
        """A rapid-forwarded beacon is immediately propagated to the next AS."""
        topology = line_topology(3)
        transport = LoopbackTransport(topology=topology)
        services = {}
        for as_info in topology:
            view = LocalTopologyView.from_topology(topology, as_info.as_id)
            service = IrecControlService(view=view, key_store=key_store, transport=transport)
            service.add_static_rac(rac_id="1sp", algorithm=KShortestPathAlgorithm(k=1))
            services[as_info.as_id] = service
            transport.register(service)

        services[1].originate(now_ms=0.0)
        # AS 2 rapid-forwards whatever just arrived without waiting for the
        # periodic round.
        rapid = RapidPropagationRAC(rate_limit_ms=0.0)
        arrivals = services[2].ingress.database.all_beacons()
        assert arrivals
        selections = []
        for stored in arrivals:
            selections.extend(
                rapid.on_beacon_arrival(stored, services[2].view.interface_ids(), now_ms=1.0)
            )
        sent = services[2].egress.propagate(selections, now_ms=0.0)
        assert sent >= 1
        assert len(services[3].ingress.database) >= 1


class TestBootstrapPaths:
    def _deployment(self, key_store):
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        result = BeaconingSimulation(topology, scenario).run()
        return topology, result

    def test_join_via_direct_neighbors(self, key_store):
        topology, result = self._deployment(key_store)
        joining = result.service(4)
        neighbor = result.service(3)
        collected = bootstrap_paths(
            joining_service=joining,
            neighbor_caches=[NeighborPathCache(service=neighbor)],
            wanted_origins=[1, 2, 4],
        )
        # Paths to origins 1 and 2 come straight from the neighbour's path
        # service; the joining AS itself is excluded.
        assert collected[1]
        assert collected[2]
        assert 4 not in collected
        report = summarize_bootstrap(collected)
        assert isinstance(report, BootstrapReport)
        assert report.origins_resolved == 2
        assert report.coverage == 1.0

    def test_recursion_through_second_level(self, key_store):
        topology, result = self._deployment(key_store)
        joining = result.service(4)
        # The direct neighbour (AS 3) pretends to know nothing by using an
        # empty control service; the second-level neighbour (AS 2) answers.
        empty_view = LocalTopologyView.from_topology(topology, 3)
        empty_service = IrecControlService(
            view=empty_view, key_store=key_store, transport=LoopbackTransport(topology=topology)
        )
        second_level = {3: [NeighborPathCache(service=result.service(2))]}
        collected = bootstrap_paths(
            joining_service=joining,
            neighbor_caches=[NeighborPathCache(service=empty_service)],
            wanted_origins=[1],
            max_depth=2,
            cache_resolver=lambda as_id: second_level.get(as_id, []),
        )
        assert collected[1]

    def test_depth_validation(self, key_store):
        _topology, result = self._deployment(key_store)
        with pytest.raises(ConfigurationError):
            bootstrap_paths(
                joining_service=result.service(4),
                neighbor_caches=[],
                wanted_origins=[1],
                max_depth=0,
            )

    def test_limit_per_origin(self, key_store):
        _topology, result = self._deployment(key_store)
        joining = result.service(4)
        neighbor = result.service(3)
        collected = bootstrap_paths(
            joining_service=joining,
            neighbor_caches=[NeighborPathCache(service=neighbor)],
            wanted_origins=[1],
            limit_per_origin=1,
        )
        assert len(collected[1]) == 1


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

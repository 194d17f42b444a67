"""Tests for multipath failover forwarding."""

import pytest

from repro.core.databases import PathService, RegisteredPath
from repro.dataplane.multipath import FailoverForwarder, MultipathSelector
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.path import forwarding_path_from_segment
from repro.exceptions import DataPlaneError
from repro.topology.entities import Relationship

from tests.conftest import build_topology, make_beacon


def diamond_path_service(key_store):
    """Two link-disjoint registered paths 1->4 plus one overlapping path."""
    service = PathService()
    upper = make_beacon(key_store, [(4, None, 1), (2, 2, 1), (1, 1, None)])
    lower = make_beacon(key_store, [(4, None, 2), (3, 2, 1), (1, 2, None)])
    overlap = make_beacon(key_store, [(4, None, 1), (2, 2, 3), (5, 1, 2), (1, 3, None)])
    for index, segment in enumerate((upper, lower, overlap)):
        service.register(
            RegisteredPath(segment=segment, criteria_tags=("hd",), registered_at_ms=float(index))
        )
    return service, upper, lower, overlap


def diamond_topology():
    loc = (47.0, 8.0)
    interfaces = {
        1: {1: loc, 2: loc, 3: loc},
        2: {1: loc, 2: loc, 3: loc},
        3: {1: loc, 2: loc},
        4: {1: loc, 2: loc},
        5: {1: loc, 2: loc},
    }
    peer = Relationship.PEER
    links = [
        ((1, 1), (2, 1), 5.0, 100.0, peer),
        ((2, 2), (4, 1), 5.0, 100.0, peer),
        ((1, 2), (3, 1), 5.0, 100.0, peer),
        ((3, 2), (4, 2), 5.0, 100.0, peer),
        ((1, 3), (5, 2), 5.0, 100.0, peer),
        ((5, 1), (2, 3), 5.0, 100.0, peer),
    ]
    return build_topology(interfaces, links)


class TestMultipathSelector:
    def test_prefers_disjoint_paths(self, key_store):
        service, upper, lower, overlap = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        selected = selector.disjoint_paths(destination_as=4, max_paths=2)
        digests = {path.segment.digest() for path in selected}
        assert digests == {upper.digest(), lower.digest()}

    def test_max_paths_respected(self, key_store):
        service, *_paths = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        assert len(selector.disjoint_paths(4, max_paths=1)) == 1
        assert len(selector.disjoint_paths(4, max_paths=10)) == 3

    def test_tag_filter(self, key_store):
        service, *_paths = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        assert selector.disjoint_paths(4, required_tags=("missing-tag",)) == []


class TestFailoverForwarder:
    def test_primary_path_used_when_healthy(self, key_store):
        topology = diamond_topology()
        service, upper, lower, _overlap = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        paths = selector.disjoint_paths(4, max_paths=2)
        forwarder = FailoverForwarder(
            network=DataPlaneNetwork(topology=topology), paths=paths
        )
        report = forwarder.deliver()
        assert report.delivered
        assert report.used_path_index == 0
        assert report.attempts == 1
        assert forwarder.usable_path_count() == 2

    def test_failover_to_disjoint_path_after_link_failure(self, key_store):
        topology = diamond_topology()
        service, upper, lower, _overlap = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        paths = selector.disjoint_paths(4, max_paths=2)
        network = DataPlaneNetwork(topology=topology)
        # Fail the first link of the primary path.
        network.link_state.fail_link(paths[0].segment.links()[0])
        forwarder = FailoverForwarder(network=network, paths=paths)
        report = forwarder.deliver()
        assert report.delivered
        assert report.used_path_index == 1
        assert forwarder.usable_path_count() == 1

    def test_failed_link_means_the_same_to_forwarder_and_network(self, key_store):
        """The link the forwarder skips is the link the data plane drops."""
        topology = diamond_topology()
        service, _upper, _lower, _overlap = diamond_path_service(key_store)
        paths = MultipathSelector(path_service=service).disjoint_paths(4, max_paths=2)
        network = DataPlaneNetwork(topology=topology)
        forwarder = FailoverForwarder(network=network, paths=paths)
        assert forwarder.deliver().used_path_index == 0
        primary = paths[0].segment
        network.link_state.fail_link(primary.links()[0])
        report = forwarder.deliver()
        assert report.delivered
        assert report.used_path_index == 1
        assert report.attempts == 1  # the failed primary was skipped, not tried
        forced = network.deliver(Packet(path=forwarding_path_from_segment(primary)))
        assert not forced.delivered
        assert "is down" in forced.failure_reason

    def test_offline_transit_as_skipped_and_dropped(self, key_store):
        """An offline AS takes its links down for the forwarder as well."""
        topology = diamond_topology()
        service, _upper, _lower, _overlap = diamond_path_service(key_store)
        paths = MultipathSelector(path_service=service).disjoint_paths(4, max_paths=2)
        network = DataPlaneNetwork(topology=topology)
        transit = paths[0].segment.as_path()[1]
        network.link_state.set_as_offline(transit)
        forwarder = FailoverForwarder(network=network, paths=paths)
        report = forwarder.deliver()
        assert report.used_path_index == 1
        assert report.attempts == 1
        assert forwarder.usable_path_count() == 1
        forced = network.deliver(Packet(path=forwarding_path_from_segment(paths[0].segment)))
        assert not forced.delivered

    def test_all_paths_failed(self, key_store):
        topology = diamond_topology()
        service, *_paths = diamond_path_service(key_store)
        selector = MultipathSelector(path_service=service)
        paths = selector.disjoint_paths(4, max_paths=3)
        network = DataPlaneNetwork(topology=topology)
        for path in paths:
            network.link_state.fail_link(path.segment.links()[0])
        forwarder = FailoverForwarder(network=network, paths=paths)
        report = forwarder.deliver()
        assert not report.delivered
        assert report.used_path_index is None

    def test_requires_paths(self, key_store):
        forwarder = FailoverForwarder(
            network=DataPlaneNetwork(topology=diamond_topology()), paths=[]
        )
        with pytest.raises(DataPlaneError):
            forwarder.deliver()

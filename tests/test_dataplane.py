"""Tests for the stateless data plane: paths, packets, routers, end hosts."""

import pytest

from repro.core.criteria import highest_bandwidth, lowest_latency, widest_with_latency_bound
from repro.core.databases import PathService, RegisteredPath
from repro.dataplane.endhost import EndHost, PathSelectionPreference
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.path import ForwardingPath, HopField, forwarding_path_from_segment
from repro.dataplane.router import BorderRouter
from repro.exceptions import DataPlaneError, ForwardingError, PathConstructionError
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.geo import GeoCoordinate

from tests.conftest import figure1_topology, make_beacon


@pytest.fixture
def segment(key_store):
    """A terminated segment: origin AS 3, beaconed 3 -> 2 -> 1 (Figure 1 left path)."""
    return make_beacon(
        key_store,
        [(3, None, 1), (2, 2, 1), (1, 1, None)],
        link_latencies=[10.0, 10.0, 0.0],
        link_bandwidths=[100.0, 100.0, None],
    )


class TestForwardingPath:
    def test_from_segment_reverses_hops(self, segment):
        path = forwarding_path_from_segment(segment)
        assert path.source_as == 1
        assert path.destination_as == 3
        assert path.as_path() == (1, 2, 3)
        assert path.hop_count == 3
        # Interfaces are swapped relative to the beaconing direction.
        assert path.hops[0] == HopField(as_id=1, ingress_interface=None, egress_interface=1)
        assert path.hops[1] == HopField(as_id=2, ingress_interface=1, egress_interface=2)
        assert path.hops[2] == HopField(as_id=3, ingress_interface=1, egress_interface=None)
        assert path.expected_latency_ms == pytest.approx(20.0)
        assert path.expected_bandwidth_mbps == pytest.approx(100.0)

    def test_only_terminated_segments(self, key_store):
        not_terminated = make_beacon(key_store, [(3, None, 1), (2, 2, 1)])
        with pytest.raises(PathConstructionError):
            forwarding_path_from_segment(not_terminated)

    def test_structural_validation(self):
        with pytest.raises(PathConstructionError):
            ForwardingPath(
                hops=(HopField(1, None, 1),), expected_latency_ms=0.0, expected_bandwidth_mbps=1.0
            )
        with pytest.raises(PathConstructionError):
            ForwardingPath(
                hops=(HopField(1, 1, 1), HopField(2, 1, None)),
                expected_latency_ms=0.0,
                expected_bandwidth_mbps=1.0,
            )

    def test_links_and_hop_for(self, segment):
        path = forwarding_path_from_segment(segment)
        assert path.links() == (((1, 1), (2, 1)), ((2, 2), (3, 1)))
        assert path.hop_for(2).as_id == 2
        with pytest.raises(PathConstructionError):
            path.hop_for(99)


class TestPacketAndRouter:
    def test_packet_cursor(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        assert packet.current_as == 1
        assert not packet.at_destination
        packet.advance()
        assert packet.current_as == 2
        packet.advance()
        assert packet.at_destination
        with pytest.raises(ForwardingError):
            packet.advance()

    def test_latency_accumulation(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        packet.add_latency(5.0)
        packet.add_latency(2.5)
        assert packet.accumulated_latency_ms == 7.5
        with pytest.raises(ForwardingError):
            packet.add_latency(-1.0)

    def test_router_forwards_on_hop_field(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        router = BorderRouter(as_id=1, local_interfaces=(1, 2))
        egress = router.forward(packet, arrived_on=None)
        assert egress == (1, 1)

    def test_router_validates_ingress_interface(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        packet.advance()  # now at AS 2, hop expects ingress interface 1
        router = BorderRouter(as_id=2, local_interfaces=(1, 2))
        with pytest.raises(ForwardingError):
            router.forward(packet, arrived_on=2)
        assert router.forward(packet, arrived_on=1) == (2, 2)

    def test_router_rejects_wrong_as(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        router = BorderRouter(as_id=9, local_interfaces=(1,))
        with pytest.raises(ForwardingError):
            router.forward(packet, arrived_on=None)

    def test_router_rejects_unknown_egress(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        router = BorderRouter(as_id=1, local_interfaces=(5,))
        with pytest.raises(ForwardingError):
            router.forward(packet, arrived_on=None)

    def test_local_delivery_returns_none(self, segment):
        packet = Packet(path=forwarding_path_from_segment(segment))
        packet.advance()
        packet.advance()
        router = BorderRouter(as_id=3, local_interfaces=(1, 2, 3))
        assert router.forward(packet, arrived_on=1) is None


class TestDataPlaneNetwork:
    def test_end_to_end_delivery_matches_topology(self, key_store):
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        segment = make_beacon(
            key_store,
            [(3, None, 1), (2, 2, 1), (1, 1, None)],
            link_latencies=[10.0, 10.0, 0.0],
        )
        packet = Packet(path=forwarding_path_from_segment(segment))
        report = network.deliver(packet)
        assert report.delivered, report.failure_reason
        assert report.as_path == (1, 2, 3)
        # Real link latencies of the Figure-1 topology: 10 ms + 10 ms, plus a
        # sub-millisecond intra-AS transit at AS 2.
        assert report.latency_ms == pytest.approx(20.0, abs=0.5)

    def test_interface_attached_after_first_delivery_is_owned(self, key_store):
        """Topology growth gives a routed-through AS a new interface; the
        router must own it, not the interface set of its first delivery."""
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        old = make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 1, None)])
        assert network.deliver(Packet(path=forwarding_path_from_segment(old))).delivered
        location = GeoCoordinate(48.0, 9.2)
        grown = ASInfo(as_id=9)
        grown.add_interface(Interface(as_id=9, interface_id=1, location=location))
        topology.add_as(grown)
        topology.as_info(2).add_interface(Interface(as_id=2, interface_id=3, location=location))
        topology.add_link(
            Link(
                interface_a=(9, 1),
                interface_b=(2, 3),
                latency_ms=5.0,
                bandwidth_mbps=100.0,
                relationship=Relationship.PEER,
            )
        )
        new = make_beacon(key_store, [(9, None, 1), (2, 3, 1), (1, 1, None)])
        report = network.deliver(Packet(path=forwarding_path_from_segment(new)))
        assert report.delivered, report.failure_reason
        assert report.as_path == (1, 2, 9)

    def test_forged_path_dropped(self, key_store):
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        # The segment claims AS 1 interface 1 leads to AS 5, which is false.
        forged = make_beacon(key_store, [(5, None, 1), (1, 1, None)])
        packet = Packet(path=forwarding_path_from_segment(forged))
        report = network.deliver(packet)
        assert not report.delivered
        assert report.failure_reason is not None


class TestEndHost:
    def _path_service_with(self, key_store):
        service = PathService()
        fast = make_beacon(
            key_store,
            [(3, None, 1), (2, 2, 1), (1, 1, None)],
            link_latencies=[10.0, 10.0, 0.0],
            link_bandwidths=[100.0, 100.0, None],
        )
        wide = make_beacon(
            key_store,
            [(3, None, 2), (6, 2, 1), (5, 2, 1), (4, 2, 1), (1, 2, None)],
            link_latencies=[10.0, 10.0, 10.0, 10.0, 0.0],
            link_bandwidths=[10_000.0, 10_000.0, 10_000.0, 10_000.0, None],
        )
        service.register(
            RegisteredPath(segment=fast, criteria_tags=("1sp",), registered_at_ms=0.0)
        )
        service.register(
            RegisteredPath(segment=wide, criteria_tags=("widest",), registered_at_ms=0.0)
        )
        return service

    def test_selection_by_criteria(self, key_store):
        host = EndHost(host_id="h1", as_id=1, path_service=self._path_service_with(key_store))
        latency_pick = host.select_paths(3, PathSelectionPreference(lowest_latency()), limit=1)
        bandwidth_pick = host.select_paths(3, PathSelectionPreference(highest_bandwidth()), limit=1)
        assert latency_pick[0].segment.total_latency_ms() == pytest.approx(20.0)
        assert bandwidth_pick[0].segment.bottleneck_bandwidth_mbps() == pytest.approx(10_000.0)

    def test_required_tags_filter(self, key_store):
        host = EndHost(host_id="h1", as_id=1, path_service=self._path_service_with(key_store))
        preference = PathSelectionPreference(lowest_latency(), required_tags=("widest",))
        selected = host.select_paths(3, preference, limit=5)
        assert len(selected) == 1
        assert "widest" in selected[0].criteria_tags
        assert host.paths_by_tag(3, "widest") == selected

    def test_constraint_filters_paths(self, key_store):
        host = EndHost(host_id="h1", as_id=1, path_service=self._path_service_with(key_store))
        preference = PathSelectionPreference(widest_with_latency_bound(30.0))
        selected = host.select_paths(3, preference, limit=5)
        assert all(p.segment.total_latency_ms() <= 30.0 for p in selected)

    def test_build_packet_and_no_path_error(self, key_store):
        host = EndHost(host_id="h1", as_id=1, path_service=self._path_service_with(key_store))
        packet = host.build_packet(3, PathSelectionPreference(lowest_latency()))
        assert packet.path.source_as == 1
        assert packet.path.destination_as == 3
        with pytest.raises(DataPlaneError):
            host.build_packet(42, PathSelectionPreference(lowest_latency()))

    def test_available_paths(self, key_store):
        host = EndHost(host_id="h1", as_id=1, path_service=self._path_service_with(key_store))
        assert len(host.available_paths(3)) == 2
        assert host.available_paths(42) == []

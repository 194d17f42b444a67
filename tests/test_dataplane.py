"""Tests for the stateless data plane: forwarding paths and the packet walk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.path import ForwardingPath, HopField, forwarding_path_from_segment
from repro.exceptions import PathConstructionError, UnknownLinkError
from repro.simulation.failures import LinkState
from repro.topology.entities import ASInfo, Interface, Link, Relationship, normalize_link_id
from repro.topology.geo import GeoCoordinate

from tests.conftest import figure1_topology, line_topology, make_beacon


def path_of(*hops):
    """A forwarding path over ``(as_id, ingress, egress)`` hop triples."""
    return ForwardingPath(hops=tuple(HopField(*hop) for hop in hops))


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
        assert path.as_path() == (1, 2, 3)
        # Interfaces are swapped relative to the beaconing direction.
        assert path.hops[0] == HopField(as_id=1, ingress_interface=None, egress_interface=1)
        assert path.hops[1] == HopField(as_id=2, ingress_interface=1, egress_interface=2)
        assert path.hops[2] == HopField(as_id=3, ingress_interface=1, egress_interface=None)

    def test_only_terminated_segments(self, key_store):
        not_terminated = make_beacon(key_store, [(3, None, 1), (2, 2, 1)])
        with pytest.raises(PathConstructionError):
            forwarding_path_from_segment(not_terminated)

    def test_structural_validation(self):
        with pytest.raises(PathConstructionError):
            ForwardingPath(hops=(HopField(1, None, 1),))
        with pytest.raises(PathConstructionError):
            ForwardingPath(hops=(HopField(1, 1, 1), HopField(2, 1, None)))

    def test_only_the_destination_hop_may_lack_an_egress(self):
        """A hop short of the destination without an egress interface would
        end the walk there: on a 3-AS line the forged path below was
        reported delivered at AS 2, while its destination is AS 3."""
        with pytest.raises(PathConstructionError, match="interior hops"):
            path_of((1, None, 2), (2, 1, None), (3, 1, None))
        with pytest.raises(PathConstructionError, match="interior hops"):
            path_of((1, None, None), (2, 1, None))

    def test_only_the_source_hop_may_lack_an_ingress(self):
        with pytest.raises(PathConstructionError, match="interior hops"):
            path_of((1, None, 2), (2, None, 2), (3, 1, None))
        with pytest.raises(PathConstructionError, match="interior hops"):
            path_of((1, None, 2), (2, None, None))


class TestPacketWalk:
    """The border-router checks, applied at every AS of the walk."""

    def test_walk_crosses_every_hop_and_delivers_at_the_destination(self, segment):
        report = DataPlaneNetwork(topology=figure1_topology()).deliver(
            forwarding_path_from_segment(segment)
        )
        assert report.delivered, report.failure_reason
        assert report.as_path == (1, 2, 3)
        assert report.hops_traversed == 3
        assert report.failure_reason is None

    def test_latency_adds_links_and_intra_as_transit(self):
        # Two 10 ms links and a transit through AS 2 between its interfaces.
        report = DataPlaneNetwork(topology=line_topology(3)).deliver(
            path_of((1, None, 2), (2, 1, 2), (3, 1, None))
        )
        assert report.delivered, report.failure_reason
        assert report.latency_ms > 20.0
        assert report.latency_ms == pytest.approx(20.0, abs=0.5)

    def test_arrival_on_an_unauthorized_ingress_is_dropped(self):
        # The 1-2 link arrives on AS 2's interface 1; the hop field names 2.
        report = DataPlaneNetwork(topology=line_topology(3)).deliver(
            path_of((1, None, 2), (2, 2, 2), (3, 1, None))
        )
        assert not report.delivered
        assert "authorizes ingress 2" in report.failure_reason
        assert report.hops_traversed == 1

    def test_an_egress_the_as_does_not_own_is_dropped(self):
        report = DataPlaneNetwork(topology=line_topology(3)).deliver(
            path_of((1, None, 5), (2, 1, None))
        )
        assert not report.delivered
        assert "does not own" in report.failure_reason
        assert report.hops_traversed == 0

    def test_a_link_to_another_as_than_the_next_hop_is_dropped(self):
        report = DataPlaneNetwork(topology=line_topology(3)).deliver(
            path_of((1, None, 2), (3, 1, None))
        )
        assert not report.delivered
        assert "the link leads to AS 2" in report.failure_reason

    def test_an_egress_without_a_link_is_dropped(self):
        # AS 4 owns interface 3 in the Figure-1 topology; no link is attached.
        report = DataPlaneNetwork(topology=figure1_topology()).deliver(
            path_of((4, None, 3), (5, 1, None))
        )
        assert not report.delivered
        assert "has no link" in report.failure_reason

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(1, 6),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        forge=st.one_of(
            st.none(), st.tuples(st.integers(0, 4), st.sampled_from((1, 2)), st.integers(1, 3))
        ),
    )
    def test_the_walk_delivers_exactly_the_paths_the_topology_has(self, start, picks, forge):
        """Walk the Figure-1 links from ``start`` (each pick chooses an
        interface), then maybe forge one interface of one hop field.  The
        walk delivers exactly the loop-free, unforged paths, and never
        raises."""
        topology = figure1_topology()
        hops, as_id, ingress = [], start, None
        for pick in picks:
            owned = sorted(topology.as_info(as_id).interfaces)
            egress = owned[pick % len(owned)]
            try:
                link = topology.link_of_interface((as_id, egress))
            except UnknownLinkError:
                break
            hops.append([as_id, ingress, egress])
            as_id, ingress = link.other_end((as_id, egress))
        hops.append([as_id, ingress, None])
        if len(hops) < 2:
            return
        genuine = len({hop[0] for hop in hops}) == len(hops)
        if forge is not None:
            index, column, value = forge
            hop = hops[index % len(hops)]
            if hop[column] not in (None, value):
                hop[column] = value
                genuine = False
        path = path_of(*hops)
        report = DataPlaneNetwork(topology=topology).deliver(path)
        assert report.delivered == genuine, report.failure_reason
        if genuine:
            assert report.hops_traversed == len(path.hops)
            links = sum(
                topology.links[normalize_link_id((a[0], a[2]), (b[0], b[1]))].latency_ms
                for a, b in zip(hops, hops[1:])
            )
            assert report.latency_ms == pytest.approx(links, abs=1.0)

    def test_loop_is_detected(self):
        # 1 -> 2 -> 1: topologically valid hop fields that revisit AS 1.
        report = DataPlaneNetwork(topology=figure1_topology()).deliver(
            path_of((1, None, 1), (2, 1, 1), (1, 1, None))
        )
        assert not report.delivered
        assert "loop" in report.failure_reason

    def test_failed_link_drops_packet(self, segment):
        state = LinkState()
        network = DataPlaneNetwork(topology=figure1_topology(), link_state=state)
        path = forwarding_path_from_segment(segment)
        assert network.deliver(path).delivered
        state.fail_link(segment.links()[-1])
        report = network.deliver(path)
        assert not report.delivered
        assert "is down" in report.failure_reason

    def test_offline_source_as_drops_packet(self, segment):
        state = LinkState()
        state.set_as_offline(1)
        network = DataPlaneNetwork(topology=figure1_topology(), link_state=state)
        report = network.deliver(forwarding_path_from_segment(segment))
        assert not report.delivered
        assert "offline" in report.failure_reason
        assert report.hops_traversed == 0

    def test_offline_transit_as_drops_packet(self, segment):
        state = LinkState()
        network = DataPlaneNetwork(topology=figure1_topology(), link_state=state)
        path = forwarding_path_from_segment(segment)
        state.set_as_offline(path.as_path()[1])
        report = network.deliver(path)
        assert not report.delivered
        assert "is down" in report.failure_reason


class TestDataPlaneNetwork:
    def test_end_to_end_delivery_matches_topology(self, key_store):
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        segment = make_beacon(
            key_store,
            [(3, None, 1), (2, 2, 1), (1, 1, None)],
            link_latencies=[10.0, 10.0, 0.0],
        )
        path = forwarding_path_from_segment(segment)
        report = network.deliver(path)
        assert report.delivered, report.failure_reason
        assert report.as_path == (1, 2, 3)
        # Real link latencies of the Figure-1 topology: 10 ms + 10 ms, plus a
        # sub-millisecond intra-AS transit at AS 2.
        assert report.latency_ms == pytest.approx(20.0, abs=0.5)

    def test_interface_attached_after_first_delivery_is_owned(self, key_store):
        """Topology growth gives a routed-through AS a new interface; the
        walk reads the AS's live interfaces, not the set of its first delivery."""
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        old = make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 1, None)])
        assert network.deliver(forwarding_path_from_segment(old)).delivered
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
        report = network.deliver(forwarding_path_from_segment(new))
        assert report.delivered, report.failure_reason
        assert report.as_path == (1, 2, 9)

    def test_forged_path_dropped(self, key_store):
        topology = figure1_topology()
        network = DataPlaneNetwork(topology=topology)
        # The segment claims AS 1 interface 1 leads to AS 5, which is false.
        forged = make_beacon(key_store, [(5, None, 1), (1, 1, None)])
        path = forwarding_path_from_segment(forged)
        report = network.deliver(path)
        assert not report.delivered
        assert report.failure_reason is not None

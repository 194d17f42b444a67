"""Edge-case tests for the data-plane multipath and router modules.

`test_dataplane.py` covers the happy paths; this module pins down the
corners the traffic engine now leans on: empty path sets, expired paths,
link-state-aware filtering, loop detection and failed-link drops in the
forwarding walk.
"""

import pytest

from repro.core.databases import PathService, RegisteredPath
from repro.dataplane.multipath import FailoverForwarder, MultipathSelector
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.path import ForwardingPath, HopField
from repro.dataplane.router import BorderRouter
from repro.exceptions import DataPlaneError, ForwardingError
from repro.simulation.failures import LinkState

from tests.conftest import figure1_topology, make_beacon

HOUR_MS = 3600.0 * 1000.0


@pytest.fixture
def fig1():
    return figure1_topology()


def register(service, segment, tags=("1sp",), at_ms=0.0):
    assert service.register(
        RegisteredPath(segment=segment, criteria_tags=tuple(tags), registered_at_ms=at_ms)
    )


@pytest.fixture
def two_path_service(key_store):
    """Path service with the short (20 ms) and wide (40 ms) 1->3 paths."""
    service = PathService()
    register(
        service,
        make_beacon(
            key_store,
            [(3, None, 1), (2, 2, 1), (1, 1, None)],
            link_latencies=[10.0, 10.0, 0.0],
        ),
    )
    register(
        service,
        make_beacon(
            key_store,
            [(3, None, 2), (6, 2, 1), (5, 2, 1), (4, 2, 1), (1, 2, None)],
            link_latencies=[10.0, 10.0, 10.0, 10.0, 0.0],
        ),
        tags=("hd",),
    )
    return service


class TestMultipathSelectorEdgeCases:
    def test_empty_path_set(self):
        selector = MultipathSelector(path_service=PathService())
        assert selector.disjoint_paths(3) == []

    def test_unknown_destination(self, two_path_service):
        selector = MultipathSelector(path_service=two_path_service)
        assert selector.disjoint_paths(999) == []

    def test_tag_filter_excludes_everything(self, two_path_service):
        selector = MultipathSelector(path_service=two_path_service)
        assert selector.disjoint_paths(3, required_tags=("nope",)) == []

    def test_expired_paths_are_dropped(self, key_store):
        service = PathService()
        register(
            service,
            make_beacon(
                key_store,
                [(3, None, 1), (2, 2, 1), (1, 1, None)],
                validity_ms=1_000.0,
            ),
        )
        selector = MultipathSelector(path_service=service)
        assert len(selector.disjoint_paths(3)) == 1
        assert len(selector.disjoint_paths(3, now_ms=500.0)) == 1
        assert selector.disjoint_paths(3, now_ms=2_000.0) == []

    def test_link_state_filters_dead_paths(self, two_path_service):
        state = LinkState()
        selector = MultipathSelector(path_service=two_path_service, link_state=state)
        assert len(selector.disjoint_paths(3)) == 2
        state.fail_link(((1, 1), (2, 1)))
        survivors = selector.disjoint_paths(3)
        assert len(survivors) == 1
        assert survivors[0].segment.hop_count == 5  # only the wide path

    def test_disjoint_selection_prefers_non_overlapping(self, key_store):
        service = PathService()
        # Two paths sharing the 1-4 link, one fully disjoint path.
        register(
            service,
            make_beacon(key_store, [(3, None, 3), (5, 3, 1), (4, 2, 1), (1, 2, None)]),
        )
        register(
            service,
            make_beacon(
                key_store,
                [(3, None, 2), (6, 2, 1), (5, 2, 1), (4, 2, 1), (1, 2, None)],
            ),
        )
        register(
            service,
            make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 1, None)]),
        )
        selector = MultipathSelector(path_service=service)
        chosen = selector.disjoint_paths(3, max_paths=2)
        assert len(chosen) == 2
        links_a = set(chosen[0].segment.links())
        links_b = set(chosen[1].segment.links())
        assert not links_a & links_b


class TestFailoverForwarderEdgeCases:
    def test_no_paths_raises(self, fig1):
        forwarder = FailoverForwarder(network=DataPlaneNetwork(topology=fig1), paths=())
        with pytest.raises(DataPlaneError):
            forwarder.deliver()

    def test_all_paths_failed_proactively_skipped(self, fig1, two_path_service):
        network = DataPlaneNetwork(topology=fig1)
        network.link_state.fail_link(((1, 1), (2, 1)))
        network.link_state.fail_link(((1, 2), (4, 1)))
        forwarder = FailoverForwarder(network=network, paths=two_path_service.paths_to(3))
        report = forwarder.deliver()
        assert not report.delivered
        assert report.attempts == 0
        assert forwarder.usable_path_count() == 0

    def test_failover_to_second_path(self, fig1, two_path_service):
        network = DataPlaneNetwork(topology=fig1)
        network.link_state.fail_link(((1, 1), (2, 1)))
        paths = sorted(
            two_path_service.paths_to(3), key=lambda p: p.segment.hop_count
        )
        forwarder = FailoverForwarder(network=network, paths=paths)
        report = forwarder.deliver()
        assert report.delivered
        assert report.used_path_index == 1
        assert report.attempts == 1  # the dead primary was skipped, not tried


class TestBorderRouterEdgeCases:
    def _path(self):
        return ForwardingPath(
            hops=(
                HopField(as_id=1, ingress_interface=None, egress_interface=1),
                HopField(as_id=2, ingress_interface=1, egress_interface=2),
                HopField(as_id=3, ingress_interface=1, egress_interface=None),
            ),
            expected_latency_ms=20.0,
            expected_bandwidth_mbps=100.0,
        )

    def test_wrong_as_rejected(self):
        router = BorderRouter(as_id=9, local_interfaces=(1,))
        with pytest.raises(ForwardingError, match="cursor points at AS 1"):
            router.forward(Packet(path=self._path()), arrived_on=None)

    def test_wrong_ingress_rejected(self):
        router = BorderRouter(as_id=1, local_interfaces=(1,))
        with pytest.raises(ForwardingError, match="authorizes ingress"):
            router.forward(Packet(path=self._path()), arrived_on=7)

    def test_unowned_egress_rejected(self):
        router = BorderRouter(as_id=1, local_interfaces=(5,))
        with pytest.raises(ForwardingError, match="does not own"):
            router.forward(Packet(path=self._path()), arrived_on=None)

    def test_local_delivery_returns_none(self):
        router = BorderRouter(as_id=3, local_interfaces=(1,))
        packet = Packet(path=self._path(), current_hop_index=2)
        assert router.forward(packet, arrived_on=1) is None


class TestDataPlaneNetworkEdgeCases:
    def test_loop_is_detected(self, fig1):
        # 1 -> 2 -> 1: topologically valid hop fields that revisit AS 1.
        looped = ForwardingPath(
            hops=(
                HopField(as_id=1, ingress_interface=None, egress_interface=1),
                HopField(as_id=2, ingress_interface=1, egress_interface=1),
                HopField(as_id=1, ingress_interface=1, egress_interface=None),
            ),
            expected_latency_ms=20.0,
            expected_bandwidth_mbps=100.0,
        )
        report = DataPlaneNetwork(topology=fig1).deliver(Packet(path=looped))
        assert not report.delivered
        assert "loop" in report.failure_reason

    def test_failed_link_drops_packet(self, fig1, two_path_service, key_store):
        state = LinkState()
        network = DataPlaneNetwork(topology=fig1, link_state=state)
        segment = two_path_service.paths_to(3)[0].segment
        from repro.dataplane.path import forwarding_path_from_segment

        path = forwarding_path_from_segment(segment)
        assert network.deliver(Packet(path=path)).delivered
        state.fail_link(path.links()[0])
        report = network.deliver(Packet(path=path))
        assert not report.delivered
        assert "down" in report.failure_reason

    def test_offline_source_as_drops_packet(self, fig1, two_path_service):
        state = LinkState()
        state.set_as_offline(1)
        network = DataPlaneNetwork(topology=fig1, link_state=state)
        from repro.dataplane.path import forwarding_path_from_segment

        path = forwarding_path_from_segment(two_path_service.paths_to(3)[0].segment)
        report = network.deliver(Packet(path=path))
        assert not report.delivered
        assert "offline" in report.failure_reason

    def test_offline_transit_as_drops_packet(self, fig1, two_path_service):
        state = LinkState()
        network = DataPlaneNetwork(topology=fig1, link_state=state)
        from repro.dataplane.path import forwarding_path_from_segment

        path = forwarding_path_from_segment(two_path_service.paths_to(3)[0].segment)
        transit_as = path.as_path()[1]
        state.set_as_offline(transit_as)
        report = network.deliver(Packet(path=path))
        assert not report.delivered

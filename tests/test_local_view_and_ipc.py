"""Tests for the per-AS local topology view and the gateway↔RAC IPC model."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ipc import IPCChannel, IPCStats
from repro.core.local_view import LocalTopologyView
from repro.crypto.keys import KeyStore
from repro.exceptions import UnknownLinkError

from tests.conftest import figure1_topology
from tests.test_perf_equivalence import build_chain, hop_specs, naive_encode


class TestLocalTopologyView:
    @pytest.fixture
    def view(self):
        return LocalTopologyView.from_topology(figure1_topology(), 5)

    def test_basic_accessors(self, view):
        assert view.as_id == 5
        assert view.interface_ids() == (1, 2, 3)

    def test_link_and_neighbor(self, view):
        link = view.link_of(1)
        assert (link.interface_a[0], link.interface_b[0]) == (4, 5)
        assert view.neighbor_of(1) == (4, 2)
        assert view.neighbor_of(3) == (3, 3)
        with pytest.raises(UnknownLinkError):
            view.link_of(99)

    def test_intra_latency_symmetric_and_zero_on_same_interface(self, view):
        assert view.intra_latency_ms(1, 1) == 0.0
        assert view.intra_latency_ms(1, 2) == pytest.approx(view.intra_latency_ms(2, 1))
        assert view.intra_latency_ms(1, 2) >= 0.0

    def test_static_info_for_transit_hop(self, view):
        info = view.static_info_for(1, 2)
        link = view.link_of(2)
        assert info.link_latency_ms == pytest.approx(link.latency_ms)
        assert info.link_bandwidth_mbps == pytest.approx(link.bandwidth_mbps)
        assert info.intra_latency_ms == pytest.approx(view.intra_latency_ms(1, 2))
        assert info.egress_location is not None
        assert info.ingress_location is not None

    def test_static_info_for_origin_and_terminal(self, view):
        origin_info = view.static_info_for(None, 1)
        assert origin_info.intra_latency_ms == 0.0
        assert origin_info.link_latency_ms > 0.0
        assert origin_info.ingress_location is None

        terminal_info = view.static_info_for(2, None)
        assert terminal_info.link_latency_ms == 0.0
        assert terminal_info.link_bandwidth_mbps is None
        assert terminal_info.egress_location is None

    def test_unattached_interfaces_are_excluded(self):
        # AS 4 of the Figure-1 fixture declares interface 3 but never links it.
        view = LocalTopologyView.from_topology(figure1_topology(), 4)
        assert 3 not in view.interface_ids()


class TestIPCChannel:
    def test_marshalling_costs_scale_with_beacon_count(self, key_store, beacon_factory):
        channel = IPCChannel()
        small = [beacon_factory([(1, None, 1), (2, 1, 2)])]
        large = [
            beacon_factory([(origin, None, 1), (2, 1, 2), (3, 1, 2)])
            for origin in range(10, 40)
        ]
        _wire_small, _ = channel.marshal_beacons(small)
        bytes_small = channel.stats.bytes_transferred
        _wire_large, _ = channel.marshal_beacons(large)
        assert channel.stats.bytes_transferred - bytes_small > bytes_small
        assert channel.stats.calls == 2

    def test_modelled_latency_added(self, key_store, beacon_factory):
        channel = IPCChannel(per_call_latency_ms=5.0)
        beacons = [beacon_factory([(1, None, 1), (2, 1, 2)])]
        _wire, cost_ms = channel.marshal_beacons(beacons)
        assert cost_ms >= 5.0
        channel.transfer_results({1: beacons * 10})
        # The model is per call, whatever the payload.
        assert channel.stats.modelled_latency_ms == 10.0
        assert channel.stats.total_ms >= channel.stats.modelled_latency_ms

    def test_transfer_results_counts_payload(self, key_store, beacon_factory):
        channel = IPCChannel()
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        cost_ms = channel.transfer_results({1: [beacon], 2: [beacon]})
        assert cost_ms >= 0.0
        assert channel.stats.bytes_transferred > 0
        assert channel.stats.calls == 1

    @given(
        chains=st.lists(
            st.tuples(hop_specs, st.sampled_from(["built", "replaced", "pickled"])), max_size=5
        ),
        repeat=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_wire_bytes_are_the_bytes_charged_and_the_encodings(self, chains, repeat):
        # irecbench's traced ``core.ipc.marshal_bytes`` sums ``len`` over the
        # returned wire, so the wire must carry exactly the encodings' bytes.
        key_store = KeyStore()
        shapes = {
            "built": lambda beacon: beacon,
            "replaced": replace,
            "pickled": lambda beacon: pickle.loads(pickle.dumps(beacon)),
        }
        beacons = [shapes[shape](build_chain(key_store, hops)) for hops, shape in chains] * repeat
        encodings = [naive_encode(beacon) for beacon in beacons]
        channel = IPCChannel()
        wire, _ = channel.marshal_beacons(beacons)
        assert sum(map(len, wire)) == channel.stats.bytes_transferred == sum(map(len, encodings))
        assert b"".join(wire) == b"".join(encodings)
        marshalled = channel.stats.bytes_transferred
        channel.transfer_results({1: beacons, 2: beacons[:1]})
        charged = sum(len(encoded) + 8 for encoded in encodings + encodings[:1])
        assert channel.stats.bytes_transferred - marshalled == charged

    def test_stats_record(self):
        stats = IPCStats()
        stats.record(payload_bytes=100, elapsed_ms=1.0, modelled_ms=2.0)
        assert stats.total_ms == 3.0
        assert (stats.calls, stats.bytes_transferred) == (1, 100)

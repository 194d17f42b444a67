"""Tests for the ingress and egress gateways."""

import pytest

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import BeaconBuilder
from repro.core import databases
from repro.core.databases import EgressDatabase, PathService
from repro.core.egress import EgressGateway
from repro.core.extensions import ExtensionSet
from repro.core.ingress import IngressGateway
from repro.core.local_view import LocalTopologyView
from repro.core.rac import RACSelection
from repro.crypto.hashing import perf_counters
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import PolicyViolationError
from repro.topology.entities import Link, Relationship

from tests.conftest import ForeignKeyStore, NullTransport, figure1_topology, make_beacon


@pytest.fixture
def topology():
    return figure1_topology()


def view_for(topology, as_id, key_store=None):
    return LocalTopologyView.from_topology(topology, as_id)


def gateway_pair(topology, as_id, key_store):
    """Return (ingress gateway, egress gateway, transport) of one AS."""
    view = view_for(topology, as_id)
    transport = NullTransport()
    ingress = IngressGateway(
        as_id=as_id, verifier=Verifier(key_store=key_store)
    )
    egress = EgressGateway(
        view=view,
        builder=BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store)),
        transport=transport,
        database=EgressDatabase(),
        path_service=PathService(),
    )
    return ingress, egress, transport


class TestIngressGateway:
    def test_accepts_valid_beacon(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        assert ingress.receive(beacon, on_interface=1, now_ms=0.0)
        assert ingress.stats.accepted == 1
        assert len(ingress.database) == 1

    def test_duplicate_counted(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        ingress.receive(beacon, on_interface=1, now_ms=0.0)
        assert not ingress.receive(beacon, on_interface=1, now_ms=0.0)
        assert ingress.stats.duplicates == 1

    def test_rejects_expired(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=10.0)
        assert not ingress.receive(beacon, on_interface=1, now_ms=100.0)
        assert ingress.stats.rejected_expired == 1

    def test_rejects_invalid_signature(self, topology, key_store):
        foreign_store = ForeignKeyStore()
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        forged = make_beacon(foreign_store, [(1, None, 1), (2, 1, 2)])
        assert not ingress.receive(forged, on_interface=1, now_ms=0.0)
        assert ingress.stats.rejected_signature == 1

    def test_signature_verification_can_be_disabled(self, topology, key_store):
        foreign_store = ForeignKeyStore()
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        ingress.verify_signatures = False
        forged = make_beacon(foreign_store, [(1, None, 1), (2, 1, 2)])
        assert ingress.receive(forged, on_interface=1, now_ms=0.0)

    def test_rejects_looping_beacon(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        looping = make_beacon(key_store, [(1, None, 1), (3, 1, 2)])
        assert not ingress.receive(looping, on_interface=1, now_ms=0.0)
        assert ingress.stats.rejected_policy == 1

    def test_pull_beacon_at_target_accepted_despite_containing_local_as(self, topology, key_store):
        # A pull beacon whose target is the local AS never actually contains
        # the local AS until terminated, but the policy exception must not
        # reject it if the local AS appears as target.
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        pull = make_beacon(
            key_store,
            [(1, None, 1), (2, 1, 2)],
            extensions=ExtensionSet().with_target(3),
        )
        assert ingress.receive(pull, on_interface=1, now_ms=0.0)

    def test_rejects_terminated_beacon(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        terminated = make_beacon(key_store, [(1, None, 1), (2, 1, None)])
        assert not ingress.receive(terminated, on_interface=1, now_ms=0.0)

    def test_custom_policy_applied(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)

        def reject_origin_one(beacon, _local_as):
            if beacon.origin_as == 1:
                raise PolicyViolationError("origin 1 is blocked")

        ingress.policies.append(reject_origin_one)
        blocked = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        allowed = make_beacon(key_store, [(5, None, 2), (2, 1, 2)])
        assert not ingress.receive(blocked, on_interface=1, now_ms=0.0)
        assert ingress.receive(allowed, on_interface=1, now_ms=0.0)

    def test_expire_delegates_to_database(self, topology, key_store):
        ingress, _egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=10.0)
        ingress.receive(beacon, on_interface=1, now_ms=0.0)
        assert ingress.expire(now_ms=100.0) == 1


class TestEgressGateway:
    def _selection(self, key_store, beacon, egress_interfaces, received_on=1, tag="1sp"):
        stored = CandidateBeacon(beacon=beacon, ingress_interface=received_on, received_at_ms=0.0)
        return RACSelection(stored=stored, egress_interfaces=list(egress_interfaces), criteria_tags=(tag,))

    def test_origination_sends_one_beacon_per_interface(self, topology, key_store):
        _ingress, egress, transport = gateway_pair(topology, 1, key_store)
        originated = egress.originate(now_ms=0.0)
        assert len(originated) == 2  # AS 1 has two interfaces in Figure 1
        assert len(transport.sent) == 2
        assert egress.stats.originated == 2
        for beacon in originated:
            assert beacon.origin_as == 1
            assert beacon.entries[0].static_info.link_bandwidth_mbps is not None

    def test_origination_on_selected_interfaces_with_extensions(self, topology, key_store):
        _ingress, egress, transport = gateway_pair(topology, 1, key_store)
        extensions = ExtensionSet().with_target(3)
        originated = egress.originate(now_ms=0.0, interfaces=[2], extensions=extensions)
        assert len(originated) == 1
        assert originated[0].target_as == 3
        assert transport.sent[0][1] == 2

    def test_propagation_extends_and_sends(self, topology, key_store):
        # AS 3 received a beacon from AS 2 on interface 1 and propagates it.
        _ingress, egress, transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[2, 3], received_on=1)
        sent = egress.propagate([selection], now_ms=0.0)
        assert sent == 2
        for _sender, interface, extended in transport.sent:
            assert extended.last_as == 3
            assert extended.hop_count == 3
            assert extended.entries[-1].ingress_interface == 1
            assert extended.entries[-1].egress_interface in (2, 3)

    def test_propagation_skips_neighbors_already_on_path(self, topology, key_store):
        # AS 3's interface 1 leads back to AS 2, which is on the path.
        _ingress, egress, transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[1], received_on=1)
        assert egress.propagate([selection], now_ms=0.0) == 0
        assert egress.stats.suppressed_loops == 1

    def test_propagation_deduplicates_across_racs(self, topology, key_store):
        _ingress, egress, transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        first = self._selection(key_store, beacon, egress_interfaces=[2], tag="1sp")
        second = self._selection(key_store, beacon, egress_interfaces=[2, 3], tag="don")
        sent = egress.propagate([first, second], now_ms=0.0)
        # Interface 2 only once; interface 3 newly added by the second RAC.
        assert sent == 2
        assert egress.stats.propagated == 2

    def test_pull_beacon_at_target_returned_to_origin(self, topology, key_store):
        _ingress, egress, transport = gateway_pair(topology, 3, key_store)
        pull = make_beacon(
            key_store,
            [(1, None, 1), (2, 1, 2)],
            extensions=ExtensionSet().with_target(3),
        )
        selection = self._selection(key_store, pull, egress_interfaces=[2], received_on=1)
        sent = egress.propagate([selection], now_ms=0.0)
        assert sent == 0
        assert len(transport.returned) == 1
        _sender, returned = transport.returned[0]
        assert returned.is_terminated
        assert returned.origin_as == 1
        # Returning twice is suppressed.
        egress.propagate([selection], now_ms=0.0)
        assert len(transport.returned) == 1
        assert egress.stats.suppressed_duplicates == 1

    def test_registration_terminates_and_tags(self, topology, key_store):
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[2], tag="don")
        registered = egress.register([selection], now_ms=5.0)
        assert registered == 1
        paths = egress.path_service.paths_to(1)
        assert len(paths) == 1
        assert paths[0].criteria_tags == ("don",)
        assert paths[0].segment.is_terminated
        assert paths[0].segment.last_as == 3

    def test_registration_skips_own_origin(self, topology, key_store):
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        own = make_beacon(key_store, [(3, None, 2)])
        selection = self._selection(key_store, own, egress_interfaces=[2])
        assert egress.register([selection], now_ms=0.0) == 0

    def test_expire(self, topology, key_store):
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=10.0)
        selection = self._selection(key_store, beacon, egress_interfaces=[2])
        egress.propagate([selection], now_ms=0.0)
        egress.register([selection], now_ms=0.0)
        removed_egress, removed_paths = egress.expire(now_ms=1_000.0)
        assert removed_egress == 1
        assert removed_paths == 1

    def test_repeated_registration_terminates_once_and_keeps_path_service_semantics(
        self, topology, key_store
    ):
        """Round after round the same selection comes back: the stored record
        is terminated and signed once and keeps its segment, while the path
        service still sees every registration."""
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        notified = []
        egress.path_service.add_invalidation_listener(notified.append)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        other = make_beacon(key_store, [(1, None, 2), (4, 1, 2), (5, 1, 3)])
        # Two RACs select the one stored record, as a round hands it to both.
        stored = CandidateBeacon(beacon=beacon, ingress_interface=1, received_at_ms=0.0)
        first = RACSelection(stored, egress_interfaces=[2], criteria_tags=("1sp",))
        second = RACSelection(stored, egress_interfaces=[3], criteria_tags=("don",))

        signed = perf_counters()["signature_sign"]
        assert egress.register([first], now_ms=5.0) == 1
        assert perf_counters()["signature_sign"] == signed + 1
        segment = stored._segment
        assert egress.path_service.paths_to(1)[0].segment is segment

        # Same record, another RAC, a later round.
        assert egress.register([first, second], now_ms=9.0) == 2
        assert perf_counters()["signature_sign"] == signed + 1
        (path,) = egress.path_service.paths_to(1)
        assert path.segment is segment and stored._segment is segment
        assert path.criteria_tags == ("1sp", "don")
        assert path.registered_at_ms == 5.0
        assert notified == [1, 1, 1]
        assert egress.stats.registered == 3

        # A record never registered is signed: another arrival, another beacon.
        elsewhere = self._selection(key_store, beacon, egress_interfaces=[2], received_on=2)
        unseen = self._selection(key_store, other, egress_interfaces=[2], received_on=3)
        egress.register([elsewhere, unseen, first], now_ms=10.0)
        assert perf_counters()["signature_sign"] == signed + 3
        assert stored._segment is segment
        assert elsewhere.stored._segment is not None and unseen.stored._segment is not None

    def test_a_registered_path_holds_the_selections_tag_tuple(self, topology, key_store):
        """The path and the path service's quota ledger hold the selection's
        own tag tuple, through a re-registration that adds no tag too."""
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[2])
        tags = selection.criteria_tags
        egress.register([selection], now_ms=0.0)
        egress.register([selection], now_ms=1.0)
        (path,) = egress.path_service.paths_to(1)
        assert path.criteria_tags is tags and path.registered_at_ms == 0.0
        assert egress.path_service._consumed[path.segment.digest()] is tags

    def test_withdrawn_path_is_registered_again_from_the_kept_segment(self, topology, key_store):
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[2])
        egress.register([selection], now_ms=0.0)
        digest = egress.path_service.paths_to(1)[0].segment.digest()
        assert egress.path_service.remove_crossing_link(((1, 1), (2, 1))) == 1
        assert egress.path_service.paths_to(1) == []

        # The beacon is still in the ingress database, so the next round
        # selects it again: it must come back, dated by that round.
        signed = perf_counters()["signature_sign"]
        assert egress.register([selection], now_ms=7.0) == 1
        (path,) = egress.path_service.paths_to(1)
        assert path.segment.digest() == digest
        assert path.registered_at_ms == 7.0
        assert perf_counters()["signature_sign"] == signed

    def test_a_record_withdrawn_and_received_again_terminates_again(self, topology, key_store):
        """The segment goes with its ingress record: a beacon withdrawn from
        the ingress database and received again is a new record, terminated
        again, to an equal segment."""
        ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        link = ((2, 2), (3, 1))

        def register_stored(now_ms):
            stored = ingress.database.get(beacon.digest())
            egress.register(
                [RACSelection(stored, egress_interfaces=[2], criteria_tags=("1sp",))], now_ms
            )
            return stored

        assert ingress.receive(beacon, on_interface=1, now_ms=0.0)
        signed = perf_counters()["signature_sign"]
        stored = register_stored(0.0)
        segment = stored._segment
        assert register_stored(1.0) is stored and stored._segment is segment
        assert perf_counters()["signature_sign"] == signed + 1

        assert ingress.database.remove_crossing_link(link) == 1
        assert egress.path_service.remove_crossing_link(link) == 1
        assert ingress.receive(beacon, on_interface=1, now_ms=2.0)
        again = register_stored(2.0)
        assert again is not stored
        assert perf_counters()["signature_sign"] == signed + 2
        assert again._segment is not segment
        assert again._segment == segment and again._segment.digest() == segment.digest()
        (path,) = egress.path_service.paths_to(1)
        assert path.segment is again._segment

    def test_the_segment_expires_with_its_record_on_the_shared_margin(
        self, topology, key_store, monkeypatch
    ):
        """With an expiry margin ``m``, ``expire(T - m/2)`` drops the ingress
        record of a beacon expiring at ``T``, with the segment it keeps, and
        the path service purges the registered copy at the same horizon."""
        margin, expires_at = 40.0, 100.0
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", margin)
        ingress = IngressGateway(as_id=3, verifier=Verifier(key_store=key_store))
        egress = EgressGateway(
            view=view_for(topology, 3),
            builder=BeaconBuilder(as_id=3, signer=Signer(as_id=3, key_store=key_store)),
            transport=NullTransport(),
        )
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=expires_at)
        assert ingress.receive(beacon, on_interface=1, now_ms=0.0)
        stored = ingress.database.get(beacon.digest())
        selection = RACSelection(stored, egress_interfaces=[2], criteria_tags=("1sp",))
        egress.propagate([selection], now_ms=0.0)
        egress.register([selection], now_ms=0.0)
        assert stored._segment is not None
        assert ingress.expire(now_ms=expires_at - margin / 2) == 1
        assert beacon.digest() not in ingress.database
        assert egress.expire(now_ms=expires_at - margin / 2) == (1, 1)

    def test_loop_suppression_follows_links_attached_later(self, topology, key_store):
        """The interface -> neighbour memo is dropped by ``attach_link``."""
        _ingress, egress, _transport = gateway_pair(topology, 3, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        selection = self._selection(key_store, beacon, egress_interfaces=[1, 2, 3])
        assert egress.propagate([selection], now_ms=0.0) == 2
        assert egress.stats.suppressed_loops == 1  # interface 1 leads back to AS 2
        assert egress.view.neighbor_as(3) == 5

        # Interface 3 is re-homed to AS 2: the next beacon must not go there.
        egress.view.attach_link(
            3,
            Link(
                interface_a=(2, 9),
                interface_b=(3, 3),
                latency_ms=1.0,
                bandwidth_mbps=10.0,
                relationship=Relationship.PEER,
            ),
        )
        again = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], created_at_ms=1.0)
        assert egress.propagate([self._selection(key_store, again, [1, 2, 3])], now_ms=0.0) == 1
        assert egress.stats.suppressed_loops == 3

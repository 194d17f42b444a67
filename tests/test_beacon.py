"""Tests for PCBs: construction, extension, metrics, signatures, expiry."""

import dataclasses
import hashlib
import pickle
from types import SimpleNamespace

import pytest

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import ASEntry, Beacon, BeaconBuilder
from repro.core.control_service import IrecControlService
from repro.core.databases import EgressRecord, IngressDatabase, PathService, RegisteredPath
from repro.core.extensions import ExtensionSet
from repro.core.messages import PathRegistrationMessage
from repro.core.rac import RACSelection
from repro.core.staticinfo import StaticInfo
from repro.crypto.hashing import perf_counters
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError, SignatureError
from repro.topology.entities import normalize_link_id

from tests.conftest import cold_twin, make_beacon, rebuild_chain
from tests.test_perf_equivalence import DERIVATIONS, naive_encode


def builder_for(as_id, key_store):
    return BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))


class TestOrigination:
    def test_origin_beacon_shape(self, key_store):
        builder = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store))
        beacon = builder.originate(egress_interface=2, created_at_ms=100.0)
        assert beacon.origin_as == 1
        assert beacon.hop_count == 1
        assert beacon.origin_interface == 2
        assert beacon.last_as == 1
        assert not beacon.is_terminated

    def test_origin_signature_verifies(self, key_store):
        builder = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store))
        beacon = builder.originate(egress_interface=2, created_at_ms=0.0)
        beacon.verify(Verifier(key_store=key_store))


class TestExtension:
    def test_extension_appends_hop(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2), (3, 1, 2)])
        assert beacon.as_path() == (1, 2, 3)
        assert beacon.hop_count == 3
        assert beacon.last_as == 3

    def test_loop_rejected(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        builder = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store))
        signed = perf_counters()["signature_sign"]
        with pytest.raises(LoopError):
            builder.extend(beacon, ingress_interface=3, egress_interface=4)
        with pytest.raises(LoopError):
            builder.terminate(beacon, ingress_interface=3)
        # The check runs before anything is signed.
        assert perf_counters()["signature_sign"] == signed

    def test_terminated_beacon_cannot_be_extended(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, None)])
        assert beacon.is_terminated
        builder = BeaconBuilder(as_id=3, signer=Signer(as_id=3, key_store=key_store))
        signed = perf_counters()["signature_sign"]
        with pytest.raises(BeaconError):
            builder.extend(beacon, ingress_interface=1, egress_interface=2)
        with pytest.raises(BeaconError):
            builder.terminate(beacon, ingress_interface=1)
        assert perf_counters()["signature_sign"] == signed

    def test_signature_chain_verifies_after_extension(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, 2), (3, 2, None)])
        beacon.verify(Verifier(key_store=key_store))

    def test_tampering_breaks_verification(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        tampered_entry = dataclasses.replace(beacon.entries[0], egress_interface=9)
        tampered = rebuild_chain(beacon.header, (tampered_entry, beacon.entries[1]))
        with pytest.raises(SignatureError):
            tampered.verify(Verifier(key_store=key_store))


class TestMetrics:
    def test_latency_accumulates_links_and_intra(self, key_store):
        beacon = make_beacon(
            key_store,
            [(1, None, 1), (2, 1, 2), (3, 1, None)],
            link_latencies=[10.0, 20.0, 0.0],
            intra_latencies=[0.0, 5.0, 0.0],
        )
        assert beacon.total_latency_ms() == pytest.approx(35.0)

    def test_bottleneck_bandwidth(self, key_store):
        beacon = make_beacon(
            key_store,
            [(1, None, 1), (2, 1, 2), (3, 1, 2)],
            link_bandwidths=[1000.0, 200.0, 800.0],
        )
        assert beacon.bottleneck_bandwidth_mbps() == 200.0

    def test_bandwidth_of_terminal_only_origin(self, key_store):
        builder = BeaconBuilder(as_id=1, signer=Signer(as_id=1, key_store=key_store))
        beacon = builder.originate(
            egress_interface=1, created_at_ms=0.0, static_info=StaticInfo()
        )
        assert beacon.bottleneck_bandwidth_mbps() == float("inf")

    def test_links_between_consecutive_entries(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 7), (2, 3, 5), (3, 9, None)])
        assert beacon.links() == (((1, 7), (2, 3)), ((2, 5), (3, 9)))

    def test_interfaces_listing(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 7), (2, 3, 5)])
        assert (1, 7) in beacon.interfaces()
        assert (2, 3) in beacon.interfaces()
        assert (2, 5) in beacon.interfaces()


class TestLifetimeAndEncoding:
    def test_expiry(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 1)], validity_ms=1000.0)
        assert not beacon.is_expired(500.0)
        assert beacon.is_expired(1000.0)
        assert beacon.expires_at_ms() == 1000.0

    def test_digest_changes_with_content(self, key_store, beacon_factory):
        a = beacon_factory([(1, None, 1), (2, 1, 2)])
        b = beacon_factory([(1, None, 1), (2, 1, 3)])
        assert a.digest() != b.digest()

    def test_encode_is_deterministic(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        assert beacon.encode() == beacon.encode()

    def test_contains_as(self, key_store, beacon_factory):
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        assert beacon.contains_as(1)
        assert beacon.contains_as(2)
        assert not beacon.contains_as(3)


class TestExtensionsOnBeacons:
    def test_target_and_algorithm_accessors(self, key_store):
        extensions = ExtensionSet().with_target(9).with_algorithm("algo", "ff" * 32)
        beacon = make_beacon(key_store, [(1, None, 1)], extensions=extensions)
        assert beacon.target_as == 9
        assert beacon.algorithm_id == "algo"
        assert beacon.interface_group_id is None

    def test_interface_group_accessor(self, key_store):
        extensions = ExtensionSet().with_interface_group(3)
        beacon = make_beacon(key_store, [(1, None, 1)], extensions=extensions)
        assert beacon.interface_group_id == 3

    def test_extensions_covered_by_signature(self, key_store):
        extensions = ExtensionSet().with_target(9)
        beacon = make_beacon(key_store, [(1, None, 1)], extensions=extensions)
        stripped = rebuild_chain(
            dataclasses.replace(beacon.header, extensions=ExtensionSet()), beacon.entries
        )
        with pytest.raises(SignatureError):
            stripped.verify(Verifier(key_store=key_store))


class TestInheritedState:
    """A child beacon shares what its parent derived; nothing else does."""

    def test_a_chain_holds_one_digest_and_one_link_id_per_hop(self, key_store):
        # Every prefix of a 12-hop chain stays alive and is treated as the
        # ingress database and egress gateway along a path treat it: it is
        # digested, link-indexed, loop-checked and extended; the last one
        # is terminated into a segment and registered.  Re-deriving per
        # beacon would hold 78 digest strings, 66 link ids and 78 entry
        # encodings; a beacon that is its parent plus one hop holds one per
        # hop, and one header part for the chain.
        beacon = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        prefixes = []
        for as_id in range(2, 14):
            prefixes.append(beacon)
            assert IngressDatabase(local_as=as_id).insert(
                CandidateBeacon(beacon, ingress_interface=2, received_at_ms=0.0)
            )
            builder = builder_for(as_id, key_store)
            if as_id < 13:
                beacon = builder.extend(beacon, ingress_interface=2, egress_interface=1)
            else:
                segment = builder.terminate(beacon, ingress_interface=2)
        paths = PathService()
        assert paths.register(RegisteredPath(segment, criteria_tags=("1sp",), registered_at_ms=0.0))
        (path,) = paths.paths_to(1)
        assert path.segment is segment
        # The registered segment's terminal signature part was encoded for
        # its digest and is held by nothing: no wire tuple, no entry memo.
        assert segment._digest is not None and segment.entry._signature_wire is None
        # AS 7 relays the segment as a down-segment announcement toward AS 1,
        # out its ingress interface, finding its hop without an AS path memo.
        relayed = []
        relay = SimpleNamespace(
            as_id=7, transport=SimpleNamespace(send_message=lambda *sent: relayed.append(sent))
        )
        message = PathRegistrationMessage(origin_as=13, sequence=1, created_at_ms=0.0, path=path)
        assert IrecControlService.receive_path_registration(relay, message, now_ms=0.0)
        assert relayed == [(7, 2, message)] and segment._as_path is None
        # What a RAC candidate keeps beside its link id: its AS path and
        # wire parts (a header part and two per entry), O(L) each; no links
        # tuple and no digest chain.  A registered segment keeps no derived
        # tuple at all.
        derived = memo_slots(Beacon) - PREFIX
        held = {}
        for prefix in prefixes:
            for name in derived:
                if type(getattr(prefix, name)) is tuple:
                    held[name] = held.get(name, 0) + len(getattr(prefix, name))
        assert held == {"_as_path": 78, "_wire": 12 + 2 * 78}
        assert not [name for name in derived if type(getattr(segment, name)) is tuple]
        assert segment.parent is beacon and beacon.hop_count == 12
        assert beacon.digest() == hashlib.sha256(naive_encode(beacon)).hexdigest()
        assert segment.digest() == hashlib.sha256(naive_encode(segment)).hexdigest()
        digests = {id(digest) for prefix in prefixes for digest in prefix.prefix_digests()}
        link_ids = {id(link) for prefix in prefixes for link in prefix.walk_links()}
        headers = {id(prefix.wire()[0]) for prefix in prefixes}
        parts = {id(part) for prefix in prefixes for part in prefix.wire()[1:]}
        assert (len(digests), len(link_ids), len(headers), len(parts)) == (12, 11, 1, 24)
        assert [prefix.prefix_digests() for prefix in prefixes] == [
            beacon.prefix_digests()[: index + 1] for index in range(12)
        ]

    def test_each_operation_makes_one_beacon_and_one_signature(self, key_store, monkeypatch):
        made = []
        for cls in (Beacon, ASEntry):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                made.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        signed = perf_counters()["signature_sign"]
        origin = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        extended = builder_for(2, key_store).extend(origin, ingress_interface=2, egress_interface=1)
        segment = builder_for(3, key_store).terminate(extended, ingress_interface=2)
        assert perf_counters()["signature_sign"] == signed + 3
        assert (made.count(Beacon), made.count(ASEntry)) == (3, 3)
        for parent, child in ((origin, extended), (extended, segment)):
            assert len(child.entries) == len(parent.entries) + 1
            assert all(mine is theirs for mine, theirs in zip(child.entries, parent.entries))
        segment.verify(Verifier(key_store=key_store))

    def test_tampered_copy_of_a_warm_child_inherits_nothing(self, key_store, beacon_factory):
        parent = beacon_factory([(1, None, 1), (2, 1, 2), (3, 1, 2)])
        parent.digest()
        parent.links()
        child = builder_for(4, key_store).extend(parent, ingress_interface=1, egress_interface=2)
        assert child.prefix_digests()[:-1] == parent.prefix_digests()
        forged = dataclasses.replace(child.entries[1], egress_interface=9)
        tampered = rebuild_chain(child.header, child.entries[:1] + (forged,) + child.entries[2:])
        assert tampered.digest() == hashlib.sha256(naive_encode(tampered)).hexdigest()
        assert tampered.digest() != child.digest()
        assert tampered.prefix_digests()[0] == child.prefix_digests()[0]
        assert set(tampered.prefix_digests()[1:]).isdisjoint(child.prefix_digests())
        assert tampered.links()[1] == ((2, 9), (3, 1))

    def test_with_entry_continues_the_chain_only_from_known_bytes(self, beacon_factory):
        # Digesting a cold beacon does not materialise its encoding, so a
        # direct with_entry child derives its bytes through its parent.
        parent = beacon_factory([(1, None, 1), (2, 1, 2)])
        parent.digest()
        child = parent.with_entry(ASEntry(as_id=3, ingress_interface=1, egress_interface=2))
        assert child.prefix_digests()[:-1] == parent.prefix_digests()
        assert child.digest() == hashlib.sha256(naive_encode(child)).hexdigest()
        assert child.encode() == naive_encode(child)

    @pytest.mark.parametrize("warm", [False, True])
    def test_entry_without_ingress_interface_fails_in_links(self, key_store, beacon_factory, warm):
        parent = beacon_factory([(1, None, 1), (2, 1, 2)])
        if warm:
            parent.digest()
            parent.links()
        child = builder_for(3, key_store).extend(parent, ingress_interface=None, egress_interface=2)
        assert child.as_path() == (1, 2, 3)
        with pytest.raises(BeaconError):
            child.links()


#: The slot only :meth:`Beacon.with_entry` fills: the one new link id.
PREFIX = {"_link"}
#: The memos a terminated beacon (a registered segment) never stores.
SEGMENT_UNSTORED = {"_as_path", "_links"}


def memo_slots(cls):
    """The derived-value slots of a record: its fields that are no ``__init__`` argument."""
    return {field.name for field in dataclasses.fields(cls) if not field.init}


def warm(beacon):
    """Derive everything a beacon memoizes."""
    for derive in DERIVATIONS.values():
        derive(beacon)
    return beacon


class TestSlottedRecords:
    """Beacons, entries and their per-store / per-round wrappers are slotted."""

    @pytest.fixture
    def records(self, beacon_factory):
        beacon = warm(beacon_factory([(1, None, 1), (2, 1, 2), (3, 1, None)]))
        stored = CandidateBeacon(beacon, ingress_interface=1, received_at_ms=0.0)
        return [
            beacon,
            beacon.entries[0],
            beacon.entries[0].static_info,
            stored,
            RegisteredPath(segment=beacon, criteria_tags=("1sp",), registered_at_ms=0.0),
            EgressRecord(expires_at_ms=1.0),
            CandidateBeacon(beacon, ingress_interface=1),
            RACSelection(stored, egress_interfaces=[1], criteria_tags=("1sp",)),
        ]

    def test_no_record_has_an_instance_dict_or_takes_an_undeclared_attribute(self, records):
        for record in records:
            assert not hasattr(record, "__dict__"), type(record)
            with pytest.raises(AttributeError):
                object.__setattr__(record, "undeclared", 1)

    def test_declared_fields_of_frozen_records_stay_frozen(self, records):
        for record in records:
            if not type(record).__dataclass_params__.frozen:
                continue
            for field in dataclasses.fields(record):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, field.name, None)

    def test_memo_slots_are_every_slot_that_is_no_protocol_field(self):
        for cls in (Beacon, ASEntry, CandidateBeacon):
            fields = dataclasses.fields(cls)
            assert memo_slots(cls)
            assert [field.name for field in fields] == list(cls.__slots__)
            for field in fields:
                if not field.init:
                    assert field.name.startswith("_") and field.default is None
                    assert not field.compare and not field.repr

    def test_a_stored_record_holds_one_memo_its_terminated_segment(self, records):
        stored = records[3]
        assert memo_slots(CandidateBeacon) == {"_segment"} and stored._segment is None
        segment = records[0]
        object.__setattr__(stored, "_segment", segment)
        twin = dataclasses.replace(stored)
        assert twin._segment is None
        assert twin == stored and hash(twin) == hash(stored) and repr(twin) == repr(stored)
        assert pickle.loads(pickle.dumps(stored))._segment == segment

    def test_warm_beacon_equals_its_cold_twin_which_holds_no_memo(self, records, beacon_factory):
        """Every derivation fills its slot on an open beacon; a terminated
        one (the fixture's segment) leaves the AS path and links unstored."""
        segment = records[0]
        beacon = warm(beacon_factory([(1, None, 1), (2, 1, 2), (3, 1, 2)]))
        for warmed, unstored in ((beacon, set()), (segment, SEGMENT_UNSTORED)):
            derived = memo_slots(Beacon) - PREFIX
            filled = {name for name in derived if getattr(warmed, name) is not None}
            assert filled == derived - unstored
            # A copy of the beacon alone starts cold; a rebuilt chain is cold throughout.
            copy = dataclasses.replace(warmed)
            assert all(getattr(copy, name) is None for name in memo_slots(Beacon))
            twin = cold_twin(warmed)
            chain = [twin]
            while chain[-1].parent is not None:
                chain.append(chain[-1].parent)
            for cold in chain:
                assert all(getattr(cold, name) is None for name in memo_slots(Beacon))
            assert twin == warmed and hash(twin) == hash(warmed) and repr(twin) == repr(warmed)
            assert twin.wire() == warmed.wire() and twin.encoded_size() == warmed.encoded_size()
            assert twin.as_path() == warmed.as_path() and twin.links() == warmed.links()
        entry = beacon.entries[0]
        assert entry._unsigned is not None and entry._signature_wire is not None
        cold_entry = dataclasses.replace(entry)
        assert cold_entry._unsigned is None and cold_entry._signature_wire is None
        assert cold_entry == entry and hash(cold_entry) == hash(entry)
        assert cold_entry.wire() == entry.wire()
        assert all(mine is not theirs for mine, theirs in zip(cold_entry.wire(), entry.wire()))

    def test_pickled_warm_child_answers_without_deriving_again(self, key_store, beacon_factory):
        """An open child: a terminated one stores no AS path or links to ship."""
        parent = warm(beacon_factory([(1, None, 1), (2, 1, 2)]))
        child = warm(
            builder_for(3, key_store).extend(parent, ingress_interface=1, egress_interface=2)
        )
        shipped = pickle.loads(pickle.dumps(child))
        for name in memo_slots(Beacon):
            assert getattr(child, name) is not None, name
            assert getattr(shipped, name) == getattr(child, name), name
        before = perf_counters()
        answers = (
            shipped.digest(),
            shipped.wire(),
            shipped.encoded_size(),
            shipped.prefix_digests(),
        )
        after = perf_counters()
        assert answers == (
            child.digest(),
            child.wire(),
            child.encoded_size(),
            child.prefix_digests(),
        )
        assert b"".join(answers[1]) == naive_encode(child)
        assert answers[2] == len(naive_encode(child))
        # The pickle ships the wire tuple and every entry's two parts in it.
        entries = shipped.entries
        assert all(part is entry._unsigned for part, entry in zip(answers[1][1::2], entries))
        assert all(part is entry._signature_wire for part, entry in zip(answers[1][2::2], entries))
        for counter in ("beacon_digest", "beacon_encode"):
            assert after[counter] == before[counter]

    def test_with_entry_fills_one_link_id_only(self, key_store, beacon_factory):
        parent = warm(beacon_factory([(1, None, 1), (2, 1, 2)]))
        builder = builder_for(3, key_store)
        # A fresh tuple equal to the derived id, as the topology's Link.key is.
        arrival = normalize_link_id((3, 1), (2, 2))
        child = builder.extend(parent, ingress_interface=1, egress_interface=2, arrival=arrival)
        assert child.entries[:-1] == parent.entries
        assert [field.name for field in dataclasses.fields(Beacon) if field.init] == [
            "header",
            "entry",
            "parent",
        ]
        assert child.header is parent.header and child.parent is parent
        filled = {name for name in memo_slots(Beacon) if getattr(child, name) is not None}
        assert filled == PREFIX
        assert child._link is arrival
        derived = builder.extend(parent, ingress_interface=1, egress_interface=2)
        assert derived._link == arrival and derived._link is not arrival
        # Each accessor continues the parent's memo by one element.
        assert all(mine is theirs for mine, theirs in zip(child.wire(), parent.wire()))
        assert child.wire()[-2:] == child.entry.wire()
        assert all(mine is theirs for mine, theirs in zip(child.wire()[-2:], child.entry.wire()))
        assert child.as_path() == parent.as_path() + (3,)
        assert child.links() == parent.links() + (child._link,)
        assert child.links()[-1] is child._link

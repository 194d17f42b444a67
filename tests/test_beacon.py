"""Tests for PCBs: construction, extension, metrics, signatures, expiry."""

import dataclasses
import hashlib
import pickle

import pytest

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import ASEntry, Beacon, BeaconBuilder
from repro.core.databases import EgressRecord, RegisteredPath, StoredBeacon
from repro.core.extensions import ExtensionSet
from repro.core.rac import RACSelection
from repro.core.staticinfo import StaticInfo
from repro.crypto.hashing import perf_counters
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError, SignatureError

from tests.conftest import make_beacon
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
        tampered = dataclasses.replace(beacon, entries=(tampered_entry, beacon.entries[1]))
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

    def test_empty_beacon_rejected_by_last_entry(self):
        beacon = Beacon(origin_as=1, created_at_ms=0.0, entries=())
        with pytest.raises(BeaconError):
            _ = beacon.last_entry
        with pytest.raises(BeaconError):
            beacon.verify(Verifier.__new__(Verifier))  # never reaches the verifier


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
        stripped = dataclasses.replace(beacon, extensions=ExtensionSet())
        with pytest.raises(SignatureError):
            stripped.verify(Verifier(key_store=key_store))


class TestInheritedState:
    """A child beacon shares what its parent derived; nothing else does."""

    def test_a_chain_holds_one_digest_and_one_link_id_per_hop(self, key_store):
        # Every prefix of a 12-hop chain stays alive and is digested and
        # link-indexed before it is extended, as by the ingress databases
        # along a path.  Re-deriving per beacon would hold 78 digest strings
        # and 66 link ids; inheriting holds one per hop.
        beacon = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        prefixes = [beacon]
        for as_id in range(2, 13):
            beacon.digest()
            beacon.links()
            beacon = builder_for(as_id, key_store).extend(
                beacon, ingress_interface=2, egress_interface=1
            )
            prefixes.append(beacon)
        assert beacon.hop_count == 12
        assert beacon.digest() == hashlib.sha256(naive_encode(beacon)).hexdigest()
        digests = {id(digest) for prefix in prefixes for digest in prefix.prefix_digests()}
        link_ids = {id(link) for prefix in prefixes for link in prefix.links()}
        headers = {id(prefix.header_encoding()) for prefix in prefixes}
        assert (len(digests), len(link_ids), len(headers)) == (12, 11, 1)
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
        assert [extended.beacon_id, segment.beacon_id] == [
            origin.beacon_id + 1,
            origin.beacon_id + 2,
        ]
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
        tampered = dataclasses.replace(
            child, entries=child.entries[:1] + (forged,) + child.entries[2:]
        )
        assert tampered.digest() == hashlib.sha256(naive_encode(tampered)).hexdigest()
        assert tampered.digest() != child.digest()
        assert tampered.prefix_digests()[0] == child.prefix_digests()[0]
        assert set(tampered.prefix_digests()[1:]).isdisjoint(child.prefix_digests())
        assert tampered.links()[1] == ((2, 9), (3, 1))

    def test_with_entry_continues_the_chain_only_from_known_bytes(self, beacon_factory):
        # Digesting a cold beacon does not materialise its encoding, so a
        # direct with_entry has no bytes to hand down and the child is cold.
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


#: The slots only :meth:`Beacon.with_entry` fills: the known prefix to continue from.
PREFIX = {"_parent_encoded", "_parent_digests"}


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
        stored = StoredBeacon(beacon, received_on_interface=1, received_at_ms=0.0)
        return [
            beacon,
            beacon.entries[0],
            beacon.entries[0].static_info,
            stored,
            RegisteredPath(segment=beacon, criteria_tags=("1sp",), registered_at_ms=0.0),
            EgressRecord(expires_at_ms=1.0),
            CandidateBeacon(beacon, ingress_interface=1),
            RACSelection(stored, egress_interfaces=[1], criteria_tag="1sp"),
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
        for cls in (Beacon, ASEntry):
            fields = dataclasses.fields(cls)
            assert memo_slots(cls)
            assert [field.name for field in fields] == list(cls.__slots__)
            for field in fields:
                if not field.init:
                    assert field.name.startswith("_") and field.default is None
                    assert not field.compare and not field.repr

    def test_warm_beacon_equals_its_cold_twin_which_holds_no_memo(self, records):
        beacon = records[0]
        twin = dataclasses.replace(beacon)
        assert all(getattr(beacon, name) is not None for name in memo_slots(Beacon) - PREFIX)
        assert all(getattr(twin, name) is None for name in memo_slots(Beacon))
        assert twin == beacon and hash(twin) == hash(beacon) and repr(twin) == repr(beacon)
        entry = beacon.entries[0]
        assert entry._encoded is not None
        cold_entry = dataclasses.replace(entry)
        assert cold_entry._encoded is None
        assert cold_entry == entry and hash(cold_entry) == hash(entry)

    def test_pickled_warm_child_answers_without_deriving_again(self, key_store, beacon_factory):
        parent = warm(beacon_factory([(1, None, 1), (2, 1, 2)]))
        child = warm(
            builder_for(3, key_store).extend(parent, ingress_interface=1, egress_interface=2)
        )
        shipped = pickle.loads(pickle.dumps(child))
        for name in memo_slots(Beacon):
            assert getattr(child, name) is not None, name
            assert getattr(shipped, name) == getattr(child, name), name
        before = perf_counters()
        answers = (shipped.digest(), shipped.encode(), shipped.prefix_digests())
        after = perf_counters()
        assert answers == (child.digest(), child.encode(), child.prefix_digests())
        assert answers[1] == naive_encode(child)
        for counter in ("beacon_digest", "beacon_encode"):
            assert after[counter] == before[counter]

    def test_with_entry_hands_down_memo_slots_only_as_immutables(self, key_store, beacon_factory):
        parent = warm(beacon_factory([(1, None, 1), (2, 1, 2)]))
        child = builder_for(3, key_store).extend(parent, ingress_interface=1, egress_interface=2)
        assert child.entries[:-1] == parent.entries and child.beacon_id != parent.beacon_id
        for field in dataclasses.fields(Beacon):
            if field.init and field.name not in ("entries", "beacon_id"):
                assert getattr(child, field.name) is getattr(parent, field.name)
        handed_down = {name for name in memo_slots(Beacon) if getattr(child, name) is not None}
        assert handed_down == PREFIX | {"_header_encoding", "_as_path", "_links"}
        for name in handed_down:
            assert type(getattr(child, name)) in (bytes, tuple, str), name

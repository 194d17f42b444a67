"""A beacon is its header, its parent and one signed hop.

The layout contract of :mod:`repro.core.beacon`, checked on the objects
the stores keep rather than on derived values (those are
``tests/test_perf_equivalence.py``'s warm ≡ cold properties):

* a chain of ``L`` beacons holds ``L`` entries and no tuple of entries;
* every beacon of a chain holds its origin's one header, and a beacon
  whose parent carries another header cannot be built;
* every entry an AS signs over one interface pair and static-info record
  holds the same unsigned part, and the parts join to the canonical
  encoding;
* the expiry the stores keep is the header's float, and an ingress
  bucket key is the header's key object.
"""

import dataclasses
import gc
import types

import pytest

from repro.algorithms.base import CandidateBeacon
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.core.beacon import ASEntry, Beacon, BeaconBuilder
from repro.core.databases import IngressDatabase, PathService, RegisteredPath, bucket_of
from repro.core.extensions import ExtensionSet
from repro.core.staticinfo import StaticInfo
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer
from repro.exceptions import BeaconError

from tests.conftest import terminated_segments
from tests.test_perf_equivalence import DERIVATIONS
from tests.test_steady_state import signed_fixed_topology

_NOT_STATE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def builder_for(as_id, key_store):
    return BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))


def reachable(roots):
    """Every object reachable from ``roots``, classes and code aside."""
    seen = {}
    pending = list(roots)
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, _NOT_STATE):
            continue
        seen[id(obj)] = obj
        pending.extend(gc.get_referents(obj))
    return list(seen.values())


def stored_beacons(simulation):
    """Every beacon the stores of ``simulation`` keep, ancestors included."""
    pending = []
    for service in simulation.services.values():
        pending += [stored.beacon for stored in service.ingress.database.all_beacons()]
        pending += [path.segment for path in service.path_service.all_paths()]
        pending += terminated_segments(service)
    seen = {}
    while pending:
        beacon = pending.pop()
        if beacon is not None and id(beacon) not in seen:
            seen[id(beacon)] = beacon
            pending.append(beacon.parent)
    return list(seen.values())


def reference_encoding(beacon):
    """The canonical encoding, formatted field by field from the chain's records."""

    def location(coordinate):
        if coordinate is None:
            return "-"
        return f"{coordinate.latitude:.6f},{coordinate.longitude:.6f}"

    header = beacon.header
    parts = [
        f"pcb(origin={header.origin_as},created={header.created_at_ms:.3f},"
        f"validity={header.validity_ms:.3f},{header.extensions.encode()})"
    ]
    for entry in beacon.entries:
        info = entry.static_info
        bandwidth = "-" if info.link_bandwidth_mbps is None else f"{info.link_bandwidth_mbps:.6f}"
        parts.append(
            f"entry(as={entry.as_id},in={entry.ingress_interface},out={entry.egress_interface},"
            f"si(intra={info.intra_latency_ms:.6f},link={info.link_latency_ms:.6f},"
            f"bw={bandwidth},egeo={location(info.egress_location)},"
            f"igeo={location(info.ingress_location)}))sig({entry.signature.hex()})"
        )
    return "|".join(parts).encode("utf-8")


@pytest.fixture(scope="module")
def simulation():
    """A signed tree that registers down-segments and runs HD, five periods in."""
    simulation = signed_fixed_topology()
    for _period in range(5):
        simulation.run_period()
    return simulation


class TestAChainHoldsEachEntryOnce:
    def test_a_12_hop_chain_holds_12_entries_and_no_entries_tuple(self, key_store):
        # Every prefix is stored, link-indexed, loop-checked, derived in
        # full and extended, as the stores and gateways along a path treat
        # it; the last one is terminated and registered.
        beacon = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        prefixes, stores = [], []
        for as_id in range(2, 14):
            prefixes.append(beacon)
            stores.append(IngressDatabase(local_as=as_id))
            assert stores[-1].insert(CandidateBeacon(beacon, ingress_interface=2))
            for derive in DERIVATIONS.values():
                derive(beacon)
            builder = builder_for(as_id, key_store)
            if as_id < 13:
                beacon = builder.extend(beacon, ingress_interface=2, egress_interface=1)
            else:
                segment = builder.terminate(beacon, ingress_interface=2)
        paths = PathService()
        assert paths.register(RegisteredPath(segment, criteria_tags=("1sp",), registered_at_ms=0.0))
        stores.append(paths)

        for roots, hops in ((prefixes, 12), (stores, 13)):
            objects = reachable(roots)
            entries = [obj for obj in objects if type(obj) is ASEntry]
            assert len(entries) == hops
            assert not [
                obj
                for obj in objects
                if type(obj) is tuple and any(type(member) is ASEntry for member in obj)
            ]
        for held in (*prefixes, segment):
            for name in Beacon.__slots__:
                value = getattr(held, name)
                assert not (type(value) is tuple and ASEntry in map(type, value)), name
        assert segment.entries == (*beacon.entries, segment.entry)
        assert Beacon.__slots__[:3] == ("header", "entry", "parent")


class TestOneHeaderPerOrigination:
    def test_a_child_holds_its_parents_header_object(self, key_store, simulation):
        origin = builder_for(1, key_store).originate(
            egress_interface=1, created_at_ms=0.0, extensions=ExtensionSet().with_target(9)
        )
        child = builder_for(2, key_store).extend(origin, ingress_interface=2, egress_interface=1)
        segment = builder_for(3, key_store).terminate(child, ingress_interface=2)
        assert segment.header is child.header is origin.header
        assert (segment.origin_as, segment.target_as, segment.extensions) == (
            1,
            9,
            origin.header.extensions,
        )
        beacons = stored_beacons(simulation)
        children = [beacon for beacon in beacons if beacon.parent is not None]
        assert children
        assert all(beacon.header is beacon.parent.header for beacon in children)
        assert len({id(beacon.header) for beacon in beacons}) < len(beacons)

    def test_one_origination_over_several_interfaces_holds_one_header(self, key_store, simulation):
        builder = builder_for(1, key_store)
        group = ExtensionSet().with_interface_group(2)
        first, second = (
            builder.originate(egress_interface=interface, created_at_ms=5.0, extensions=group)
            for interface in (1, 2)
        )
        assert first.header is second.header and first.digest() != second.digest()
        later = builder.originate(egress_interface=1, created_at_ms=6.0, extensions=group)
        other = builder.originate(
            egress_interface=1, created_at_ms=6.0, extensions=ExtensionSet().with_interface_group(3)
        )
        assert len({id(beacon.header) for beacon in (first, later, other)}) == 3
        # In a run: one header per origin, origination time and extensions.
        headers = {id(beacon.header): beacon.header for beacon in stored_beacons(simulation)}
        originations = {
            (header.origin_as, header.created_at_ms, header.extensions)
            for header in headers.values()
        }
        assert len(headers) == len(originations)

    def test_a_mismatched_parent_header_raises(self, key_store):
        origin = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        child = builder_for(2, key_store).extend(origin, ingress_interface=2, egress_interface=1)
        equal = dataclasses.replace(origin.header)
        stripped = dataclasses.replace(origin.header, extensions=ExtensionSet().with_target(9))
        for header in (equal, stripped):
            with pytest.raises(BeaconError):
                Beacon(header, child.entry, origin)
            with pytest.raises(BeaconError):
                dataclasses.replace(child, header=header)
        # A rebuilt chain under one header is fine.
        assert Beacon(equal, child.entry, Beacon(equal, origin.entry, None)) == Beacon(
            equal, child.entry, Beacon(equal, origin.entry, None)
        )

    def test_the_stores_keep_the_headers_expiry_and_bucket_key(self, key_store, simulation):
        # Two ASes file one origination's beacons under its header's key.
        origin = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        child = builder_for(2, key_store).extend(origin, ingress_interface=2, egress_interface=1)
        for local_as, beacon in ((2, origin), (3, child)):
            database = IngressDatabase(local_as=local_as)
            database.insert(CandidateBeacon(beacon, ingress_interface=2))
            (key,) = database._buckets
            assert key is bucket_of(beacon) is origin.header.bucket()

        served = matched = filed = 0
        keys = set()
        for service in simulation.services.values():
            database = service.ingress.database
            for key, members in database._buckets.items():
                assert all(bucket_of(stored.beacon) == key for stored in members)
                keys.add(id(key))
                filed += 1
            for rac in service.racs:
                if not isinstance(rac.algorithm, HeuristicDisjointnessAlgorithm):
                    continue
                for state in rac.algorithm._state.values():
                    for digest, expires_at_ms in state.served_digests.items():
                        served += 1
                        stored = database.get(digest)
                        if stored is not None:
                            matched += 1
                            assert expires_at_ms is stored.beacon.header.expires_at_ms()
                            assert expires_at_ms is stored.beacon.expires_at_ms()
        assert matched > 0 and served >= matched
        # A key is the header's tuple that opened the bucket, so ASes share
        # the key objects instead of building one per bucket.
        assert 0 < len(keys) < filed


class TestOneUnsignedPartPerInterfacePair:
    def test_the_builder_shares_the_part_while_the_record_is_the_same(self, key_store):
        builder = builder_for(5, key_store)
        shared = StaticInfo(intra_latency_ms=1.0, link_latency_ms=2.0, link_bandwidth_mbps=10.0)
        parents = [
            builder_for(1, key_store).originate(egress_interface=1, created_at_ms=float(t))
            for t in range(3)
        ]
        extended = [
            builder.extend(parent, ingress_interface=2, egress_interface=3, static_info=shared)
            for parent in parents
        ]
        parts = [beacon.entry.unsigned_wire() for beacon in extended]
        assert all(part is parts[0] for part in parts)
        assert all(beacon.entry._unsigned is parts[0] for beacon in extended)
        # An equal record that is another object (a view after attach_link)
        # is encoded afresh: the same bytes, a new part.
        copy = dataclasses.replace(shared)
        again = builder.extend(
            parents[0], ingress_interface=2, egress_interface=3, static_info=copy
        )
        assert again.entry.unsigned_wire() == parts[0]
        assert again.entry.unsigned_wire() is not parts[0]
        # Another interface pair has its own part.
        other = builder.extend(
            parents[0], ingress_interface=2, egress_interface=4, static_info=shared
        )
        assert other.entry.unsigned_wire() != parts[0]
        for beacon in (*extended, again, other):
            assert b"".join(beacon.wire()) == beacon.encode() == reference_encoding(beacon)

    def test_every_stored_entry_holds_its_pairs_one_part(self, simulation):
        beacons = stored_beacons(simulation)
        by_pair = {}
        for beacon in beacons:
            entry = beacon.entry
            key = (entry.as_id, entry.ingress_interface, entry.egress_interface)
            by_pair.setdefault((key, id(entry.static_info)), set()).add(id(entry._unsigned))
            assert entry._unsigned is not None
            wire = beacon.wire()
            assert len(wire) == 2 * beacon.hop_count + 1
            assert b"".join(wire) == reference_encoding(beacon)
        assert len(by_pair) < len(beacons)
        assert all(len(parts) == 1 for parts in by_pair.values())

    def test_a_terminal_entry_keeps_no_signature_part(self, key_store):
        origin = builder_for(1, key_store).originate(egress_interface=1, created_at_ms=0.0)
        segment = builder_for(2, key_store).terminate(origin, ingress_interface=2)
        segment.digest()
        assert segment.entry._unsigned is not None and segment.entry._signature_wire is None
        assert origin.entry._signature_wire is not None
        assert segment.wire()[-1] == b"sig(%s)" % segment.entry.signature.hex().encode()


def test_reference_encoding_is_independent_of_the_memos():
    key_store = KeyStore()
    origin = builder_for(1, key_store).originate(
        egress_interface=1,
        created_at_ms=2.5,
        static_info=StaticInfo(link_latency_ms=3.0, link_bandwidth_mbps=100.0),
        extensions=ExtensionSet().with_interface_group(4),
    )
    assert reference_encoding(origin) == (
        b"pcb(origin=1,created=2.500,validity=21600000.000,"
        + origin.header.extensions.encode().encode()
        + b")|entry(as=1,in=None,out=1,si(intra=0.000000,link=3.000000,bw=100.000000,"
        + b"egeo=-,igeo=-))sig("
        + origin.entry.signature.hex().encode()
        + b")"
    )

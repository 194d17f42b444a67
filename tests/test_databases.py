"""Tests for the ingress database, egress database and path service."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import CandidateBeacon
from repro.core import databases
from repro.core.databases import (
    EgressDatabase,
    IngressDatabase,
    PathService,
    RegisteredPath,
    Registration,
    bucket_of,
)
from repro.core.extensions import ExtensionSet
from repro.crypto.keys import KeyStore
from repro.exceptions import GatewayError
from repro.topology.entities import normalize_link_id

from tests.conftest import down_paths_to, make_beacon


#: The AS every ingress database in this module is held by.
_LOCAL_AS = 9


def stored(beacon, interface=1, at_ms=0.0):
    return CandidateBeacon(beacon=beacon, ingress_interface=interface, received_at_ms=at_ms)


def crossing(link_id):
    """The scan reference for ``remove_crossing_link``: a stored beacon
    crosses a link on its path or as the link it arrived over at AS 9."""
    failed = normalize_link_id(*link_id)
    return lambda held: failed in _links_with_arrival(held)


def _links_with_arrival(held):
    """The links a beacon held by AS 9 is indexed under, rebuilt by hand."""
    last = held.beacon.entries[-1]
    if last.egress_interface is None:
        return held.beacon.links()
    arrival = normalize_link_id(
        (last.as_id, last.egress_interface), (_LOCAL_AS, held.ingress_interface)
    )
    return held.beacon.links() + (arrival,)


class TestIngressDatabase:
    def test_insert_and_duplicate(self, key_store, beacon_factory):
        database = IngressDatabase(local_as=_LOCAL_AS)
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        assert database.insert(stored(beacon))
        assert not database.insert(stored(beacon))
        assert len(database) == 1
        assert beacon.digest() in database

    def test_bucketing_by_origin_group_target_algorithm(self, key_store, beacon_factory):
        database = IngressDatabase(local_as=_LOCAL_AS)
        plain = beacon_factory([(1, None, 1), (2, 1, 2)])
        grouped = beacon_factory(
            [(1, None, 1), (3, 1, 2)], extensions=ExtensionSet().with_interface_group(2)
        )
        pulled = beacon_factory(
            [(4, None, 1), (2, 1, 2)], extensions=ExtensionSet().with_target(9)
        )
        on_demand = beacon_factory(
            [(4, None, 1), (3, 1, 2)],
            extensions=ExtensionSet().with_algorithm("algo", "hash"),
        )
        for beacon in (plain, grouped, pulled, on_demand):
            database.insert(stored(beacon))
        buckets = database.bucket_keys()
        assert (1, None, None, None) in buckets
        assert (1, 2, None, None) in buckets
        assert (4, None, 9, None) in buckets
        assert (4, None, None, "algo") in buckets
        assert len(database.beacons_in_bucket((1, None, None, None))) == 1

    def test_get_by_digest(self, key_store, beacon_factory):
        database = IngressDatabase(local_as=_LOCAL_AS)
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        database.insert(stored(beacon, interface=5))
        fetched = database.get(beacon.digest())
        assert fetched is not None
        assert fetched.ingress_interface == 5
        assert database.get("missing") is None

    def test_expiry(self, key_store):
        database = IngressDatabase(local_as=_LOCAL_AS)
        short = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=100.0)
        lasting = make_beacon(key_store, [(3, None, 1), (2, 1, 2)], validity_ms=10_000.0)
        database.insert(stored(short))
        database.insert(stored(lasting))
        removed = database.remove_expired(now_ms=500.0)
        assert removed == 1
        assert len(database) == 1
        assert database.get(lasting.digest()) is not None

    def test_expiry_margin(self, key_store, monkeypatch):
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", 1000.0)
        database = IngressDatabase(local_as=_LOCAL_AS)
        soon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=500.0)
        database.insert(stored(soon))
        # Not expired yet, but within the soon-to-expire margin.
        assert database.remove_expired(now_ms=0.0) == 1

    def test_all_beacons(self, key_store, beacon_factory):
        database = IngressDatabase(local_as=_LOCAL_AS)
        a = beacon_factory([(1, None, 1), (2, 1, 2)])
        b = beacon_factory([(3, None, 1), (2, 1, 2)])
        database.insert(stored(a))
        database.insert(stored(b))
        assert len(database.all_beacons()) == 2


class TestEgressDatabase:
    def test_filter_new_interfaces(self):
        database = EgressDatabase()
        fresh = database.filter_new_interfaces("digest", [1, 2, 3], expires_at_ms=100.0)
        assert fresh == [1, 2, 3]
        again = database.filter_new_interfaces("digest", [2, 3, 4], expires_at_ms=100.0)
        assert again == [4]
        assert database._records["digest"].egress_interfaces == (1, 2, 3, 4)

    def test_expiry(self):
        database = EgressDatabase()
        database.filter_new_interfaces("a", [1], expires_at_ms=100.0)
        database.filter_new_interfaces("b", [1], expires_at_ms=10_000.0)
        assert database.remove_expired(now_ms=500.0) == 1
        assert "a" not in database
        assert "b" in database

    def test_len(self):
        database = EgressDatabase()
        database.filter_new_interfaces("a", [1], expires_at_ms=1.0)
        assert len(database) == 1


class TestPathService:
    def _registered(self, key_store, origin=1, tags=("1sp",), via=2):
        segment = make_beacon(key_store, [(origin, None, 1), (via, 1, None)])
        return RegisteredPath(segment=segment, criteria_tags=tags, registered_at_ms=0.0)

    def test_only_terminated_segments_accepted(self, key_store, beacon_factory):
        not_terminated = beacon_factory([(1, None, 1), (2, 1, 2)])
        with pytest.raises(GatewayError):
            RegisteredPath(segment=not_terminated, criteria_tags=("x",), registered_at_ms=0.0)

    def test_register_and_query(self, key_store):
        service = PathService()
        path = self._registered(key_store)
        assert service.register(path)
        assert len(service.paths_to(1)) == 1
        assert [p.criteria_tags for p in service.all_paths()] == [("1sp",)]
        assert service.paths_to(99) == []

    def test_register_reports_news_repeat_and_refusal(self, key_store):
        """The outcome is false only for a refusal, and news only when the
        store changed."""
        service = PathService(max_paths_per_key=1)
        first = self._registered(key_store, via=2, tags=("1sp",))
        assert service.register(first) is Registration.NEWS
        again = RegisteredPath(first.segment, criteria_tags=("1sp",), registered_at_ms=1.0)
        assert service.register(again) is Registration.REPEAT
        gained = RegisteredPath(first.segment, criteria_tags=("don",), registered_at_ms=2.0)
        assert service.register(gained) is Registration.NEWS
        assert service.register(gained) is Registration.REPEAT
        outcome = service.register(self._registered(key_store, via=3, tags=("1sp",)))
        assert outcome is Registration.REFUSED and not outcome
        assert len(service) == 1

    def test_duplicate_registration_merges_tags(self, key_store):
        service = PathService()
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)])
        service.register(RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0))
        service.register(RegisteredPath(segment=segment, criteria_tags=("don",), registered_at_ms=1.0))
        assert len(service) == 1
        assert set(service.paths_to(1)[0].criteria_tags) == {"1sp", "don"}

    def test_reregistration_keeps_the_first_registration_time(self, key_store):
        service = PathService()
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)])
        service.register(RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0))
        service.register(RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=7.0))
        merged = service.paths_to(1)[0]
        assert merged.registered_at_ms == pytest.approx(0.0)
        assert service.get(segment.digest()) is merged
        assert service.get("missing") is None

    def test_repeat_registration_keeps_the_record_and_notifies_no_one(self, key_store):
        service = PathService()
        notified = []
        service.add_invalidation_listener(notified.append)
        first = self._registered(key_store)
        assert service.register(first)
        repeat = RegisteredPath(
            segment=first.segment, criteria_tags=("1sp",), registered_at_ms=7.0
        )
        assert service.register(repeat) is Registration.REPEAT
        assert service.get(first.segment.digest()) is first
        assert notified == [1]

    def test_repeat_of_a_subset_of_the_stored_tags_changes_nothing(self, key_store):
        service = PathService()
        notified = []
        service.add_invalidation_listener(notified.append)
        first = self._registered(key_store, tags=("1sp", "don"))
        assert service.register(first)
        subset = RegisteredPath(segment=first.segment, criteria_tags=("don",), registered_at_ms=3.0)
        assert service.register(subset) is Registration.REPEAT
        assert service.get(first.segment.digest()) is first
        assert notified == [1]

    def test_merge_replaces_the_record_and_notifies_its_origin(self, key_store):
        service = PathService()
        notified = []
        service.add_invalidation_listener(notified.append)
        first = self._registered(key_store, origin=4)
        service.register(first)
        merge = RegisteredPath(segment=first.segment, criteria_tags=("don",), registered_at_ms=3.0)
        assert service.register(merge) is Registration.NEWS
        merged = service.get(first.segment.digest())
        assert merged is not first and merged is not merge
        assert merged.criteria_tags == ("1sp", "don") and merged.registered_at_ms == 0.0
        assert notified == [4, 4]

    def test_quota_per_tag_origin_group(self, key_store):
        service = PathService(max_paths_per_key=2)
        accepted = 0
        for via in range(2, 7):
            path = self._registered(key_store, via=via)
            if service.register(path):
                accepted += 1
        assert accepted == 2

    def test_quota_is_per_tag(self, key_store):
        service = PathService(max_paths_per_key=1)
        assert service.register(self._registered(key_store, via=2, tags=("1sp",)))
        # A different criteria tag has its own quota.
        assert service.register(self._registered(key_store, via=3, tags=("don",)))
        # Same tag again: rejected.
        refused = self._registered(key_store, via=4, tags=("1sp",))
        assert service.register(refused) is Registration.REFUSED
        assert service.get(refused.segment.digest()) is None

    def test_expiry(self, key_store):
        service = PathService()
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)], validity_ms=100.0)
        service.register(
            RegisteredPath(segment=segment, criteria_tags=("x",), registered_at_ms=0.0)
        )
        assert service.remove_expired(now_ms=1_000.0) == 1
        assert len(service) == 0

    def test_removal_releases_quota_for_reregistration(self, key_store):
        service = PathService(max_paths_per_key=1)
        assert service.register(self._registered(key_store, via=2))
        assert not service.register(self._registered(key_store, via=3))
        # Withdrawing the registered path frees its quota slot again.
        assert service.remove_matching(lambda path: True) == 1
        assert service.register(self._registered(key_store, via=3))

    def test_removal_releases_only_consumed_quota(self, key_store):
        service = PathService(max_paths_per_key=1)
        # Path X fills the "a" quota; path Y is stored via its "b" tag only
        # (the "a" key is already full, so Y consumes no "a" slot).
        assert service.register(self._registered(key_store, via=2, tags=("a",)))
        assert service.register(self._registered(key_store, via=3, tags=("a", "b")))
        # Removing Y must release only "b": the "a" quota is still held by
        # X, so another "a"-tagged path stays rejected.
        assert service.remove_matching(lambda path: "b" in path.criteria_tags) == 1
        assert not service.register(self._registered(key_store, via=4, tags=("a",)))
        # Removing X finally frees "a".
        assert service.remove_matching(lambda path: True) == 1
        assert service.register(self._registered(key_store, via=4, tags=("a",)))


class TestUnifiedExpiryMargins:
    """Satellite regression (PR 4): all three per-AS stores honour one
    expiry horizon, so a beacon never survives in one store after being
    dropped from another."""

    def test_all_stores_drop_within_the_same_margin(self, key_store, monkeypatch):
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", 1_000.0)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=500.0)
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)], validity_ms=500.0)
        ingress = IngressDatabase(local_as=_LOCAL_AS)
        egress = EgressDatabase()
        paths = PathService()
        ingress.insert(stored(beacon))
        egress.filter_new_interfaces(beacon.digest(), [1], expires_at_ms=beacon.expires_at_ms())
        paths.register(
            RegisteredPath(segment=segment, criteria_tags=("x",), registered_at_ms=0.0)
        )
        # now=0: none of the entries is expired, but all expire within the
        # margin — every store must drop them together.
        assert ingress.remove_expired(now_ms=0.0) == 1
        assert egress.remove_expired(now_ms=0.0) == 1
        assert paths.remove_expired(now_ms=0.0) == 1

    def test_all_stores_keep_entries_outside_the_margin(self, key_store, monkeypatch):
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", 100.0)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], validity_ms=5_000.0)
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)], validity_ms=5_000.0)
        ingress = IngressDatabase(local_as=_LOCAL_AS)
        egress = EgressDatabase()
        paths = PathService()
        ingress.insert(stored(beacon))
        egress.filter_new_interfaces(beacon.digest(), [1], expires_at_ms=beacon.expires_at_ms())
        paths.register(
            RegisteredPath(segment=segment, criteria_tags=("x",), registered_at_ms=0.0)
        )
        assert ingress.remove_expired(now_ms=0.0) == 0
        assert egress.remove_expired(now_ms=0.0) == 0
        assert paths.remove_expired(now_ms=0.0) == 0

    def test_path_service_reports_the_margin_it_applies(self, monkeypatch):
        """The query tier and the benchmark's soundness check read the
        horizon as ``PathService.expiry_margin_ms``; it is the one margin."""
        assert PathService().expiry_margin_ms == databases.EXPIRY_MARGIN_MS == 0.0
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", 250.0)
        assert PathService().expiry_margin_ms == 250.0


class TestIndexedInvalidation:
    """The link/AS indexes behind revocation-driven withdrawal must remove
    exactly what the predicate scan removes."""

    def _populate(self, key_store, database):
        crossing = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        other = make_beacon(key_store, [(3, None, 1), (2, 1, 2)])
        database.insert(stored(crossing, interface=1))
        database.insert(stored(other, interface=1))
        return crossing, other

    def test_indexed_link_removal_matches_scan(self, key_store):
        indexed = IngressDatabase(local_as=_LOCAL_AS)
        scanned = IngressDatabase(local_as=_LOCAL_AS)
        a_idx, b_idx = self._populate(key_store, indexed)
        self._populate(key_store, scanned)
        failed = ((1, 1), (2, 1))  # interior link of the first beacon
        assert indexed.remove_crossing_link(failed) == 1
        assert scanned.remove_matching(crossing(failed)) == 1
        assert sorted(s.beacon.digest() for s in indexed.all_beacons()) == sorted(
            s.beacon.digest() for s in scanned.all_beacons()
        )
        assert a_idx.digest() not in indexed
        assert b_idx.digest() in indexed

    def test_indexed_arrival_link_removal(self, key_store):
        # Both beacons arrived over 2.2 -> 9.1; failing that arrival link
        # must purge them from the index and the scan alike.
        indexed = IngressDatabase(local_as=_LOCAL_AS)
        scanned = IngressDatabase(local_as=_LOCAL_AS)
        self._populate(key_store, indexed)
        self._populate(key_store, scanned)
        arrival = ((2, 2), (9, 1))
        assert indexed.remove_crossing_link(arrival) == 2
        assert scanned.remove_matching(crossing(arrival)) == 2
        assert len(indexed) == 0 and len(scanned) == 0

    def test_indexed_as_removal_matches_scan(self, key_store):
        indexed = IngressDatabase(local_as=_LOCAL_AS)
        scanned = IngressDatabase(local_as=_LOCAL_AS)
        self._populate(key_store, indexed)
        self._populate(key_store, scanned)
        assert indexed.remove_crossing_as(1) == 1
        assert scanned.remove_matching(lambda s: s.beacon.contains_as(1)) == 1
        assert indexed.remove_crossing_as(2) == 1
        assert scanned.remove_matching(lambda s: s.beacon.contains_as(2)) == 1
        assert len(indexed) == 0 and len(scanned) == 0

    def test_index_cleaned_on_generic_removal(self, key_store):
        database = IngressDatabase(local_as=_LOCAL_AS)
        first, _other = self._populate(key_store, database)
        # Remove through the generic predicate path, then make sure the
        # link index no longer resurrects the digest.
        assert database.remove_matching(
            lambda s: s.beacon.digest() == first.digest()
        ) == 1
        assert database.remove_crossing_link(((1, 1), (2, 1))) == 0

    def test_path_service_link_and_as_indexes(self, key_store):
        service = PathService()
        crossing = make_beacon(key_store, [(1, None, 1), (2, 1, None)])
        other = make_beacon(key_store, [(3, None, 1), (2, 1, None)])
        service.register(
            RegisteredPath(segment=crossing, criteria_tags=("x",), registered_at_ms=0.0)
        )
        service.register(
            RegisteredPath(segment=other, criteria_tags=("x",), registered_at_ms=0.0)
        )
        assert service.remove_crossing_link(((1, 1), (2, 1))) == 1
        assert service.get(crossing.digest()) is None
        assert service.get(other.digest()) is not None
        assert service.remove_crossing_as(3) == 1
        assert len(service) == 0
        # Quota was released along the indexed removals.
        assert service.register(
            RegisteredPath(segment=crossing, criteria_tags=("x",), registered_at_ms=1.0)
        )


# ---------------------------------------------------------------------------
# Index ⇔ store consistency of the path service (convergence probes trust it)
# ---------------------------------------------------------------------------

_ORIGINS, _MIDS, _TERMINAL = (1, 2, 3), (4, 5), 6


@lru_cache(maxsize=1)
def _segment_pool():
    """Three-hop segments, 3 origins x 2 transits, long- and short-lived.

    Segments through one transit share its link towards the terminal AS
    whatever their origin; the short-lived twins cross the same links
    under another digest and are what ``remove_expired(5_000)`` purges.
    """
    key_store = KeyStore()
    return tuple(
        make_beacon(
            key_store,
            [(origin, None, mid), (mid, origin, 9), (_TERMINAL, mid, None)],
            validity_ms=validity_ms,
        )
        for origin in _ORIGINS
        for mid in _MIDS
        for validity_ms in (1_000.0, 3_600_000.0)
    )


def _pool_links():
    return sorted({link for segment in _segment_pool() for link in segment.links()})


_POOL_INDEX = st.integers(0, len(_ORIGINS) * len(_MIDS) * 2 - 1)
_PATH_SERVICE_OPS = st.one_of(
    st.tuples(st.just("register"), _POOL_INDEX, st.sampled_from([("a",), ("b",), ("a", "b")])),
    st.tuples(st.just("remove_crossing_link"), st.integers(0, 8)),
    st.tuples(st.just("remove_crossing_as"), st.sampled_from(_ORIGINS + _MIDS)),
    st.tuples(st.just("remove_matching"), st.sets(_POOL_INDEX, max_size=4)),
    st.tuples(st.just("remove_expired"), st.sampled_from([0.0, 5_000.0])),
)


def _records_by_origin(service):
    """Origin → [(digest, record)], in store order."""
    snapshot = {}
    for digest, path in service._by_digest.items():
        snapshot.setdefault(path.segment.origin_as, []).append((digest, path))
    return snapshot


def _same_records(before, after):
    return len(before) == len(after) and all(
        old_digest == new_digest and old == new
        for (old_digest, old), (new_digest, new) in zip(before, after)
    )


def _assert_path_indexes_equal_a_rebuild(service):
    """Every index list equals a rebuild from ``_by_digest`` in store order
    (a duplicate or a stale member fails), the destination-keyed view
    equals the same filter by terminal AS, and the quota equals a recount
    of the consumed tags."""
    by_link, by_origin, by_terminal, quota = {}, {}, {}, {}
    for digest, path in service._by_digest.items():
        segment = path.segment
        for link in segment.links():
            by_link.setdefault(link, []).append(digest)
        by_origin.setdefault(segment.origin_as, []).append(digest)
        by_terminal.setdefault(segment.last_as, []).append(path)
        for tag in service._consumed[digest]:
            key = (tag, segment.origin_as, segment.interface_group_id)
            quota[key] = quota.get(key, 0) + 1
    assert service._by_link == by_link
    assert service._by_origin == by_origin
    for terminal_as, paths in by_terminal.items():
        assert list(map(id, down_paths_to(service, terminal_as))) == list(map(id, paths))
    assert service._consumed.keys() == service._by_digest.keys()
    assert service._quota == quota


class TestPathServiceIndexConsistency:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_PATH_SERVICE_OPS, max_size=30))
    def test_indexes_equal_a_rebuild_from_the_store(self, ops):
        """Property: after every register / merge / withdrawal / purge the
        link and origin indexes equal a rebuild from ``_by_digest`` (AS
        departure derives from the link index, so there is no third one to
        drift), the store's records filtered by
        terminal AS in store order, the quota equals a recount of the tags
        each path consumed (some register with two tags and take one slot),
        the crossing-link accessor equals a scan, and the listeners were
        told exactly the origins whose digest set or record changed by value
        (a repeat registration changes nothing and tells no one)."""
        pool, links = _segment_pool(), _pool_links()
        service = PathService(max_paths_per_key=1)
        notified = []
        service.add_invalidation_listener(notified.append)
        for step, (name, argument, *tags) in enumerate(ops):
            before = _records_by_origin(service)
            del notified[:]
            if name == "register":
                service.register(
                    RegisteredPath(
                        segment=pool[argument],
                        criteria_tags=tags[0],
                        registered_at_ms=float(step),
                    )
                )
            elif name == "remove_crossing_link":
                service.remove_crossing_link(links[argument % len(links)])
            elif name == "remove_matching":
                doomed = {pool[index].digest() for index in argument}
                service.remove_matching(lambda path: path.segment.digest() in doomed)
            else:
                getattr(service, name)(argument)

            after = _records_by_origin(service)
            changed = {
                origin
                for origin in before.keys() | after.keys()
                if not _same_records(before.get(origin, []), after.get(origin, []))
            }
            assert set(notified) == changed

            _assert_path_indexes_equal_a_rebuild(service)
            for link in links:
                assert service.origins_crossing_link(link) == {
                    path.segment.origin_as
                    for path in service.all_paths()
                    if link in path.segment.links()
                }


# ---------------------------------------------------------------------------
# AS departure is derived from the link index: it must equal the predicate scan
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _departure_pools():
    """Stored beacons (held by AS 9) and registered segments for the property.

    Beacons: single-entry ones (their only link is the arrival link),
    two- and three-hop ones over parallel links between the same AS pairs,
    pull beacons whose target is the local AS (not on their path), and one
    whose path crosses the local AS itself.  Segments: three hops, two hops
    over parallel links, and down-segments that start at the local AS, as
    registered at their origin.
    """
    key_store = KeyStore()
    to_local = ExtensionSet().with_target(_LOCAL_AS)
    beacons = [
        make_beacon(key_store, [(origin, None, egress)], extensions=extensions)
        for origin in (1, 2)
        for egress in (1, 2)
        for extensions in (None, to_local)
    ]
    beacons += [
        make_beacon(key_store, [(origin, None, out), (mid, out, 7)])
        for origin in (1, 2, 3)
        for mid in (4, 5)
        for out in (mid, mid + 10)
    ]
    beacons += [
        make_beacon(key_store, [(3, None, 4), (4, 3, 5), (5, 4, 7)], extensions=to_local),
        make_beacon(key_store, [(1, None, 5), (5, 1, 4), (4, 5, 7)]),
        make_beacon(key_store, [(1, None, 3), (_LOCAL_AS, 1, 2), (4, 1, 7)]),
    ]
    segments = [
        make_beacon(key_store, [(origin, None, out), (mid, out, 9), (6, mid, None)])
        for origin in (1, 2, _LOCAL_AS)
        for mid in (4, 5)
        for out in (mid, mid + 10)
    ]
    segments += [
        make_beacon(key_store, [(origin, None, out), (6, out, None)])
        for origin in (1, _LOCAL_AS)
        for out in (1, 2)
    ]
    return tuple(beacons), tuple(segments)


_DEPARTING = st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, _LOCAL_AS)), min_size=1, max_size=3)


class TestAsDepartureEqualsTheScan:
    @settings(max_examples=80, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, len(_departure_pools()[0]) - 1), st.sampled_from((1, 2))),
            max_size=24,
        ),
        departing=_DEPARTING,
    )
    def test_ingress_database(self, arrivals, departing):
        pool = _departure_pools()[0]
        derived, scanned = IngressDatabase(local_as=_LOCAL_AS), IngressDatabase(local_as=_LOCAL_AS)
        for index, interface in arrivals:
            derived.insert(stored(pool[index], interface=interface))
            scanned.insert(stored(pool[index], interface=interface))
        for gone_as in departing:
            assert derived.remove_crossing_as(gone_as) == scanned.remove_matching(
                lambda s: s.beacon.contains_as(gone_as)
            )
            assert list(derived._by_digest) == list(scanned._by_digest)
            assert derived._buckets == scanned._buckets
            by_link = {}
            for digest, held in derived._by_digest.items():
                for link in _links_with_arrival(held):
                    by_link.setdefault(link, []).append(digest)
            assert derived._by_link == by_link

    @settings(max_examples=80, deadline=None)
    @given(
        registered=st.lists(st.integers(0, len(_departure_pools()[1]) - 1), max_size=24),
        departing=_DEPARTING,
    )
    def test_path_service(self, registered, departing):
        pool = _departure_pools()[1]
        derived, scanned = PathService(), PathService()
        for index in registered:
            for service in (derived, scanned):
                service.register(
                    RegisteredPath(segment=pool[index], criteria_tags=("x",), registered_at_ms=0.0)
                )
        for gone_as in departing:
            assert derived.remove_crossing_as(gone_as) == scanned.remove_matching(
                lambda p: p.segment.contains_as(gone_as)
            )
            assert list(derived._by_digest) == list(scanned._by_digest)
            assert derived._quota == scanned._quota
            _assert_path_indexes_equal_a_rebuild(derived)


# ---------------------------------------------------------------------------
# The cached bucket order and the digest → record bucket index
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _bucket_pool():
    """Beacons held by AS 9 over every kind of bucket key, some short-lived.

    Group 0 and no group tie in the bucket sort (as do no target and
    target 0), so the cached order must keep the index's tie order too.
    """
    key_store = KeyStore()
    extension_sets = (
        None,
        ExtensionSet().with_interface_group(0),
        ExtensionSet().with_interface_group(3),
        ExtensionSet().with_target(0),
        ExtensionSet().with_target(_LOCAL_AS).with_interface_group(3),
        ExtensionSet().with_algorithm("a", "h"),
    )
    return tuple(
        make_beacon(
            key_store,
            [(origin, None, out), (mid, out, 7)],
            extensions=extensions,
            validity_ms=validity_ms,
        )
        for origin in (1, 2)
        for extensions in extension_sets
        for mid, out, validity_ms in ((4, 1, 1_000.0), (5, 2, 60_000.0))
    )


def _operations():
    pool_index = st.integers(0, len(_bucket_pool()) - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pool_index, st.sampled_from((1, 2))),
            st.tuples(st.just("expire"), st.sampled_from((0.0, 2_000.0, 90_000.0))),
            st.tuples(st.just("link"), st.sampled_from((((1, 1), (4, 1)), ((5, 7), (9, 2))))),
            st.tuples(st.just("as"), st.sampled_from((1, 2, 4, 5, _LOCAL_AS))),
            st.tuples(st.just("match"), pool_index),
        ),
        max_size=30,
    )


class TestCachedBucketOrder:
    @settings(max_examples=120, deadline=None)
    @given(operations=_operations())
    def test_cached_order_and_buckets_equal_a_fresh_read(self, operations):
        pool = _bucket_pool()
        database = IngressDatabase(local_as=_LOCAL_AS)
        for operation, *arguments in operations:
            if operation == "insert":
                database.insert(stored(pool[arguments[0]], interface=arguments[1]))
            elif operation == "expire":
                database.remove_expired(arguments[0])
            elif operation == "link":
                database.remove_crossing_link(arguments[0])
            elif operation == "as":
                database.remove_crossing_as(arguments[0])
            else:
                digest = pool[arguments[0]].digest()
                database.remove_matching(lambda held: held.beacon.digest() == digest)
            # What ``bucket_keys`` computed before it was cached.
            fresh = tuple(
                sorted(
                    (key for key, members in database._buckets.items() if members),
                    key=lambda key: (key[0], key[1] or -1, key[2] or -1, key[3] or ""),
                )
            )
            assert database.bucket_keys() == fresh
            held = database.all_beacons()
            assert set(fresh) == {bucket_of(record.beacon) for record in held}
            for bucket in fresh:
                assert database.beacons_in_bucket(bucket) == tuple(
                    record for record in held if bucket_of(record.beacon) == bucket
                )


# ---------------------------------------------------------------------------
# Index ⇔ store consistency of the ingress database and the egress database
# ---------------------------------------------------------------------------


def _bucket_pool_links():
    """Every link a ``_bucket_pool`` beacon is indexed under, over either arrival."""
    return sorted(
        {
            link
            for beacon in _bucket_pool()
            for interface in (1, 2)
            for link in _links_with_arrival(stored(beacon, interface=interface))
        }
    )


def _ingress_operations():
    pool_index = st.integers(0, len(_bucket_pool()) - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("insert"), pool_index, st.sampled_from((1, 2))),
            st.tuples(st.just("remove_expired"), st.sampled_from((0.0, 2_000.0, 90_000.0))),
            st.tuples(st.just("remove_crossing_link"), st.sampled_from(_bucket_pool_links())),
            st.tuples(st.just("remove_crossing_as"), st.sampled_from((1, 2, 4, 5, 7, _LOCAL_AS))),
            st.tuples(st.just("remove_matching"), st.sets(pool_index, max_size=4)),
        ),
        max_size=40,
    )


def _identities(buckets):
    return {key: [id(record) for record in members] for key, members in buckets.items()}


class TestIngressIndexConsistency:
    @settings(max_examples=100, deadline=None)
    @given(operations=_ingress_operations())
    def test_indexes_equal_a_rebuild_from_the_store(self, operations):
        """Property: after every insert / expiry / link or AS invalidation /
        predicate removal, each bucket list and each ``_by_link`` list
        equals a rebuild from ``_by_digest`` in insertion order, and
        ``bucket_keys()`` equals the rebuild's keys sorted."""
        pool = _bucket_pool()
        database = IngressDatabase(local_as=_LOCAL_AS)
        for name, argument, *rest in operations:
            if name == "insert":
                database.insert(stored(pool[argument], interface=rest[0]))
            elif name == "remove_matching":
                doomed = {pool[index].digest() for index in argument}
                database.remove_matching(lambda held: held.beacon.digest() in doomed)
            else:
                getattr(database, name)(argument)

            buckets, by_link = {}, {}
            for digest, held in database._by_digest.items():
                buckets.setdefault(bucket_of(held.beacon), []).append(held)
                for link in _links_with_arrival(held):
                    by_link.setdefault(link, []).append(digest)
            # By identity: a bucket holds the stored record itself.
            assert _identities(database._buckets) == _identities(buckets)
            assert database._by_link == by_link
            assert database.bucket_keys() == tuple(
                sorted(buckets, key=lambda key: (key[0], key[1] or -1, key[2] or -1, key[3] or ""))
            )


_EGRESS_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("filter"),
            st.sampled_from(("a", "b", "c")),
            st.lists(st.integers(-1, 3), max_size=5),
            st.sampled_from((10.0, 20.0, 30.0)),
        ),
        st.tuples(st.just("remove_expired"), st.sampled_from((0.0, 10.0, 15.0, 25.0, 40.0))),
    ),
    max_size=30,
)


class TestEgressDatabaseEqualsASetReference:
    @settings(max_examples=150, deadline=None)
    @given(operations=_EGRESS_OPERATIONS, margin=st.sampled_from((0.0, 5.0)))
    def test_filter_and_expiry_equal_the_reference(self, operations, margin):
        """Property: against a digest → (expiry, set of interfaces)
        reference, ``filter_new_interfaces`` returns the same fresh list
        (duplicate inputs and the ``-1`` return-to-origin sentinel
        included), a record's expiry is the max it was given, its tuple
        holds each interface once in first-sent order, and expiry drops
        the same digests."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(databases, "EXPIRY_MARGIN_MS", margin)
            self._check_against_the_reference(operations, margin)

    @staticmethod
    def _check_against_the_reference(operations, margin):
        database = EgressDatabase()
        reference = {}
        for name, *arguments in operations:
            if name == "filter":
                digest, interfaces, expires_at = arguments
                expiry, sent, order = reference.get(digest, (expires_at, set(), []))
                fresh = [i for i in interfaces if i not in sent]
                for interface in fresh:
                    if interface not in sent:
                        sent.add(interface)
                        order.append(interface)
                reference[digest] = (max(expiry, expires_at), sent, order)
                assert database.filter_new_interfaces(digest, interfaces, expires_at) == fresh
            else:
                horizon = arguments[0] + margin
                doomed = [d for d, (expiry, *_sets) in reference.items() if expiry <= horizon]
                for digest in doomed:
                    del reference[digest]
                assert database.remove_expired(arguments[0]) == len(doomed)
            assert len(database) == len(reference)
            for digest in ("a", "b", "c"):
                assert (digest in database) == (digest in reference)
                expiry, sent, order = reference.get(digest, (None, set(), []))
                if digest in reference:
                    record = database._records[digest]
                    assert record.expires_at_ms == expiry
                    assert record.egress_interfaces == tuple(order)

"""Tests of the path-query serving tier (PR 9).

Typed :class:`~repro.core.query.PathQuery` lookups served by per-AS
:class:`~repro.core.query.PathQueryFrontend` caches over the
:class:`~repro.core.databases.PathService` and answered inline, never over
the fabric; pull returns over the fabric;
down-segment registration driven by
``PathRegistrationMessage`` arrival at the origin, announced when the
registration is news to the registrar's own path service (PR 24, held
against an announce-always oracle).  The satellites pin:

* the ``paths_to`` origin index against the historical full scan
  (property test),
* that a cached response never outlives its member segments
  (``expiry_margin_ms`` honoured),
* that frontend routing + caching leave the golden and family digests
  bit-identical, and
* cache coherence under a revocation storm — no
  stale path is served after the withdrawal arrives.
"""

import dataclasses
import hashlib
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beacon import DEFAULT_VALIDITY_MS
from repro.core.control_service import IrecControlService
from repro.core import databases
from repro.core.databases import PathService, RegisteredPath
from repro.core.egress import EgressGateway
from repro.core.local_view import LocalTopologyView
from repro.core.messages import PathRegistrationMessage
from repro.core.query import PathQuery, PathQueryFrontend
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import (
    LinkFailure,
    LinkRecovery,
    ScenarioTimeline,
)
from repro.simulation.scenario import (
    ScenarioConfig,
    don_scenario,
    five_shortest_paths_spec,
    one_shortest_path_spec,
)
from repro.topology.entities import Relationship
from repro.units import minutes

from tests.conftest import (
    NullTransport,
    build_services,
    build_topology,
    down_paths_to,
    line_topology,
    make_beacon,
    paths_at,
    query_at,
    random_link_failures,
    rebuild_chain,
    run_all,
    terminated_segments,
)
from tests.test_golden_trace import (
    FAMILY_DIGESTS,
    GOLDEN_DIGEST,
    run_family_scenario,
    run_scenario,
)


def _registered(key_store, origin=1, via=2, tags=("1sp",), validity_ms=None):
    kwargs = {} if validity_ms is None else {"validity_ms": validity_ms}
    segment = make_beacon(key_store, [(origin, None, 1), (via, 1, None)], **kwargs)
    return RegisteredPath(segment=segment, criteria_tags=tags, registered_at_ms=0.0)


# ---------------------------------------------------------------------------
# The typed query
# ---------------------------------------------------------------------------


class TestPathQuery:
    def test_policy_key_normalizes_tag_order(self):
        a = PathQuery(origin_as=1, required_tags=("don", "1sp"))
        b = PathQuery(origin_as=1, required_tags=("1sp", "don"))
        assert a.policy_key() == b.policy_key()
        assert a.cache_key() == b.cache_key() == (1, a.policy_key())

    def test_distinct_policies_get_distinct_keys(self):
        assert (
            PathQuery(origin_as=1).cache_key()
            != PathQuery(origin_as=1, max_latency_ms=50.0).cache_key()
        )
        assert PathQuery(origin_as=1).cache_key() != PathQuery(origin_as=2).cache_key()

    def test_admits_filters_on_tags_latency_bandwidth(self, key_store):
        path = _registered(key_store, tags=("don",))  # 2 hops x 10 ms, 1000 Mbit/s
        assert PathQuery(origin_as=1).admits(path)
        assert PathQuery(origin_as=1, required_tags=("don", "other")).admits(path)
        assert not PathQuery(origin_as=1, required_tags=("1sp",)).admits(path)
        assert PathQuery(origin_as=1, max_latency_ms=100.0).admits(path)
        assert not PathQuery(origin_as=1, max_latency_ms=5.0).admits(path)
        assert PathQuery(origin_as=1, min_bandwidth_mbps=500.0).admits(path)
        assert not PathQuery(origin_as=1, min_bandwidth_mbps=5_000.0).admits(path)

    def test_non_positive_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            PathQuery(origin_as=1, limit=0)


# ---------------------------------------------------------------------------
# Satellite: the _by_origin index vs the historical full scan
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _segment_pool():
    """A pinned pool of signed terminated segments (3 origins x 3 vias)."""
    key_store = KeyStore()
    return tuple(
        make_beacon(key_store, [(origin, None, 1), (via, 1, None)])
        for origin in (1, 2, 3)
        for via in (4, 5, 6)
    )


class TestOriginIndexEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from(["a", "b"])), max_size=24
        ),
        removals=st.sets(st.integers(0, 8), max_size=6),
    )
    def test_indexed_lookup_matches_full_scan(self, ops, removals):
        """Property: after any register/merge/remove sequence, the indexed
        ``paths_to`` and the scanning ``down_paths_to`` equal the pre-PR 9
        full scan of the digest table — same members, same order."""
        pool = _segment_pool()
        service = PathService()
        for index, tag in ops:
            service.register(
                RegisteredPath(
                    segment=pool[index], criteria_tags=(tag,), registered_at_ms=0.0
                )
            )
        doomed = {pool[index].digest() for index in removals}
        service.remove_matching(lambda path: path.segment.digest() in doomed)
        for origin in (1, 2, 3, 99):
            scan = [
                path
                for path in service.all_paths()
                if path.segment.origin_as == origin
            ]
            assert service.paths_to(origin) == scan
        for terminal in (4, 5, 6, 99):
            scan = [
                path
                for path in service.all_paths()
                if path.segment.last_as == terminal
            ]
            assert down_paths_to(service, terminal) == scan

    def test_index_survives_link_and_as_withdrawal(self, key_store):
        service = PathService()
        crossing = _registered(key_store, origin=1, via=2)
        other = _registered(key_store, origin=3, via=2)
        service.register(crossing)
        service.register(other)
        assert service.remove_crossing_link(((1, 1), (2, 1))) == 1
        assert service.paths_to(1) == []
        assert service.paths_to(3) == [other]
        assert service.remove_crossing_as(3) == 1
        assert down_paths_to(service, 2) == []

    def test_merge_keeps_one_indexed_entry(self, key_store):
        service = PathService()
        segment = make_beacon(key_store, [(1, None, 1), (2, 1, None)])
        service.register(
            RegisteredPath(segment=segment, criteria_tags=("a",), registered_at_ms=0.0)
        )
        service.register(
            RegisteredPath(segment=segment, criteria_tags=("b",), registered_at_ms=1.0)
        )
        assert len(service.paths_to(1)) == 1
        assert set(service.paths_to(1)[0].criteria_tags) == {"a", "b"}
        assert len(down_paths_to(service, 2)) == 1


class TestInvalidationListeners:
    def test_register_merge_and_withdrawal_notify_origin(self, key_store):
        service = PathService()
        events = []
        service.add_invalidation_listener(events.append)
        path = _registered(key_store, origin=1, via=2)
        service.register(path)
        assert events == [1]
        # A merge of the same digest still touches origin 1.
        service.register(
            RegisteredPath(
                segment=path.segment, criteria_tags=("don",), registered_at_ms=1.0
            )
        )
        assert events == [1, 1]
        service.register(_registered(key_store, origin=3, via=2))
        assert events == [1, 1, 3]
        # Withdrawal notifies once per touched origin, not per digest.
        service.register(_registered(key_store, origin=1, via=5))
        events.clear()
        assert service.remove_crossing_as(2) == 2
        assert sorted(events) == [1, 3]

    def test_expiry_purge_notifies(self, key_store):
        service = PathService()
        events = []
        service.add_invalidation_listener(events.append)
        service.register(_registered(key_store, origin=1, validity_ms=100.0))
        events.clear()
        assert service.remove_expired(now_ms=1_000.0) == 1
        assert events == [1]


# ---------------------------------------------------------------------------
# The frontend cache
# ---------------------------------------------------------------------------


class TestFrontendCache:
    def test_miss_then_hit(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1))
        frontend = PathQueryFrontend(service)
        first = frontend.query(PathQuery(origin_as=1))
        assert len(first.paths) == 1 and frontend.misses == 1
        # A hit returns the result the miss stored.
        second = frontend.query(PathQuery(origin_as=1))
        assert second is first
        assert (frontend.lookups, frontend.hits, frontend.misses) == (2, 1, 1)
        assert frontend.cache_hit_ratio == pytest.approx(0.5)
        assert frontend.counters()["cache_size"] == 1

    def test_policy_filtering_through_frontend(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1, via=2, tags=("1sp",)))
        service.register(_registered(key_store, origin=1, via=3, tags=("don",)))
        frontend = PathQueryFrontend(service)
        tagged = frontend.query(PathQuery(origin_as=1, required_tags=("don",)))
        assert [p.criteria_tags for p in tagged.paths] == [("don",)]
        limited = frontend.query(PathQuery(origin_as=1, limit=1))
        assert len(limited.paths) == 1
        assert len(frontend.query(PathQuery(origin_as=1)).paths) == 2

    def test_registration_invalidates_only_touched_origin(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1, via=2))
        service.register(_registered(key_store, origin=3, via=2))
        frontend = PathQueryFrontend(service)
        frontend.query(PathQuery(origin_as=1))
        frontend.query(PathQuery(origin_as=3))
        assert frontend.counters()["cache_size"] == 2
        service.register(_registered(key_store, origin=1, via=5))
        assert frontend.counters()["cache_size"] == 1
        assert frontend.invalidations == 1
        # Origin 3's entry survived; origin 1 re-materializes with the new path.
        frontend.query(PathQuery(origin_as=3))
        assert (frontend.hits, frontend.misses) == (1, 2)
        refreshed = frontend.query(PathQuery(origin_as=1))
        assert (frontend.hits, frontend.misses) == (1, 3) and len(refreshed.paths) == 2

    def test_withdrawal_is_never_served_from_cache(self, key_store):
        service = PathService()
        victim = _registered(key_store, origin=1, via=2)
        service.register(victim)
        service.register(_registered(key_store, origin=1, via=5))
        frontend = PathQueryFrontend(service)
        assert len(frontend.paths(1)) == 2
        assert service.remove_crossing_link(((1, 1), (2, 1))) == 1
        served = frontend.paths(1)
        assert len(served) == 1
        assert victim.segment.digest() not in {
            p.segment.digest() for p in served
        }

    def test_lru_bound_and_eviction(self, key_store):
        service = PathService()
        for origin in (1, 2, 3):
            service.register(_registered(key_store, origin=origin, via=5))
        frontend = PathQueryFrontend(service, capacity=2)
        for origin in (1, 2, 3):
            frontend.query(PathQuery(origin_as=origin))
        assert frontend.counters()["cache_size"] == 2
        assert frontend.evictions == 1
        # Origin 1 was the least recently used: it misses again.
        frontend.query(PathQuery(origin_as=1))
        assert (frontend.hits, frontend.misses) == (0, 4)
        frontend.query(PathQuery(origin_as=3))
        assert (frontend.hits, frontend.misses) == (1, 4)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PathQueryFrontend(PathService(), capacity=0)

    def test_counters_export_the_serving_state(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1))
        frontend = PathQueryFrontend(service)
        frontend.paths(1)
        frontend.paths(1)
        counters = frontend.counters()
        assert counters["lookups"] == frontend.lookups == 2
        assert counters["hits"] == frontend.hits == 1
        assert counters["hit_ratio"] == frontend.cache_hit_ratio == pytest.approx(0.5)
        assert counters["cache_size"] == frontend.counters()["cache_size"] == 1


class TestExpiryCoherence:
    """Satellite: a cached response never outlives its member segments."""

    def test_expired_but_cached_path_is_never_served(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1, validity_ms=500.0))
        frontend = PathQueryFrontend(service)
        assert len(paths_at(frontend, 1, 0.0)) == 1
        assert frontend.counters()["cache_size"] == 1
        # The segment expired but no purge ran: the service still holds it,
        # the cache still holds the response — serving must refuse both.
        assert paths_at(frontend, 1, 600.0) == ()
        assert frontend.expired_entries == 1
        assert len(service.paths_to(1)) == 1  # un-purged, by construction

    def test_expiry_margin_is_honoured(self, key_store, monkeypatch):
        monkeypatch.setattr(databases, "EXPIRY_MARGIN_MS", 200.0)
        service = PathService()
        service.register(_registered(key_store, origin=1, validity_ms=500.0))
        frontend = PathQueryFrontend(service)
        assert len(paths_at(frontend, 1, 0.0)) == 1
        # Inside the margin (valid until 500 - 200 = 300 ms): refused even
        # though the raw expiry is still 150 ms away.
        assert paths_at(frontend, 1, 350.0) == ()
        # A fresh materialization applies the same horizon.
        assert query_at(frontend, PathQuery(origin_as=1), 350.0).paths == ()

    def test_mixed_expiries_pin_the_entry_to_the_earliest(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1, via=2, validity_ms=500.0))
        service.register(_registered(key_store, origin=1, via=5, validity_ms=50_000.0))
        frontend = PathQueryFrontend(service)
        assert len(paths_at(frontend, 1, 0.0)) == 2
        # Past the earliest member's expiry the whole entry is refused and
        # re-materialized with the surviving path only.
        served = paths_at(frontend, 1, 600.0)
        assert len(served) == 1
        assert frontend.expired_entries == 1


class TestEndHostRouting:
    def test_frontend_and_direct_lookup_agree(self, key_store):
        service = PathService()
        service.register(_registered(key_store, origin=1, via=2))
        service.register(_registered(key_store, origin=1, via=5))
        frontend = PathQueryFrontend(service)
        assert list(frontend.paths(1)) == service.paths_to(1)
        assert list(frontend.paths(1)) == service.paths_to(1)  # hit path
        assert frontend.hits == 1


# ---------------------------------------------------------------------------
# Queries answered at the AS, pull returns over the fabric
# ---------------------------------------------------------------------------


def _service_with_path_to(key_store, as_id, origin):
    """Build a 3-AS line whose AS ``as_id`` holds one path to ``origin``."""
    scheduler, transport, services = build_services(line_topology(3), key_store)
    services[as_id].path_service.register(
        RegisteredPath(
            segment=make_beacon(key_store, [(origin, None, 1), (as_id, 2, None)]),
            criteria_tags=("1sp",),
            registered_at_ms=0.0,
        )
    )
    return scheduler, transport, services


class TestQueryFabric:
    """An end-host query is answered by its own AS's control service.

    The fabric carries no query traffic: the control service's frontend
    serves the lookup inline from the local path service.
    """

    def test_query_round_trip(self, key_store):
        _scheduler, _transport, services = _service_with_path_to(key_store, 2, 3)
        frontend = services[2].query_frontend
        first = query_at(frontend, PathQuery(origin_as=3), 0.0)
        assert (frontend.hits, frontend.misses) == (0, 1)
        assert [p.segment.origin_as for p in first.paths] == [3]
        # The second ask is served from the AS's response cache.
        second = query_at(frontend, PathQuery(origin_as=3), 1.0)
        assert (frontend.hits, frontend.misses) == (1, 1)
        assert second is first

    def test_simulated_fabric_counts_query_traffic(self, key_store):
        scheduler, transport, services = _service_with_path_to(key_store, 2, 3)
        query_at(services[2].query_frontend, PathQuery(origin_as=3), 0.0)
        scheduler.run_until(100.0)
        collector = transport.collector
        assert collector.control_messages_total() == 0
        assert not any("query" in kind for kind in collector.sent)

    def test_local_dispatch_returns_response_inline(self, key_store):
        scheduler, _transport, services = _service_with_path_to(key_store, 2, 3)
        result = query_at(services[2].query_frontend, PathQuery(origin_as=3), 0.0)
        # The answer is the return value: nothing was scheduled to carry it.
        assert [p.segment.origin_as for p in result.paths] == [3]
        assert run_all(scheduler) == 0


class TestTypedPullReturn:
    """A pull return is delivered to its origin without a message type."""

    def test_null_transport_frames_pull_return(self, key_store):
        transport = NullTransport()
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        transport.return_beacon_to_origin(sender_as=2, beacon=beacon)
        assert transport.returned == [(2, beacon)]
        assert transport.messages == []  # recorded as a return, not a message

    def test_pull_return_reaches_origin_handler(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        beacon = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        transport.return_beacon_to_origin(sender_as=2, beacon=beacon)
        run_all(scheduler)
        assert [b.digest() for b, _t in services[1].pull_results] == [beacon.digest()]


class TestDownSegmentRegistration:
    def test_registration_message_forwards_toward_origin(self, key_store):
        """A transit AS relays down-segment announcements hop by hop over
        its own segment entry's ingress interface; the origin registers."""
        topology = line_topology(3)
        scheduler, _transport, services = build_services(topology, key_store)
        segment = make_beacon(key_store, [(1, None, 2), (2, 1, 2), (3, 1, None)])
        message = PathRegistrationMessage(
            RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
        )
        # AS 3 announces toward AS 2 (its beacon-arrival interface).
        _transport.send_message(3, 1, message)
        scheduler.run_until(1_000.0)
        # Relayed through AS 2 without registering there; origin AS 1 holds
        # the down-segment, keyed by its terminal.
        assert services[2].path_service.all_paths() == []
        down = down_paths_to(services[1].path_service, 3)
        assert [p.segment.digest() for p in down] == [segment.digest()]
        assert services[1].path_service.paths_to(1) == down

    @staticmethod
    def _announcement(segment):
        return PathRegistrationMessage(
            RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
        )

    @staticmethod
    def _isolated_service(as_id):
        view = LocalTopologyView.from_topology(line_topology(12), as_id)
        return IrecControlService(view=view, key_store=KeyStore(), transport=NullTransport())

    def test_every_transit_as_relays_out_its_own_ingress_interface(self, key_store):
        # The relay resolves this AS's hop through the memoized AS path; the
        # reference is the entry-by-entry loop it replaced.
        hops = [(1, None, 7)] + [(as_id, 10 + as_id, 30 + as_id) for as_id in range(2, 12)]
        segment = make_beacon(key_store, hops + [(12, 22, None)])
        message = self._announcement(segment)
        assert segment.hop_count == 12
        for as_id in range(2, 13):
            service = self._isolated_service(as_id)
            via_loop = next(
                entry.ingress_interface for entry in segment.entries if entry.as_id == as_id
            )
            service.on_message_batch([(message, 7)], now_ms=1.0)
            assert service.transport.messages == [(as_id, via_loop, message)]
            assert service.path_service.all_paths() == []
        origin = self._isolated_service(1)
        origin.on_message_batch([(message, 7)], now_ms=1.0)
        assert origin.transport.messages == []
        assert [p.segment for p in down_paths_to(origin.path_service, 12)] == [segment]

    def test_misrouted_and_origin_entry_announcements_are_dropped_unsent(self, key_store):
        segment = make_beacon(key_store, [(1, None, 2), (2, 1, 2), (3, 1, None)])
        stranger = self._isolated_service(9)
        stranger.on_message_batch([(self._announcement(segment), 7)], 1.0)
        # A header naming another origin leaves AS 1 with the origin-side
        # entry, which has no ingress interface to relay out of.
        renamed = rebuild_chain(dataclasses.replace(segment.header, origin_as=5), segment.entries)
        first_hop = self._isolated_service(1)
        first_hop.on_message_batch([(self._announcement(renamed), 7)], 1.0)
        for service in (stranger, first_hop):
            assert service.transport.messages == []
            assert service.path_service.all_paths() == []

    def test_simulation_flag_registers_down_segments_at_origin(self):
        def run(periods, enabled):
            topology = line_topology(4)
            scenario = don_scenario(periods=periods, verify_signatures=False)
            scenario.register_down_segments = enabled
            simulation = BeaconingSimulation(topology, scenario)
            result = simulation.run()
            origin_service = result.services[1]
            down = {
                terminal: len(down_paths_to(origin_service.path_service, terminal))
                for terminal in (2, 3, 4)
            }
            return down, result.collector.sent

        # Announce-always (every merge re-announced every round) sent 72 and
        # 306 path registrations for the same PCBs and down-segments.
        for periods, down_segments, pcbs, announcements in (
            (2, {2: 2, 3: 1, 4: 0}, 22, 57),
            (4, {2: 4, 3: 3, 4: 2}, 46, 150),
        ):
            down_on, sent_on = run(periods, enabled=True)
            assert down_on == down_segments
            assert sent_on["pcb"] == pcbs
            assert sent_on["path_registration"] == announcements
            down_off, sent_off = run(periods, enabled=False)
            assert sum(down_off.values()) == 0
            assert sent_off["pcb"] == pcbs
            assert sent_off["path_registration"] == 0


# ---------------------------------------------------------------------------
# Down-segments are announced when they are news, not every round
# ---------------------------------------------------------------------------


def _shaped_topology(shape, count):
    """A line, a binary tree (AS ``i`` under ``i // 2``) or a ring of ASes."""
    edges = {
        "line": [(a, a + 1) for a in range(1, count)],
        "tree": [(child // 2, child) for child in range(2, count + 1)],
        "ring": [(a, a % count + 1) for a in range(1, count + 1)],
    }[shape]
    interfaces = {as_id: {} for as_id in range(1, count + 1)}
    links = []
    for a, b in edges:
        endpoints = []
        for member in (a, b):
            interface_id = len(interfaces[member]) + 1
            interfaces[member][interface_id] = (10.0, float(member) + 0.1 * interface_id)
            endpoints.append((member, interface_id))
        links.append((*endpoints, 10.0, 1000.0, Relationship.CUSTOMER_PROVIDER))
    return build_topology(interfaces, links)


def _announce_every_accepted_registration(gateway):
    """Test oracle, the rule the news rule replaced: announce always.

    Registers selection by selection through the real method and sends the
    repeats it kept back itself, so merges are re-announced every round.
    """
    stats = gateway.stats

    def register(selections, now_ms):
        for selection in selections:
            registered, announced = stats.registered, stats.announced
            EgressGateway.register(gateway, [selection], now_ms)
            if stats.registered > registered and stats.announced == announced:
                stored = selection.stored
                repeat = RegisteredPath(
                    segment=stored._segment,
                    criteria_tags=selection.criteria_tags,
                    registered_at_ms=now_ms,
                )
                gateway.transport.send_message(
                    gateway.as_id, stored.ingress_interface, PathRegistrationMessage(repeat)
                )

    gateway.register = register


def _announce_new_digests_only(gateway):
    """Mutant: a new criteria tag on a segment already held is not news."""

    def register(selections, now_ms):
        for selection in selections:
            segment = selection.stored._segment
            held = segment is not None and gateway.path_service.get(segment.digest())
            gateway.register_down_segments = not held
            EgressGateway.register(gateway, [selection], now_ms)
        gateway.register_down_segments = True

    gateway.register = register


def _down_segment_simulation(topology, periods, specs, announce_rule=None, **scenario_kwargs):
    scenario = ScenarioConfig(
        algorithms=specs,
        periods=periods,
        verify_signatures=False,
        register_down_segments=True,
        **scenario_kwargs,
    )
    simulation = BeaconingSimulation(topology, scenario)
    for service in simulation.services.values():
        # The quota must not bind: a rejected announcement is no longer
        # retried, which is the documented difference from announce-always.
        service.path_service.max_paths_per_key = 10_000
        if announce_rule is not None:
            announce_rule(service.egress)
    return simulation


def _registered_plane(simulation):
    """Every AS's ``(digest, sorted tags)`` set, whole and per terminal AS."""

    def keys(paths):
        return {(p.segment.digest(), tuple(sorted(p.criteria_tags))) for p in paths}

    plane = {}
    for as_id, service in simulation.services.items():
        store = service.path_service
        plane[as_id] = (
            keys(store.all_paths()),
            {t: keys(down_paths_to(store, t)) for t in simulation.services},
        )
    return plane


def _assert_announces_like_the_oracle(topology, periods, specs, subject_rule=None):
    """The subject ends every period with the announce-always oracle's
    registered plane and never sends more path registrations; return both
    sides' total ``sent["path_registration"]``."""
    subject = _down_segment_simulation(topology, periods, specs, subject_rule)
    oracle = _down_segment_simulation(
        topology, periods, specs, _announce_every_accepted_registration
    )
    totals = (0, 0)
    for _period in range(periods):
        subject.run_period()
        oracle.run_period()
        assert _registered_plane(subject) == _registered_plane(oracle)
        sent = (
            subject.collector.sent["path_registration"],
            oracle.collector.sent["path_registration"],
        )
        assert sent[0] - totals[0] <= sent[1] - totals[1]
        totals = sent
    assert subject.collector.sent["pcb"] == oracle.collector.sent["pcb"]
    return totals


_ONE_OR_TWO_RACS = (
    (one_shortest_path_spec(),),
    (one_shortest_path_spec(), five_shortest_paths_spec()),
)


class TestAnnounceWhenNews:
    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.sampled_from(("line", "tree", "ring")),
        count=st.integers(min_value=3, max_value=9),
        periods=st.integers(min_value=2, max_value=5),
        specs=st.sampled_from(_ONE_OR_TWO_RACS),
    )
    def test_same_registered_plane_as_announce_always(self, shape, count, periods, specs):
        """Property: announcing only news leaves every path service, the
        origins' down-segments included, as announce-always leaves it."""
        _assert_announces_like_the_oracle(_shaped_topology(shape, count), periods, specs)

    def test_line_sends_strictly_fewer_and_the_mutant_is_caught(self):
        topology = line_topology(4)
        sent, oracle_sent = _assert_announces_like_the_oracle(topology, 4, _ONE_OR_TWO_RACS[1])
        assert sent < oracle_sent
        # 1SP and 5SP select the same beacon: the second tag must travel too.
        with pytest.raises(AssertionError):
            _assert_announces_like_the_oracle(
                topology, 4, _ONE_OR_TWO_RACS[1], _announce_new_digests_only
            )

    def test_counters_split_registrations_into_news_and_repeats(self):
        simulation = _down_segment_simulation(line_topology(4), 4, _ONE_OR_TWO_RACS[1])
        result = simulation.run()
        announced = 0
        for service in result.services.values():
            stats = service.egress.stats
            assert stats.reregistered > 0
            assert stats.announced + stats.reregistered == stats.registered
            announced += stats.announced
        # Every send is one hop of one announcement, so sends >= announcements.
        assert 0 < announced <= result.collector.sent["path_registration"]

    def test_flag_off_counts_nothing(self):
        scenario = ScenarioConfig(algorithms=_ONE_OR_TWO_RACS[1], verify_signatures=False)
        result = BeaconingSimulation(line_topology(4), scenario).run()
        for service in result.services.values():
            stats = service.egress.stats
            assert stats.registered > 0
            assert (stats.reregistered, stats.announced) == (0, 0)
        assert result.collector.sent["path_registration"] == 0

    def test_withdrawn_segment_is_announced_again_when_it_returns(self):
        """The path service is the only memory of "already announced":
        revocation withdraws the far registrar's segments at both ends, and
        after recovery the origin learns the successor."""
        topology = line_topology(4)
        link = topology.link_ids()[1]  # the middle link, 2-3
        timeline = ScenarioTimeline()
        timeline.add(minutes(45), LinkFailure(link)).add(minutes(65), LinkRecovery(link))
        simulation = _down_segment_simulation(
            topology, 14, _ONE_OR_TWO_RACS[0], timeline=timeline
        )
        origin = simulation.services[1].path_service
        registrar = simulation.services[4]

        def run_periods(count):
            for _period in range(count):
                simulation.run_period()
            return registrar.egress.stats.announced

        announced_before = run_periods(4)
        assert down_paths_to(origin, 4)
        assert run_periods(2) == announced_before  # the link fails at minute 45
        assert down_paths_to(origin, 4) == []
        assert registrar.path_service.paths_to(1) == []
        # It recovers at minute 65; AS 4 hears of AS 1 again five periods later.
        assert run_periods(6) > announced_before
        returned = {p.segment.digest() for p in down_paths_to(origin, 4)}
        assert returned
        # The very same digests come back as well: dropped from both path
        # services only, the stored beacons are selected again next round.
        for store in (origin, registrar.path_service):
            store.remove_matching(lambda path: path.segment.last_as == 4)
        announced_before = run_periods(1)
        assert {p.segment.digest() for p in down_paths_to(origin, 4)} == returned
        assert announced_before == run_periods(1)

    def test_egress_side_stores_are_level_one_validity_apart(self):
        """Steady state: nothing the announcement plane reads or writes
        grows — each store has the same size at period k and k + validity."""
        validity = 4
        simulation = _down_segment_simulation(
            _shaped_topology("tree", 7),
            validity + 3,
            _ONE_OR_TWO_RACS[1],
            propagation_interval_ms=DEFAULT_VALIDITY_MS / validity,
        )

        def sizes():
            return {
                as_id: (
                    len(terminated_segments(service)),
                    len(service.egress.database),
                    len(service.path_service),
                )
                for as_id, service in simulation.services.items()
            }

        by_period = []
        for _period in range(2 * validity + 3):
            simulation.run_period()
            by_period.append(sizes())
        for k in range(validity - 1, validity + 3):
            assert by_period[k] == by_period[k + validity]
        assert any(terminated > 0 for terminated, _d, _p in by_period[-1].values())


# ---------------------------------------------------------------------------
# Satellite: golden digests unchanged with frontend routing + caching
# ---------------------------------------------------------------------------


def _probing_instrument(probe_minutes):
    """Schedule read-only frontend probes at the given minutes of a run."""

    def instrument(simulation):
        def probe(now_ms):
            for service in simulation.services.values():
                frontend = service.query_frontend
                paths_at(frontend, 1, now_ms)
                query_at(frontend, PathQuery(origin_as=1, max_latency_ms=200.0), now_ms)

        for minute in probe_minutes:
            simulation.scheduler.schedule_at(minutes(minute) + 1.0, probe)

    return instrument


class TestGoldenTraceWithCaching:
    @settings(max_examples=5, deadline=None)
    @given(
        probe_minutes=st.sets(st.integers(min_value=3, max_value=100), max_size=4)
    )
    def test_frontend_probes_leave_golden_digest_unchanged(self, probe_minutes):
        """Property: serving cached queries mid-run, at any instants, never
        perturbs the pinned golden trace."""
        trace = run_scenario(instrument=_probing_instrument(sorted(probe_minutes)))
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST

    @pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
    def test_family_digests_unchanged_by_query_caching(self, family, monkeypatch):
        """Each adversarial family digest is reproduced while every AS's
        frontend serves probes mid-run (reads never mutate sim state)."""
        original_run = BeaconingSimulation.run

        def probed_run(simulation):
            _probing_instrument((12, 35, 52))(simulation)
            return original_run(simulation)

        monkeypatch.setattr(BeaconingSimulation, "run", probed_run)
        trace = run_family_scenario(family)
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == FAMILY_DIGESTS[family]


# ---------------------------------------------------------------------------
# Cache coherence under a revocation storm
# ---------------------------------------------------------------------------


class TestRevocationStormCoherence:
    def test_no_stale_path_served_after_withdrawal(self):
        """Caches are warmed before a revocation storm hits; once the
        withdrawals have been applied, no lookup may serve a path crossing
        a revoked link, and served sets match the authoritative service."""
        topology = line_topology(5)
        interval = minutes(10)
        scenario = don_scenario(periods=6, verify_signatures=False)
        storm = random_link_failures(
            topology, count=2, rng=random.Random(7), start_ms=2.5 * interval, spacing_ms=0.0
        )
        scenario.timeline.extend(storm)
        failed_links = {timed.event.link_id for timed in storm}

        simulation = BeaconingSimulation(topology, scenario)

        def warm(now_ms):
            for service in simulation.services.values():
                for origin in (1,):
                    paths_at(service.query_frontend, origin, now_ms)

        simulation.scheduler.schedule_at(2.2 * interval, warm)
        result = simulation.run()
        final = result.final_time_ms

        assert sum(s.query_frontend.lookups for s in result.services.values()) > 0
        invalidations = sum(
            s.query_frontend.invalidations for s in result.services.values()
        )
        assert invalidations > 0  # the storm really dropped warmed entries

        storm_applied = 0
        for service in result.services.values():
            frontend = service.query_frontend
            origins = {p.segment.origin_as for p in service.path_service.all_paths()}
            for origin in origins | {1}:
                served = paths_at(frontend, origin, final)
                authoritative = service.path_service.paths_to(origin)
                assert list(served) == authoritative
            if service.revocations.applied_at:
                storm_applied += 1
                for origin in origins | {1}:
                    for path in paths_at(frontend, origin, final):
                        assert not (failed_links & set(path.segment.links()))
        assert storm_applied > 0


# ---------------------------------------------------------------------------
# Negative caching (PR 10 satellite)
# ---------------------------------------------------------------------------


class TestNegativeCache:
    """Empty responses are first-class cache entries with their own counters."""

    def test_empty_response_is_cached_and_counted(self, key_store):
        service = PathService()
        frontend = PathQueryFrontend(service)
        first = frontend.query(PathQuery(origin_as=9))
        assert first.paths == () and frontend.misses == 1
        assert frontend.negative_inserts == 1
        assert frontend.negative_hits == 0
        second = frontend.query(PathQuery(origin_as=9))
        assert second is first and frontend.hits == 1
        assert frontend.negative_hits == 1
        # A non-empty materialization is not a negative insert.
        service.register(_registered(key_store, origin=1))
        frontend.query(PathQuery(origin_as=1))
        assert frontend.negative_inserts == 1

    def test_default_negative_entry_lives_until_invalidation(self, key_store):
        """A negative entry has no lifetime of its own: the empty answer
        persists indefinitely and only the invalidation listener (a
        registration for the origin) drops it."""
        service = PathService()
        frontend = PathQueryFrontend(service)
        frontend.query(PathQuery(origin_as=1))
        # Far-future lookups still hit the cached empty entry.
        query_at(frontend, PathQuery(origin_as=1), minutes(10_000))
        assert frontend.hits == 1
        assert frontend.expired_entries == 0
        service.register(_registered(key_store, origin=1))
        assert frontend.invalidations == 1
        refreshed = frontend.query(PathQuery(origin_as=1))
        assert frontend.misses == 2 and len(refreshed.paths) == 1

    def test_counters_expose_negative_keys(self):
        frontend = PathQueryFrontend(PathService())
        counters = frontend.counters()
        assert counters["negative_hits"] == 0
        assert counters["negative_inserts"] == 0
        frontend.paths(7)
        frontend.paths(7)
        counters = frontend.counters()
        assert counters["negative_inserts"] == 1
        assert counters["negative_hits"] == 1

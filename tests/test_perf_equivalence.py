"""Equivalence tests for the beacon fast path.

The hot-path optimizations (memoized encodings/digests, the sweep-based
Pareto frontier, the ingress gateway's incremental signature
verification and rank-once selection) are pure performance work: they
must be observationally identical to the naive implementations.  These
property tests pin that down:

* the memoized digest equals an independent, from-scratch re-encoding and
  re-hashing of the beacon after arbitrary ``with_entry``/termination
  chains, every element of the prefix-digest chain equals the digest
  of the corresponding prefix beacon, and a child that inherited any
  combination of its parent's derived values equals a cold twin in every
  accessor, also after a pickle round trip,
* a beacon extended through a view whose hop-constant table is warm equals
  one extended through a fresh view (the shared ``StaticInfo`` record and
  its one encoding are invisible), and the event queue keeps (time,
  sequence) order without ever comparing callbacks,
* the sweep/skyline ``pareto_frontier`` returns exactly the same labelled
  pairs (same order) as the quadratic reference on random vectors with 2–4
  metrics, including duplicates and maximize-objective metrics, and
* incremental verification accepts exactly what full verification accepts
  and rejects beacons tampered at every entry position, with or without a
  warm verified-prefix cache, and
* ranking a bucket once per candidate (``select_per_interface`` with a
  per-candidate key and an optional per-interface term; HD's pre-ordered
  candidates) selects exactly what scoring every (candidate, interface)
  pair selects, for every builtin algorithm, over buckets full of ties,
  parallel links, looping candidates and empty interface sets.
"""

from __future__ import annotations

import hashlib
import operator
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.bandwidth import (
    LatencyBoundedWidestAlgorithm,
    ShortestWidestAlgorithm,
    WidestPathAlgorithm,
)
from repro.algorithms.base import CandidateBeacon, ExecutionContext
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm, legacy_scion_algorithm
from repro.core.algebra import (
    BANDWIDTH,
    HOP_COUNT,
    LATENCY,
    PathVector,
    RELIABILITY,
    pareto_frontier,
    pareto_frontier_naive,
)
from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.criteria import StandardMetrics
from repro.core.databases import StoredBeacon
from repro.core.extensions import ExtensionSet
from repro.core.ingress import IngressGateway, VerifiedPrefixCache
from repro.core.local_view import LocalTopologyView
from repro.core.rac import RACSelection
from repro.core.sandbox import RestrictedPythonAlgorithm
from repro.core.staticinfo import StaticInfo
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import SignatureError
from repro.simulation.engine import EventScheduler
from repro.topology.entities import Link, Relationship, normalize_link_id

from tests.conftest import figure1_topology, make_beacon
from tests.test_gateways import gateway_pair

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
latencies = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
bandwidths = st.one_of(
    st.none(), st.floats(min_value=1.0, max_value=100_000.0, allow_nan=False)
)

hop_specs = st.lists(
    st.tuples(latencies, latencies, bandwidths), min_size=1, max_size=7
)


def build_chain(key_store, hops, terminate=False, extensions=None, before_extending=None):
    """Build a signed beacon from (intra_latency, link_latency, bandwidth) hops.

    ``before_extending`` is called with every intermediate beacon just
    before the next hop is appended to it.
    """
    origin_builder = BeaconBuilder(
        as_id=10, signer=Signer(as_id=10, key_store=key_store)
    )
    intra, link, bandwidth = hops[0]
    beacon = origin_builder.originate(
        egress_interface=1,
        created_at_ms=0.0,
        static_info=StaticInfo(link_latency_ms=link, link_bandwidth_mbps=bandwidth),
        extensions=extensions,
    )
    for index, (intra, link, bandwidth) in enumerate(hops[1:], start=1):
        as_id = 10 + index
        builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
        last = terminate and index == len(hops) - 1
        if before_extending is not None:
            before_extending(beacon)
        info = StaticInfo(
            intra_latency_ms=intra,
            link_latency_ms=0.0 if last else link,
            link_bandwidth_mbps=None if last else bandwidth,
        )
        if last:
            beacon = builder.terminate(beacon, ingress_interface=2, static_info=info)
        else:
            beacon = builder.extend(
                beacon, ingress_interface=2, egress_interface=1, static_info=info
            )
    return beacon


def naive_encode(beacon: Beacon) -> bytes:
    """Re-encode a beacon from its raw fields, bypassing every memo."""
    parts = [
        f"pcb(origin={beacon.origin_as},created={beacon.created_at_ms:.3f},"
        f"validity={beacon.validity_ms:.3f},{beacon.extensions.encode()})"
    ]
    for entry in beacon.entries:
        unsigned = (
            f"entry(as={entry.as_id},in={entry.ingress_interface},"
            f"out={entry.egress_interface},{replace(entry.static_info).encode()})"
        )
        parts.append(f"{unsigned}sig({entry.signature.hex()})")
    return "|".join(parts).encode("utf-8")


# ----------------------------------------------------------------------
# (a) digests
# ----------------------------------------------------------------------
#: Every memoized accessor of a beacon; a child inherits some of them.
DERIVED = (
    "encode",
    "digest",
    "prefix_digests",
    "header_encoding",
    "as_path",
    "links",
    "link_set",
    "total_latency_ms",
    "bottleneck_bandwidth_mbps",
)

#: Everything a beacon memoizes, by the name it is drawn under: the
#: accessors plus ``PathVector`` extraction, which fills ``_metric_vectors``.
DERIVATIONS = {name: operator.methodcaller(name) for name in DERIVED}
DERIVATIONS["vector_for"] = lambda beacon: StandardMetrics.vector_for(
    (LATENCY, HOP_COUNT, BANDWIDTH), beacon
)


class TestDigestEquivalence:
    @given(hops=hop_specs, terminate=st.booleans(), with_extension=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cached_digest_matches_naive_reencode(self, hops, terminate, with_extension):
        key_store = KeyStore()
        extensions = (
            ExtensionSet().with_interface_group(3) if with_extension else None
        )
        beacon = build_chain(
            key_store, hops, terminate=terminate and len(hops) > 1, extensions=extensions
        )
        expected = hashlib.sha256(naive_encode(beacon)).hexdigest()
        assert beacon.digest() == expected
        # The memo must be stable across repeated calls.
        assert beacon.digest() == expected
        assert beacon.encode() == naive_encode(beacon)

    @given(hops=hop_specs)
    @settings(max_examples=40, deadline=None)
    def test_prefix_digest_chain_matches_prefix_beacons(self, hops):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        chain = beacon.prefix_digests()
        assert len(chain) == beacon.hop_count
        for index in range(beacon.hop_count):
            prefix = replace(beacon, entries=beacon.entries[: index + 1])
            assert chain[index] == hashlib.sha256(naive_encode(prefix)).hexdigest()
        assert beacon.digest() == chain[-1]

    @given(
        hops=st.lists(st.tuples(latencies, latencies, bandwidths), min_size=1, max_size=13),
        terminate=st.booleans(),
        with_extension=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_child_equals_cold_twin(self, hops, terminate, with_extension, data):
        # Each parent has derived a drawn subset of its values when it is
        # extended, so the child inherits an arbitrary combination of them;
        # the child derives a subset of its own before it is shipped.
        def derive_some(beacon):
            for name in data.draw(st.sets(st.sampled_from(sorted(DERIVATIONS))), label="derived"):
                DERIVATIONS[name](beacon)

        def derived_values(beacon):
            values = {name: derive(beacon) for name, derive in DERIVATIONS.items()}
            values["contains_as"] = [beacon.contains_as(as_id) for as_id in range(8, 26)]
            return values

        child = build_chain(
            KeyStore(),
            hops,
            terminate=terminate and len(hops) > 1,
            extensions=ExtensionSet().with_interface_group(3) if with_extension else None,
            before_extending=derive_some,
        )
        derive_some(child)
        shipped = pickle.loads(pickle.dumps(child))
        expected = derived_values(replace(child))
        assert expected["encode"] == naive_encode(child)
        assert expected["digest"] == hashlib.sha256(naive_encode(child)).hexdigest()
        assert derived_values(shipped) == expected
        assert derived_values(child) == expected

    def test_extension_reuses_parent_entry_encodings(self, key_store):
        parent = build_chain(key_store, [(0.0, 5.0, 100.0), (1.0, 5.0, 100.0)])
        builder = BeaconBuilder(as_id=99, signer=Signer(as_id=99, key_store=key_store))
        child = builder.extend(parent, ingress_interface=1, egress_interface=2)
        # The shared entries are the same objects, so their encodings are
        # computed once and shared between parent and child.
        assert child.entries[:2] == parent.entries[:2]
        assert child.entries[0] is parent.entries[0]
        assert child.digest() != parent.digest()
        assert hashlib.sha256(naive_encode(child)).hexdigest() == child.digest()


# ----------------------------------------------------------------------
# (a') shared hop constants and the event queue's order
# ----------------------------------------------------------------------
class TestSharedHopConstants:
    """One ``StaticInfo`` per interface pair of a view, one encoding per record."""

    @staticmethod
    def _gateway(key_store):
        _ingress, gateway, transport = gateway_pair(figure1_topology(), 3, key_store)
        return gateway, transport

    @staticmethod
    def _propagate(gateway, transport, beacon, egress_interfaces=(2, 3)):
        stored = StoredBeacon(beacon=beacon, received_on_interface=1, received_at_ms=0.0)
        selection = RACSelection(
            stored=stored, egress_interfaces=list(egress_interfaces), criteria_tag="1sp"
        )
        del transport.sent[:]
        gateway.propagate([selection], now_ms=0.0)
        return {interface: extended for _sender, interface, extended in transport.sent}

    def test_warm_view_extends_exactly_like_a_fresh_one(self, key_store):
        first = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        second = make_beacon(key_store, [(1, None, 1), (2, 1, 2)], created_at_ms=5.0)
        warm, warm_transport = self._gateway(key_store)
        earlier = self._propagate(warm, warm_transport, first)
        through_warm = self._propagate(warm, warm_transport, second)
        through_fresh = self._propagate(*self._gateway(key_store), second)
        assert sorted(through_warm) == sorted(through_fresh) == [2, 3]
        for interface, extended in through_warm.items():
            twin = through_fresh[interface]
            assert replace(extended, beacon_id=twin.beacon_id) == twin
            assert extended.digest() == twin.digest()
            assert extended.encode() == twin.encode() == naive_encode(twin)
            # Same interface pair, same record -- across beacons, not across views.
            shared = extended.entries[-1].static_info
            assert shared is earlier[interface].entries[-1].static_info
            assert shared is not twin.entries[-1].static_info

    def test_attach_link_empties_the_table(self):
        # What a ``TopologyGrowth`` event does to each attachment AS's view.
        view = LocalTopologyView.from_topology(figure1_topology(), 3)
        before = view.static_info_for(1, 3)
        assert view.static_info_for(1, 3) is before
        rehomed = Link(
            interface_a=(2, 9),
            interface_b=(3, 3),
            latency_ms=1.0,
            bandwidth_mbps=10.0,
            relationship=Relationship.PEER,
        )
        view.attach_link(3, rehomed)
        after = view.static_info_for(1, 3)
        assert after == replace(before, link_latency_ms=1.0, link_bandwidth_mbps=10.0)
        assert view.static_info_for(1, 3) is after

    def test_encoding_memo_is_invisible_ships_warm_and_is_not_copied(self):
        warm = StaticInfo(intra_latency_ms=1.5, link_latency_ms=7.0, link_bandwidth_mbps=100.0)
        cold = replace(warm)
        encoded = warm.encode()
        assert warm._encoded == encoded and cold._encoded is None
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        shipped = pickle.loads(pickle.dumps(warm))
        assert shipped == warm and shipped._encoded == encoded
        changed = replace(warm, link_latency_ms=8.0)
        assert changed._encoded is None
        assert changed.encode() == encoded.replace("link=7.000000", "link=8.000000")
        assert cold.encode() == encoded


class _Incomparable:
    """An event callback that refuses to be ordered or compared."""

    def __init__(self, label, fired):
        self.label, self.fired = label, fired

    def __call__(self, now_ms):
        self.fired.append((self.label, now_ms))

    def _refuse(self, other):
        raise AssertionError("the event queue compared two callbacks")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = None


class TestEventQueueOrder:
    def test_time_then_sequence_with_cancellations_and_incomparable_callbacks(self):
        scheduler = EventScheduler()
        fired = []
        events = {
            label: scheduler.schedule_at(time_ms, _Incomparable(label, fired))
            for label, time_ms in [("a", 10.0), ("b", 5.0), ("c", 10.0), ("d", 10.0), ("e", 5.0)]
        }
        scheduler.cancel(events["b"])
        scheduler.cancel(events["c"])
        # Equal-time events scheduled after a cancellation queue behind the live ones.
        scheduler.schedule_at(10.0, _Incomparable("f", fired))
        scheduler.schedule_at(5.0, _Incomparable("g", fired))
        assert scheduler.queue_size == 7 and scheduler.pending == 5
        assert scheduler.next_event_time() == 5.0
        assert scheduler.run_until(10.0, inclusive=False) == 2
        assert scheduler.next_event_time() == 10.0
        assert scheduler.run_all() == 3
        assert fired == [("e", 5.0), ("g", 5.0), ("a", 10.0), ("d", 10.0), ("f", 10.0)]
        assert scheduler.queue_size == scheduler.pending == 0


# ----------------------------------------------------------------------
# (b) pareto frontier
# ----------------------------------------------------------------------
METRIC_POOLS = (
    (LATENCY,),  # single-metric degenerate case: frontier = all minima
    (BANDWIDTH,),  # ...including a maximize-objective single metric
    (LATENCY, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH, RELIABILITY),
)


class TestParetoEquivalence:
    @given(
        pool_index=st.integers(min_value=0, max_value=len(METRIC_POOLS) - 1),
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
            min_size=0,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_matches_quadratic_reference(self, pool_index, rows):
        metrics = METRIC_POOLS[pool_index]
        labelled = [
            (
                index,
                PathVector(
                    metrics=metrics,
                    values=tuple(float(v) for v in row[: len(metrics)]),
                ),
            )
            for index, row in enumerate(rows)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]
        assert [v.values for _l, v in fast] == [v.values for _l, v in naive]

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_duplicate_heavy_three_metric_sweep_matches_reference(self, rows):
        # Values drawn from {0, 1, 2}³ force many exact duplicates, the
        # regime where the k ≥ 3 skyline scan is easiest to get wrong
        # (duplicates must all be kept: they do not dominate each other).
        metrics = (LATENCY, HOP_COUNT, BANDWIDTH)
        labelled = [
            (index, PathVector(metrics=metrics, values=tuple(float(v) for v in row)))
            for index, row in enumerate(rows)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]

    @given(
        values=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=40),
        maximize=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_metric_degenerate_matches_reference(self, values, maximize):
        metric = BANDWIDTH if maximize else LATENCY
        labelled = [
            (index, PathVector(metrics=(metric,), values=(float(v),)))
            for index, v in enumerate(values)
        ]
        fast = pareto_frontier(labelled)
        naive = pareto_frontier_naive(labelled)
        assert [label for label, _v in fast] == [label for label, _v in naive]
        if values:
            best = max(values) if maximize else min(values)
            # Every optimum (including duplicates) survives, nothing else.
            assert [v.values[0] for _l, v in fast] == [
                float(v) for v in values if v == best
            ]

    def test_duplicates_are_all_kept(self):
        vector = PathVector(metrics=(LATENCY, BANDWIDTH), values=(10.0, 100.0))
        other = PathVector(metrics=(LATENCY, BANDWIDTH), values=(10.0, 100.0))
        dominated = PathVector(metrics=(LATENCY, BANDWIDTH), values=(20.0, 50.0))
        frontier = pareto_frontier([("a", vector), ("b", other), ("c", dominated)])
        assert [label for label, _v in frontier] == ["a", "b"]

    def test_duplicates_are_all_kept_with_three_metrics(self):
        metrics = (LATENCY, HOP_COUNT, BANDWIDTH)
        twin_a = PathVector(metrics=metrics, values=(10.0, 3.0, 100.0))
        twin_b = PathVector(metrics=metrics, values=(10.0, 3.0, 100.0))
        dominated = PathVector(metrics=metrics, values=(20.0, 4.0, 50.0))
        incomparable = PathVector(metrics=metrics, values=(5.0, 9.0, 100.0))
        frontier = pareto_frontier(
            [("a", twin_a), ("b", twin_b), ("c", dominated), ("d", incomparable)]
        )
        assert [label for label, _v in frontier] == ["a", "b", "d"]

    def test_infinite_values_are_handled(self):
        # Bottleneck identity is +inf; the sweep must not choke on it.
        best = PathVector(metrics=(LATENCY, BANDWIDTH), values=(1.0, float("inf")))
        worse = PathVector(metrics=(LATENCY, BANDWIDTH), values=(2.0, 100.0))
        frontier = pareto_frontier([("best", best), ("worse", worse)])
        assert [label for label, _v in frontier] == ["best"]
        assert pareto_frontier([]) == []


# ----------------------------------------------------------------------
# (c) incremental verification
# ----------------------------------------------------------------------
def tamper(beacon: Beacon, position: int) -> Beacon:
    """Return a copy of ``beacon`` with entry ``position`` altered."""
    entry = beacon.entries[position]
    forged = replace(
        entry,
        static_info=replace(entry.static_info, intra_latency_ms=entry.static_info.intra_latency_ms + 1.0),
    )
    entries = beacon.entries[:position] + (forged,) + beacon.entries[position + 1 :]
    return replace(beacon, entries=entries)


class TestIncrementalVerification:
    @given(hops=hop_specs)
    @settings(max_examples=40, deadline=None)
    def test_incremental_accepts_what_full_accepts(self, hops):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        verifier = Verifier(key_store=key_store)
        beacon.verify(verifier)  # full verification accepts

        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        assert gateway.stats.full_verifications == 1
        assert gateway.stats.signatures_checked == beacon.hop_count

        # Re-verifying an extension only checks the new entry's signature.
        builder = BeaconBuilder(as_id=777, signer=Signer(as_id=777, key_store=key_store))
        child = builder.extend(beacon, ingress_interface=3, egress_interface=4)
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        assert gateway.stats.incremental_verifications == 1
        assert gateway.stats.signatures_checked == beacon.hop_count + 1

    @given(hops=hop_specs, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tampered_entries_rejected_at_every_position(self, hops, data):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        verifier = Verifier(key_store=key_store)
        position = data.draw(
            st.integers(min_value=0, max_value=beacon.hop_count - 1), label="position"
        )
        forged = tamper(beacon, position)
        with pytest.raises(SignatureError):
            forged.verify(verifier)
        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert not gateway.receive(forged, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1

    def test_warm_cache_still_rejects_tampered_extension(self, key_store):
        beacon = build_chain(key_store, [(0.0, 5.0, 100.0), (1.0, 5.0, 100.0)])
        verifier = Verifier(key_store=key_store)
        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)

        builder = BeaconBuilder(as_id=777, signer=Signer(as_id=777, key_store=key_store))
        child = builder.extend(beacon, ingress_interface=3, egress_interface=4)

        # Tampering the new entry: the cached prefix is valid, but the
        # incremental check of the appended entry must still fail.
        forged_new = tamper(child, child.hop_count - 1)
        assert not gateway.receive(forged_new, on_interface=1, now_ms=0.0)

        # Tampering a cached-prefix entry changes the prefix digests, so the
        # cache cannot match and full verification fails.
        forged_old = tamper(child, 0)
        assert not gateway.receive(forged_old, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 2

        # The untampered extension is still accepted afterwards.
        assert gateway.receive(child, on_interface=1, now_ms=0.0)

    def test_prefix_cache_is_bounded(self):
        cache = VerifiedPrefixCache(max_entries=3)
        for index in range(5):
            cache.add(f"digest-{index}")
        assert len(cache) == 3
        assert "digest-0" not in cache
        assert "digest-4" in cache


# ----------------------------------------------------------------------
# (d) selection: rank once ≡ score every (candidate, interface) pair
# ----------------------------------------------------------------------
LOCAL_AS = 99


def naive_select(context, paths_per_interface, score, admit=None):
    """The pre-fast-path skeleton: score every (candidate, interface) pair.

    Kept here as the reference: no per-candidate key, no shared ranking,
    one admit call and one score call per pair, one sort per interface.
    """
    selections = {}
    limit = min(paths_per_interface, context.max_paths_per_interface)
    if limit <= 0:
        return selections
    for egress_interface in context.egress_interfaces:
        ranked = []
        for candidate in context.candidates:
            beacon = candidate.beacon
            if beacon.contains_as(context.local_as):
                continue
            if admit is not None and not admit(candidate, egress_interface, context):
                continue
            key = tuple(score(candidate, egress_interface, context))
            ranked.append((key + (beacon.as_path(), beacon.digest()), beacon))
        ranked.sort(key=lambda item: item[0])
        for _key, beacon in ranked[:limit]:
            selections.setdefault(egress_interface, []).append(beacon)
    return selections


class NaiveHeuristicDisjointness:
    """The pre-fast-path HD: re-scores every candidate for every pick."""

    def __init__(self, paths_per_interface, remember_propagations):
        self.paths_per_interface = paths_per_interface
        self.remember_propagations = remember_propagations
        self.state = {}

    def execute(self, context):
        selections = {}
        limit = min(self.paths_per_interface, context.max_paths_per_interface)
        loop_free = [
            c.beacon for c in context.candidates if not c.beacon.contains_as(context.local_as)
        ]
        if limit <= 0 or not loop_free:
            return selections
        origin = loop_free[0].origin_as
        for egress_interface in context.egress_interfaces:
            fresh = {"used": {}, "served": set(), "done": False}
            state = fresh
            if self.remember_propagations:
                state = self.state.setdefault((egress_interface, origin), fresh)
            used = dict(state["used"])
            remaining = [b for b in loop_free if b.digest() not in state["served"]]
            selected = []

            def score(beacon):
                overlap = sum(used.get(link, 0) for link in beacon.links())
                return (overlap, beacon.hop_count, beacon.total_latency_ms(), beacon.as_path())

            while remaining and len(selected) < limit:
                best = min(remaining, key=score)
                if state["done"] and score(best)[0] > 0:
                    break
                remaining.remove(best)
                selected.append(best)
                for link in best.links():
                    used[link] = used.get(link, 0) + 1
            for beacon in selected:
                selections.setdefault(egress_interface, []).append(beacon)
                state["served"].add(beacon.digest())
                for link in beacon.links():
                    state["used"][link] = state["used"].get(link, 0) + 1
            state["done"] = True
        return selections


def _latency(candidate, egress_interface, context, extended):
    latency = candidate.beacon.total_latency_ms()
    if extended and candidate.ingress_interface is not None:
        latency += context.intra_latency_ms(candidate.ingress_interface, egress_interface)
    return latency


def _hops_then_latency(candidate, _egress_interface, _context):
    return (float(candidate.beacon.hop_count), candidate.beacon.total_latency_ms())


def _delay(extended):
    return lambda c, e, ctx: (_latency(c, e, ctx, extended),)


def _bounded(bound, extended):
    score = lambda c, e, ctx: (  # noqa: E731
        -c.beacon.bottleneck_bandwidth_mbps(),
        _latency(c, e, ctx, extended),
    )
    return score, lambda c, e, ctx: _latency(c, e, ctx, extended) <= bound


#: A link every ``via 2`` pool beacon crosses on origin interface 1.
AVOIDED_LINK = ((1, 1), (2, 7))


def _avoids(extra=()):
    forbidden = {normalize_link_id(*AVOIDED_LINK)} | {normalize_link_id(*link) for link in extra}
    return lambda c, _e, _ctx: forbidden.isdisjoint(c.beacon.links())


def _payload(source):
    """Reference scoring of a restricted-Python payload: one full-variable
    evaluation per pair on an instance of its own."""
    reference = RestrictedPythonAlgorithm(source=source)
    score = lambda c, e, ctx: (reference.score_candidate(c, e, ctx),)  # noqa: E731
    return score, lambda c, e, ctx: score(c, e, ctx)[0] < reference.rejection_threshold


PAYLOADS = (
    "latency_ms * 2 + hop_count",
    "0 - bandwidth_mbps if latency_ms <= 25 else inf",
    "latency_ms + intra_latency_ms",
    "latency_ms if egress_interface != 2 else inf",
    "min(latency_ms, 20) + (intra_latency_ms if hop_count > 2 else egress_interface)",
)

#: name -> (algorithm factory, its paths_per_interface, naive score, naive admit)
SKELETON_ALGORITHMS = {
    "1sp": (lambda: KShortestPathAlgorithm(k=1), 1, _hops_then_latency, None),
    "5sp": (lambda: KShortestPathAlgorithm(k=5), 5, _hops_then_latency, None),
    "legacy-20": (legacy_scion_algorithm, 20, _hops_then_latency, None),
    "don": (lambda: DelayOptimizationAlgorithm(paths_per_interface=3), 3, _delay(False), None),
    "dob": (
        lambda: DelayOptimizationAlgorithm(paths_per_interface=3, use_extended_paths=True),
        3,
        _delay(True),
        None,
    ),
    "widest": (
        lambda: WidestPathAlgorithm(paths_per_interface=3),
        3,
        lambda c, _e, _ctx: (-c.beacon.bottleneck_bandwidth_mbps(),),
        None,
    ),
    "shortest-widest": (
        lambda: ShortestWidestAlgorithm(paths_per_interface=3),
        3,
        lambda c, _e, _ctx: (-c.beacon.bottleneck_bandwidth_mbps(), c.beacon.total_latency_ms()),
        None,
    ),
    "latency-bounded": (
        lambda: LatencyBoundedWidestAlgorithm(latency_bound_ms=22.0, paths_per_interface=3),
        3,
        *_bounded(22.0, False),
    ),
    "latency-bounded-extended": (
        lambda: LatencyBoundedWidestAlgorithm(
            latency_bound_ms=22.0, paths_per_interface=3, use_extended_paths=True
        ),
        3,
        *_bounded(22.0, True),
    ),
    "link-avoiding": (
        lambda: LinkAvoidingAlgorithm(avoid_links=frozenset({AVOIDED_LINK}), paths_per_interface=3),
        3,
        _hops_then_latency,
        _avoids(),
    ),
    **{
        f"restricted-python:{source}": (
            lambda source=source: RestrictedPythonAlgorithm(source=source, paths_per_interface=3),
            3,
            *_payload(source),
        )
        for source in PAYLOADS
    },
}


@pytest.fixture(scope="module")
def beacon_pool():
    """Beacons of one origin that tie in every way the selection can see.

    Every AS path exists over two parallel origin links (same AS path, same
    metrics, different digest), with two latencies and two bandwidths;
    paths through ``LOCAL_AS`` are the looping candidates.
    """
    key_store = KeyStore()
    pool = []
    for mids in ((2,), (3,), (2, 3), (3, 2), (2, 4), (LOCAL_AS,), (2, LOCAL_AS), (2, 3, 4)):
        for origin_interface in (1, 2):
            for latency in (5.0, 10.0):
                for bandwidth in (100.0, 1000.0):
                    hops = [(1, None, origin_interface)] + [(mid, 7, 8) for mid in mids]
                    pool.append(
                        make_beacon(
                            key_store,
                            hops,
                            link_latencies=[latency] * len(hops),
                            link_bandwidths=[bandwidth] * len(hops),
                        )
                    )
    return pool


#: Candidate = (index into the pool, ingress interface or None).
candidate_specs = st.lists(
    st.tuples(st.integers(0, 63), st.sampled_from((None, 1, 2, 3))), max_size=14
)
interface_sets = st.lists(st.integers(1, 4), max_size=4, unique=True)
#: Intra-AS latencies drawn from {0, 5}: ties between extended paths too.
intra_tables = st.lists(st.sampled_from((0.0, 5.0)), min_size=16, max_size=16)


def selection_context(pool, specs, interfaces, limit, intra, parameters=None):
    return ExecutionContext(
        local_as=LOCAL_AS,
        candidates=tuple(
            CandidateBeacon(beacon=pool[index], ingress_interface=ingress)
            for index, ingress in specs
        ),
        egress_interfaces=tuple(interfaces),
        max_paths_per_interface=limit,
        intra_latency_ms=lambda a, b: intra[(a % 4) * 4 + b % 4],
        parameters=parameters or {},
    )


def digests_of(selections):
    return {interface: [b.digest() for b in beacons] for interface, beacons in selections.items()}


def assert_lists_are_not_shared(selections):
    lists = list(selections.values())
    assert len({id(beacons) for beacons in lists}) == len(lists)
    if len(lists) > 1:
        before = [list(beacons) for beacons in lists[1:]]
        lists[0].clear()
        assert [list(beacons) for beacons in lists[1:]] == before


class TestSelectionEquivalence:
    @pytest.mark.parametrize("name", sorted(SKELETON_ALGORITHMS))
    @given(
        specs=candidate_specs,
        interfaces=interface_sets,
        limit=st.sampled_from((0, 1, 4, 20)),
        intra=intra_tables,
    )
    @settings(max_examples=60, deadline=None)
    def test_skeleton_algorithm_matches_per_pair_reference(
        self, beacon_pool, name, specs, interfaces, limit, intra
    ):
        factory, paths_per_interface, score, admit = SKELETON_ALGORITHMS[name]
        context = selection_context(beacon_pool, specs, interfaces, limit, intra)
        result = factory().execute(context)
        expected = naive_select(context, paths_per_interface, score, admit)
        assert digests_of(result.selections) == digests_of(expected)
        # Selected beacons are the candidates' own objects, never copies.
        offered = {id(candidate.beacon) for candidate in context.candidates}
        assert all(id(b) in offered for bs in result.selections.values() for b in bs)
        assert_lists_are_not_shared(result.selections)

    @given(specs=candidate_specs, interfaces=interface_sets, intra=intra_tables)
    @settings(max_examples=40, deadline=None)
    def test_link_avoiding_unions_the_context_avoid_set(
        self, beacon_pool, specs, interfaces, intra
    ):
        extra = [((1, 2), (3, 7))]
        context = selection_context(
            beacon_pool, specs, interfaces, 4, intra, {"avoid_links": [list(map(list, extra[0]))]}
        )
        algorithm = LinkAvoidingAlgorithm(
            avoid_links=frozenset({AVOIDED_LINK}), paths_per_interface=3
        )
        expected = naive_select(context, 3, _hops_then_latency, _avoids(extra))
        assert digests_of(algorithm.execute(context).selections) == digests_of(expected)

    @given(
        rounds=st.lists(candidate_specs, min_size=3, max_size=5),
        interfaces=interface_sets,
        limit=st.sampled_from((0, 1, 4)),
        paths_per_interface=st.sampled_from((1, 3)),
        remember=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_hd_matches_reference_over_consecutive_executions(
        self, beacon_pool, rounds, interfaces, limit, paths_per_interface, remember
    ):
        algorithm = HeuristicDisjointnessAlgorithm(
            paths_per_interface=paths_per_interface, remember_propagations=remember
        )
        reference = NaiveHeuristicDisjointness(paths_per_interface, remember)
        for specs in rounds:
            context = selection_context(beacon_pool, specs, interfaces, limit, [0.0] * 16)
            result = algorithm.execute(context)
            assert digests_of(result.selections) == digests_of(reference.execute(context))
            assert_lists_are_not_shared(result.selections)
        # The memory that drives every later round agrees as well.
        assert {
            pair: (state.used_links, state.served_digests, state.first_round_done)
            for pair, state in algorithm._state.items()
        } == {
            pair: (state["used"], state["served"], state["done"])
            for pair, state in reference.state.items()
        }

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
* a beacon's wire parts join to its cold encoding and give its size and
  digest chain, each entry part being that entry's own bytes object, for
  builder-made, ``replace``d and pickled chains, and a hop extended over a
  topology link holds the topology's own ``Link.key`` (a link the view does
  not have keeps its derived id),
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
  parallel links, looping candidates and empty interface sets; every one
  of them, and a Pareto criteria set, selects the same whatever the
  candidates' order, and the Pareto set selects the quadratic frontier in
  (hop count, latency, digest) order, and
* a RAC round that hands the stored records to the algorithm, builds its
  jobs in one pass and merges by lookup selects, reports and transfers
  exactly what wrapping every candidate per bucket, rescanning the bucket
  keys per merged bucket and merging through a digest map did.
"""

from __future__ import annotations

import hashlib
import operator
import pickle
from dataclasses import dataclass, field, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.registry import encode_builtin_payload
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm, legacy_scion_algorithm
from repro.core.algebra import (
    MetricDefinition,
    Objective,
    PathVector,
    pareto_frontier,
    pareto_frontier_naive,
)
from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.criteria import (
    BANDWIDTH,
    HOP_COUNT,
    LATENCY,
    CriteriaSet,
    Criterion,
    highest_bandwidth,
    latency_bandwidth_pareto,
    lowest_latency,
    shortest_widest,
    widest_with_latency_bound,
)
from repro.core.databases import IngressDatabase
from repro.core.extensions import ExtensionSet
from repro.core.ingress import IngressGateway, VerifiedPrefixCache
from repro.core.ipc import IPCChannel
from repro.core.local_view import LocalTopologyView
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.rac import (
    MAX_PATHS_PER_INTERFACE,
    RACConfig,
    RACExecutionReport,
    RACSelection,
    RoutingAlgorithmContainer,
)
from repro.core.sandbox import REJECTION_THRESHOLD, RestrictedPythonAlgorithm
from repro.core.staticinfo import StaticInfo
from repro.crypto.hashing import algorithm_hash, perf_counters
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import AlgorithmError, SandboxError, SignatureError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.engine import EventScheduler
from repro.simulation.scenario import disjointness_scenario
from repro.topology.entities import Link, Relationship, normalize_link_id
from repro.traffic.selection import (
    DisjointPolicy,
    EcmpPolicy,
    LatencyGreedyPolicy,
)

from tests.conftest import cold_twin, figure1_topology, make_beacon, rebuild_chain, run_all
from tests.test_gateways import gateway_pair
from tests.test_steady_state import signed_fixed_topology, tree_topology

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
        f"pcb(origin={beacon.origin_as},created={beacon.header.created_at_ms:.3f},"
        f"validity={beacon.header.validity_ms:.3f},{beacon.extensions.encode()})"
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
#: Every derived accessor of a beacon; a child continues some of them.
DERIVED = (
    "encode",
    "digest",
    "prefix_digests",
    "wire",
    "encoded_size",
    "as_path",
    "links",
    "total_latency_ms",
    "bottleneck_bandwidth_mbps",
)

#: Everything a beacon memoizes, by the accessor that derives it.
DERIVATIONS = {name: operator.methodcaller(name) for name in DERIVED}


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
            prefix = rebuild_chain(beacon.header, beacon.entries[: index + 1])
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
        expected = derived_values(cold_twin(child))
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


class TestWireParts:
    """A beacon's encoding is its header and two parts per entry, referenced."""

    @given(
        hops=hop_specs,
        terminate=st.booleans(),
        with_extension=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_builder_replaced_and_pickled_chains(self, hops, terminate, with_extension, data):
        chain = []

        def derive_some(beacon):
            for name in data.draw(st.sets(st.sampled_from(sorted(DERIVATIONS))), label="derived"):
                DERIVATIONS[name](beacon)
            chain.append(beacon)

        last = build_chain(
            KeyStore(),
            hops,
            terminate=terminate and len(hops) > 1,
            extensions=ExtensionSet().with_interface_group(3) if with_extension else None,
            before_extending=derive_some,
        )
        chain.append(last)
        for built in chain:
            for beacon in (built, cold_twin(built), pickle.loads(pickle.dumps(built))):
                cold = cold_twin(beacon)
                wire = beacon.wire()
                assert b"".join(wire) == cold.encode() == naive_encode(beacon)
                assert beacon.encoded_size() == len(cold.encode())
                prefixes = [
                    rebuild_chain(beacon.header, beacon.entries[:n])
                    for n in range(1, beacon.hop_count + 1)
                ]
                assert beacon.prefix_digests() == cold.prefix_digests() == tuple(
                    hashlib.sha256(naive_encode(prefix)).hexdigest() for prefix in prefixes
                )
                assert len(wire) == 2 * beacon.hop_count + 1
                assert wire[0] is beacon.header.wire()
                # Each entry's parts are its own memos: the unsigned part,
                # then the signature part, which a terminal entry does not
                # keep, so that part is equal to the entry's, not the object.
                entries = beacon.entries
                for unsigned, signature, entry in zip(wire[1::2], wire[2::2], entries):
                    assert unsigned is entry.unsigned_wire()
                    if entry.egress_interface is None:
                        assert signature == entry.signature_wire()
                        assert entry._signature_wire is None
                    else:
                        assert signature is entry.signature_wire()
        # Along a builder-made chain every beacon holds the same part objects.
        for prefix in chain:
            assert all(mine is theirs for mine, theirs in zip(prefix.wire(), last.wire()))


class TestInternedLinkIds:
    """A hop extended over a topology link holds the topology's ``Link.key``."""

    def test_stored_and_registered_beacons_hold_the_topologys_link_ids(self):
        simulation = signed_fixed_topology()
        topology = simulation.topology
        keys = {
            link.key: link.key
            for as_info in topology
            for link in topology.links_of(as_info.as_id)
        }
        for _period in range(4):
            simulation.run_period()
        held = 0
        for service in simulation.services.values():
            beacons = [stored.beacon for stored in service.ingress.database.all_beacons()]
            beacons += [path.segment for path in service.path_service.all_paths()]
            for beacon in beacons:
                for link in beacon.links():
                    assert link is keys[link], (beacon.as_path(), link)
                    held += 1
        assert held > 0

    def test_a_link_the_view_does_not_have_keeps_its_derived_id(self, key_store):
        _ingress, gateway, transport = gateway_pair(figure1_topology(), 3, key_store)
        arrival = gateway.view.link_of(1).key
        known = make_beacon(key_store, [(1, None, 1), (2, 1, 2)])
        # AS 2 names egress interface 7, but AS 3's interface 1 links AS 2's 2.
        unknown = make_beacon(key_store, [(1, None, 1), (2, 1, 7)], created_at_ms=5.0)
        for beacon in (known, unknown):
            beacon.links()
            stored = CandidateBeacon(beacon=beacon, ingress_interface=1, received_at_ms=0.0)
            selection = RACSelection(stored=stored, egress_interfaces=[3], criteria_tags=("1sp",))
            del transport.sent[:]
            gateway.propagate([selection])
            gateway.register([selection], now_ms=0.0)
            (_sender, _interface, extended), = transport.sent
            segment = gateway.path_service.all_paths()[-1].segment
            assert segment.entries[:-1] == extended.entries[:-1]
            for built in (extended, segment):
                assert built.links() == cold_twin(built).links()
                if beacon is known:
                    assert built.links()[-1] is arrival
                else:
                    assert built.links()[-1] == ((2, 7), (3, 1)) != arrival


class TestRegisteredSegmentsHoldNoReaderMemo:
    """A registered segment costs its own hop: no reader leaves a memo on it.

    After each reader of a terminated beacon runs -- the reads of
    irecbench's end-of-beaconing soundness check, the driver's
    ``usable_path_count``, a pull result's ``links()``, the end-host
    policies of ``repro.traffic.selection``, and the relay of a
    down-segment to its origin -- the segment still holds no ``_as_path``,
    ``_links`` or ``_wire``, and its values equal its cold twin's.  An open
    candidate, which the RAC reads every round, keeps all three.
    """

    UNSTORED = ("_as_path", "_links", "_wire")

    @pytest.fixture(scope="class")
    def simulation(self):
        scenario = disjointness_scenario(periods=6, verify_signatures=True)
        scenario.register_down_segments = True
        simulation = BeaconingSimulation(tree_topology(7), scenario)
        simulation.add_pull_disjointness(origin_as=4, target_as=7)
        for _period in range(scenario.periods):
            simulation.run_period()
        return simulation

    def assert_holds_no_reader_memo(self, segments):
        assert segments
        for segment in segments:
            assert segment.is_terminated
            for name in self.UNSTORED:
                assert getattr(segment, name) is None, name
            twin = cold_twin(segment)
            assert segment.as_path() == twin.as_path()
            assert segment.links() == twin.links()
            assert segment.digest() == twin.digest()
            assert segment.total_latency_ms() == twin.total_latency_ms()
            assert all(getattr(segment, name) is None for name in self.UNSTORED)

    @staticmethod
    def registered(simulation):
        return [
            path
            for service in simulation.services.values()
            for path in service.path_service.all_paths()
        ]

    def test_the_soundness_check_reads(self, simulation):
        links = simulation.topology.links
        for as_id, service in simulation.services.items():
            for path in service.path_service.all_paths():
                segment = path.segment
                as_path = segment.as_path()
                assert as_id in (segment.last_as, segment.origin_as)
                assert len(set(as_path)) == len(as_path)
                assert all(link in links for link in segment.links())
        self.assert_holds_no_reader_memo([path.segment for path in self.registered(simulation)])

    def test_usable_path_count(self, simulation):
        counted = sum(
            simulation.usable_path_count(source, destination)
            for source in simulation.services
            for destination in simulation.services
            if source != destination
        )
        assert counted > 0
        self.assert_holds_no_reader_memo([path.segment for path in self.registered(simulation)])

    def test_a_pull_results_links(self, simulation):
        returned = [beacon for beacon, _at_ms in simulation.services[4].pull_results]
        for beacon in returned:
            assert beacon.links()
        self.assert_holds_no_reader_memo(returned)

    def test_traffic_selection(self, simulation):
        policies = (
            LatencyGreedyPolicy(),
            EcmpPolicy(max_paths=3),
            DisjointPolicy(max_paths=3),
        )
        chosen = []
        for source, service in simulation.services.items():
            for destination in simulation.services:
                candidates = service.path_service.paths_to(destination)
                for policy in policies if candidates else ():
                    chosen += [path.segment for path, _weight in policy(candidates)]
        self.assert_holds_no_reader_memo(chosen)
        self.assert_holds_no_reader_memo([path.segment for path in self.registered(simulation)])

    def test_a_relayed_down_segment(self, simulation):
        relayed = [
            path.segment
            for as_id, service in simulation.services.items()
            for path in service.path_service.all_paths()
            if path.segment.origin_as == as_id and path.segment.hop_count > 2
        ]
        self.assert_holds_no_reader_memo(relayed)

    def test_an_open_candidate_fills_its_memos(self, simulation):
        candidates = []
        for service in simulation.services.values():
            for rac in service.racs:
                rac.process(
                    database=service.ingress.database,
                    egress_interfaces=service.view.interface_ids(),
                    intra_latency_ms=service.view.intra_latency_ms,
                    local_as=service.as_id,
                )
            candidates += [stored.beacon for stored in service.ingress.database.all_beacons()]
        assert candidates
        for beacon in candidates:
            assert not beacon.is_terminated
            for name in self.UNSTORED:
                assert getattr(beacon, name) is not None, name
        cold = cold_twin(candidates[0])
        cold.as_path(), cold.links(), cold.wire()
        assert all(getattr(cold, name) is not None for name in self.UNSTORED)


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
        stored = CandidateBeacon(beacon=beacon, ingress_interface=1, received_at_ms=0.0)
        selection = RACSelection(
            stored=stored, egress_interfaces=list(egress_interfaces), criteria_tags=("1sp",)
        )
        del transport.sent[:]
        gateway.propagate([selection])
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
            assert extended == twin
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
    def test_time_then_sequence_with_incomparable_callbacks(self):
        scheduler = EventScheduler()
        fired = []
        for label, time_ms in [("a", 10.0), ("b", 5.0), ("c", 10.0), ("d", 10.0), ("e", 5.0)]:
            scheduler.schedule_at(time_ms, _Incomparable(label, fired))
        # Equal-time events scheduled later queue behind the earlier ones.
        scheduler.schedule_at(10.0, _Incomparable("f", fired))
        scheduler.schedule_at(5.0, _Incomparable("g", fired))
        assert scheduler.run_until(10.0, inclusive=False) == 3
        assert [label for label, _time in fired] == ["b", "e", "g"]
        assert scheduler.run_until(10.0) == 4
        assert fired == [
            ("b", 5.0), ("e", 5.0), ("g", 5.0), ("a", 10.0), ("c", 10.0), ("d", 10.0), ("f", 10.0)
        ]
        assert run_all(scheduler) == 0


# ----------------------------------------------------------------------
# (b) pareto frontier
# ----------------------------------------------------------------------
#: The frontier is generic over metrics: a fourth, maximize-objective one
#: that no beacon extractor knows.
FOURTH = MetricDefinition(name="fourth", objective=Objective.MAXIMIZE)

METRIC_POOLS = (
    (LATENCY,),  # single-metric degenerate case: frontier = all minima
    (BANDWIDTH,),  # ...including a maximize-objective single metric
    (LATENCY, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH),
    (LATENCY, HOP_COUNT, BANDWIDTH, FOURTH),
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
    return rebuild_chain(beacon.header, entries)


class TestIncrementalVerification:
    @given(hops=hop_specs)
    @settings(max_examples=40, deadline=None)
    def test_incremental_accepts_what_full_accepts(self, hops):
        key_store = KeyStore()
        beacon = build_chain(key_store, hops)
        verifier = Verifier(key_store=key_store)
        beacon.verify_suffix(verifier, first_entry=0)  # full verification accepts

        gateway = IngressGateway(as_id=999_999, verifier=verifier)
        checked = perf_counters()["signature_verify"]
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        assert gateway.stats.full_verifications == 1
        assert perf_counters()["signature_verify"] - checked == beacon.hop_count

        # Re-verifying an extension only checks the new entry's signature.
        builder = BeaconBuilder(as_id=777, signer=Signer(as_id=777, key_store=key_store))
        child = builder.extend(beacon, ingress_interface=3, egress_interface=4)
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        assert gateway.stats.incremental_verifications == 1
        assert perf_counters()["signature_verify"] - checked == beacon.hop_count + 1

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
            forged.verify_suffix(verifier, first_entry=0)
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
        cache.add([f"digest-{index}" for index in range(5)], expires_at_ms=1.0)
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

    def __init__(self, paths_per_interface):
        self.paths_per_interface = paths_per_interface
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
    return score, lambda c, e, ctx: score(c, e, ctx)[0] < REJECTION_THRESHOLD


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
        lambda: CriteriaSetAlgorithm(highest_bandwidth(), paths_per_interface=3),
        3,
        lambda c, _e, _ctx: (-c.beacon.bottleneck_bandwidth_mbps(),),
        None,
    ),
    "shortest-widest": (
        lambda: CriteriaSetAlgorithm(shortest_widest(), paths_per_interface=3),
        3,
        lambda c, _e, _ctx: (-c.beacon.bottleneck_bandwidth_mbps(), c.beacon.total_latency_ms()),
        None,
    ),
    "latency-bounded": (
        lambda: CriteriaSetAlgorithm(widest_with_latency_bound(22.0), paths_per_interface=3),
        3,
        *_bounded(22.0, False),
    ),
    "lowest-latency": (
        lambda: CriteriaSetAlgorithm(lowest_latency(), paths_per_interface=3),
        3,
        lambda c, _e, _ctx: (c.beacon.total_latency_ms(),),
        None,
    ),
    "fewest-hops": (
        lambda: CriteriaSetAlgorithm(
            CriteriaSet(name="fewest-hops", criteria=(Criterion(HOP_COUNT),)), paths_per_interface=3
        ),
        3,
        lambda c, _e, _ctx: (float(c.beacon.hop_count),),
        None,
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


#: Paths per interface of the Pareto entry: small enough that the
#: (hop count, latency, digest) order decides which dominant beacons go.
PARETO_PATHS = 3


def pareto_algorithm():
    return CriteriaSetAlgorithm(latency_bandwidth_pareto(), paths_per_interface=PARETO_PATHS)


def naive_pareto_select(context, paths_per_interface):
    """The reference Pareto selection: the quadratic frontier of the
    loop-free candidates, fewest hops, then lowest latency, then digest
    first, the same list on every egress interface."""
    limit = min(paths_per_interface, context.max_paths_per_interface)
    labelled = [
        (
            beacon,
            PathVector(
                metrics=(LATENCY, BANDWIDTH),
                values=(beacon.total_latency_ms(), beacon.bottleneck_bandwidth_mbps()),
            ),
        )
        for beacon in (candidate.beacon for candidate in context.candidates)
        if not beacon.contains_as(context.local_as)
    ]
    frontier = sorted(
        (beacon for beacon, _vector in pareto_frontier_naive(labelled)),
        key=lambda beacon: (beacon.hop_count, beacon.total_latency_ms(), beacon.digest()),
    )[: max(limit, 0)]
    if not frontier:
        return {}
    return {interface: list(frontier) for interface in context.egress_interfaces}


#: Every selection algorithm whose output must not depend on candidate order.
ORDER_FREE_ALGORITHMS = {
    **{name: entry[0] for name, entry in SKELETON_ALGORITHMS.items()},
    "pareto": pareto_algorithm,
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


@pytest.fixture(scope="module")
def expiring_pool():
    """Beacons of one origin with three lifetimes, pushed and pulled.

    Every path comes with two creation times and three validities, as a
    push beacon and as a pull beacon for target 9 (another bucket of the
    same origin); the one-hop beacons cross no link, so HD picks them
    again whenever it has not served them.  The last two, pushed and
    pulled, outlive every other.
    """
    key_store = KeyStore()
    pool = []
    for mids in ((), (2,), (3,), (2, 3)):
        for created_at_ms in (0.0, 10.0):
            for validity_ms in (10.0, 20.0, 30.0):
                for extensions in (None, ExtensionSet().with_target(9)):
                    pool.append(
                        make_beacon(
                            key_store,
                            [(1, None, 1)] + [(mid, 7, 8) for mid in mids],
                            created_at_ms=created_at_ms,
                            validity_ms=validity_ms,
                            extensions=extensions,
                        )
                    )
    for extensions in (None, ExtensionSet().with_target(9)):
        pool.append(
            make_beacon(
                key_store, [(1, None, 1), (5, 7, 8)], validity_ms=1000.0, extensions=extensions
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


def selection_context(pool, specs, interfaces, limit, intra):
    return ExecutionContext(
        local_as=LOCAL_AS,
        candidates=tuple(
            CandidateBeacon(beacon=pool[index], ingress_interface=ingress)
            for index, ingress in specs
        ),
        egress_interfaces=tuple(interfaces),
        max_paths_per_interface=limit,
        intra_latency_ms=lambda a, b: intra[(a % 4) * 4 + b % 4],
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

    @pytest.mark.parametrize("name", sorted(SKELETON_ALGORITHMS))
    @given(
        specs=candidate_specs.filter(bool),
        interfaces=interface_sets,
        limit=st.sampled_from((1, 4, 20)),
        intra=intra_tables,
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_duplicate_candidate_selects_like_the_per_pair_reference(
        self, beacon_pool, name, specs, interfaces, limit, intra, data
    ):
        """A context built outside the ingress database may list one record
        twice, or two equal records: both tie on key and tie-break."""
        factory, paths_per_interface, score, admit = SKELETON_ALGORITHMS[name]
        context = selection_context(beacon_pool, specs, interfaces, limit, intra)
        twice = data.draw(st.sampled_from(context.candidates), label="twice")
        equal = CandidateBeacon(twice.beacon, twice.ingress_interface, twice.received_at_ms)
        doubled = context._replace(candidates=context.candidates + (twice, equal))
        expected = naive_select(doubled, paths_per_interface, score, admit)
        assert digests_of(factory().execute(doubled).selections) == digests_of(expected)

    @pytest.mark.parametrize("name", sorted(ORDER_FREE_ALGORITHMS))
    @given(
        specs=candidate_specs,
        interfaces=interface_sets,
        limit=st.sampled_from((0, 1, 4, 20)),
        intra=intra_tables,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_does_not_depend_on_candidate_order(
        self, beacon_pool, name, specs, interfaces, limit, intra, data
    ):
        factory = ORDER_FREE_ALGORITHMS[name]
        permuted = data.draw(st.permutations(specs), label="permuted")
        context = selection_context(beacon_pool, specs, interfaces, limit, intra)
        shuffled = selection_context(beacon_pool, permuted, interfaces, limit, intra)
        assert digests_of(factory().execute(shuffled).selections) == digests_of(
            factory().execute(context).selections
        )

    @given(
        specs=candidate_specs,
        interfaces=interface_sets,
        limit=st.sampled_from((0, 1, 4, 20)),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_set_matches_naive_frontier_reference(
        self, beacon_pool, specs, interfaces, limit
    ):
        context = selection_context(beacon_pool, specs, interfaces, limit, [0.0] * 16)
        result = pareto_algorithm().execute(context)
        expected = naive_pareto_select(context, PARETO_PATHS)
        assert digests_of(result.selections) == digests_of(expected)
        assert_lists_are_not_shared(result.selections)

    @given(specs=candidate_specs, interfaces=interface_sets, intra=intra_tables)
    @settings(max_examples=40, deadline=None)
    def test_link_avoiding_matches_the_reference(
        self, beacon_pool, specs, interfaces, intra
    ):
        context = selection_context(beacon_pool, specs, interfaces, 4, intra)
        algorithm = LinkAvoidingAlgorithm(
            avoid_links=frozenset({AVOIDED_LINK}), paths_per_interface=3
        )
        expected = naive_select(context, 3, _hops_then_latency, _avoids())
        assert digests_of(algorithm.execute(context).selections) == digests_of(expected)

    @given(
        rounds=st.lists(candidate_specs, min_size=3, max_size=5),
        interfaces=interface_sets,
        limit=st.sampled_from((0, 1, 4)),
        paths_per_interface=st.sampled_from((1, 3)),
    )
    @settings(max_examples=120, deadline=None)
    def test_hd_matches_reference_over_consecutive_executions(
        self, beacon_pool, rounds, interfaces, limit, paths_per_interface
    ):
        algorithm = HeuristicDisjointnessAlgorithm(paths_per_interface=paths_per_interface)
        reference = NaiveHeuristicDisjointness(paths_per_interface)
        for specs in rounds:
            context = selection_context(beacon_pool, specs, interfaces, limit, [0.0] * 16)
            result = algorithm.execute(context)
            assert digests_of(result.selections) == digests_of(reference.execute(context))
            assert_lists_are_not_shared(result.selections)
        # The memory that drives every later round agrees as well (nothing
        # expires here, so no served digest is pruned).
        assert {
            pair: (
                state.used_links,
                set(state.served_digests),
                state.first_round_done,
            )
            for pair, state in algorithm._state.items()
        } == {
            pair: (state["used"], state["served"], state["done"])
            for pair, state in reference.state.items()
        }

    @given(
        # Per pool beacon: the period it arrives in (6: never) and the one
        # it is withdrawn for, as a revocation would (6: never); it is
        # received again the period after.
        arrivals=st.lists(st.integers(0, 6), min_size=48, max_size=48),
        withdrawals=st.lists(st.integers(0, 6), min_size=48, max_size=48),
        interfaces=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
        paths_per_interface=st.sampled_from((1, 3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_hd_pruning_served_digests_is_exact(
        self, expiring_pool, arrivals, withdrawals, interfaces, paths_per_interface
    ):
        """Rounds over a store that admits, withdraws and expires beacons as
        the ingress database does: HD forgets served digests that can never
        come back, and selects exactly what the never-forgetting reference
        selects.  Once everything else expired, one more round forgets all
        of it."""
        algorithm = HeuristicDisjointnessAlgorithm(paths_per_interface=paths_per_interface)
        reference = NaiveHeuristicDisjointness(paths_per_interface)
        stored = {}
        for period in range(6):
            now_ms = period * 10.0
            for beacon, at_period, gone in zip(expiring_pool, arrivals, withdrawals):
                if gone == period:
                    stored.pop(beacon.digest(), None)
                # The ingress gateway rejects an expired beacon and keeps the
                # first copy of a stored one.
                elif at_period <= period and not beacon.is_expired(now_ms):
                    stored.setdefault(
                        beacon.digest(),
                        CandidateBeacon(beacon, ingress_interface=1, received_at_ms=now_ms),
                    )
            # One job per bucket, push before pull, as a RAC round orders them.
            for target in (None, 9):
                candidates = tuple(r for r in stored.values() if r.beacon.target_as == target)
                if not candidates:
                    continue
                context = ExecutionContext(
                    LOCAL_AS, candidates, tuple(interfaces), 20, lambda a, b: 0.0
                )
                assert digests_of(algorithm.execute(context).selections) == digests_of(
                    reference.execute(context)
                )
            # The round ends with the expiry sweep.
            stored = {d: r for d, r in stored.items() if not r.beacon.is_expired(now_ms)}
        for pair, state in algorithm._state.items():
            assert set(state.served_digests) <= reference.state[pair]["served"]
        lasting = expiring_pool[48:]
        for beacon in lasting:
            context = ExecutionContext(
                LOCAL_AS,
                (CandidateBeacon(beacon, ingress_interface=1, received_at_ms=500.0),),
                tuple(interfaces),
                20,
                lambda a, b: 0.0,
            )
            algorithm.execute(context)
        for pair, state in algorithm._state.items():
            assert set(state.served_digests) <= {beacon.digest() for beacon in lasting}
            by_bucket = [d for s in state.served_by_bucket.values() for d in s.digests]
            assert sorted(by_bucket) == sorted(state.served_digests)


# ----------------------------------------------------------------------
# (e) a RAC round: the stored record is the candidate ≡ wrap, rescan, merge
# ----------------------------------------------------------------------
def reference_round(rac, database, egress_interfaces, intra, local_as):
    """A RAC round computed the way it was before records became candidates.

    Kept here as the reference: the relevant buckets first, then per
    (merged) bucket a rescan of every bucket key, a fresh wrapper per
    candidate, the transfer payload from a flat (interface, beacon) list, a
    digest map per bucket and a membership test per appended interface.
    """
    config = rac.config
    on_demand = rac.on_demand_manager is not None
    report = RACExecutionReport(rac_id=config.rac_id)
    selections = []
    buckets = [
        key
        for key in database.bucket_keys()
        if on_demand == (key[3] is not None)
    ]
    if not config.use_interface_groups:
        first_of_job = {}
        for key in buckets:
            first_of_job.setdefault((key[0], key[2], key[3]), key)
        buckets = list(first_of_job.values())
    for bucket in buckets:
        if config.use_interface_groups:
            stored = database.beacons_in_bucket(bucket)
        else:
            stored = [
                record
                for other in database.bucket_keys()
                if (other[0], other[2], other[3]) == (bucket[0], bucket[2], bucket[3])
                for record in database.beacons_in_bucket(other)
            ]
        try:
            if on_demand:
                algorithm = rac.on_demand_manager.resolve(stored[0].beacon)
            else:
                algorithm = rac.algorithm
            prepared, _setup_ms = rac.sandbox.setup(algorithm)
            candidates = tuple(
                CandidateBeacon(beacon=s.beacon, ingress_interface=s.ingress_interface)
                for s in stored
            )
            report.candidates += len(candidates)
            rac.ipc.marshal_beacons([c.beacon for c in candidates])
            result = prepared.execute(
                ExecutionContext(
                    local_as=local_as,
                    candidates=candidates,
                    egress_interfaces=tuple(egress_interfaces),
                    max_paths_per_interface=MAX_PATHS_PER_INTERFACE,
                    intra_latency_ms=intra,
                )
            )
            flat = [(i, b) for i, beacons in result.selections.items() for b in beacons]
            rac.ipc.exchanges.append(sum(len(b.encode()) + 8 for _i, b in flat))
            by_digest = {s.beacon.digest(): s for s in stored}
            merged = {}
            for interface, beacons in result.selections.items():
                for beacon in beacons:
                    record = by_digest.get(beacon.digest())
                    if record is None:
                        raise AlgorithmError("unknown beacon")
                    selection = merged.setdefault(
                        beacon.digest(), RACSelection(record, [], (config.rac_id,))
                    )
                    if interface not in selection.egress_interfaces:
                        selection.egress_interfaces.append(interface)
        except (AlgorithmError, SandboxError):
            report.failed_buckets += 1
            continue
        selections.extend(merged.values())
        report.buckets += 1
    report.selections = sum(len(s.egress_interfaces) for s in selections)
    return selections, report


_PAYLOAD = encode_builtin_payload("5sp")
_ON_DEMAND = ExtensionSet().with_algorithm("algo", algorithm_hash(_PAYLOAD))
#: Same algorithm id, wrong hash: resolving it fails the job.
_TAMPERED = ExtensionSet().with_algorithm("algo", algorithm_hash(b"tampered"))

#: Every extension combination a bucket key can come from; group 0 and no
#: group (likewise no target and target 0) tie in the bucket sort.
_BUCKET_EXTENSIONS = (
    None,
    ExtensionSet().with_interface_group(0),
    ExtensionSet().with_interface_group(1),
    ExtensionSet().with_interface_group(2),
    ExtensionSet().with_target(50),
    ExtensionSet().with_target(50).with_interface_group(1),
    _ON_DEMAND,
    _ON_DEMAND.with_interface_group(2),
)


@pytest.fixture(scope="module")
def bucket_pool():
    """Beacons of three origins spread over every kind of bucket.

    Per origin and extension set: two AS paths, each over two parallel
    origin links (ties everywhere), and one looping path through
    ``LOCAL_AS``; origin 3's on-demand beacons carry a tampered hash.
    """
    key_store = KeyStore()
    pool = []
    for origin in (1, 2, 3):
        for extensions in _BUCKET_EXTENSIONS:
            if origin == 3 and extensions is not None and extensions.algorithm is not None:
                extensions = _TAMPERED
            for mids in ((4,), (5, 4), (LOCAL_AS,)):
                for origin_interface in (1, 2):
                    hops = [(origin, None, origin_interface)] + [(mid, 7, 8) for mid in mids]
                    pool.append(make_beacon(key_store, hops, extensions=extensions))
    return pool


class _Careless(RoutingAlgorithm):
    """Returns what a careless or hostile algorithm could, chosen by digest.

    Per interface and candidate: its own beacon, an equal copy or nothing,
    and now and then the beacon it extends (never stored here).  A quarter
    of the jobs also get the first beacon it ever saw, which sits in
    another bucket or left the store.
    """

    name = "careless"

    def __init__(self):
        self.first = None

    def execute(self, context):
        result = ExecutionResult()
        if not context.candidates:
            return result
        if self.first is None:
            self.first = context.candidates[0].beacon
        for interface in context.egress_interfaces:
            chosen = []
            for candidate in context.candidates:
                beacon = candidate.beacon
                mode = (int(beacon.digest()[-2:], 16) + interface) % 19
                if mode < 9:
                    chosen.append(beacon)
                elif mode < 16:
                    chosen.append(pickle.loads(pickle.dumps(beacon)))
                elif mode == 18:
                    chosen.append(beacon.parent)
            if int(context.candidates[0].beacon.digest()[0], 16) % 4 == 0:
                chosen.append(self.first)
            result.selections[interface] = chosen
        return result


#: name -> algorithm factory (HD remembers what it propagated).
ROUND_ALGORITHMS = {
    "1sp": lambda: KShortestPathAlgorithm(k=1),
    "5sp": lambda: KShortestPathAlgorithm(k=5),
    "hd": lambda: HeuristicDisjointnessAlgorithm(paths_per_interface=2),
    "don": lambda: DelayOptimizationAlgorithm(paths_per_interface=3),
    "on-demand": None,
}


@dataclass
class _MeteredChannel(IPCChannel):
    """An IPC channel that keeps the payload bytes of every exchange: a
    marshal's wire, and a transfer's encodings plus 8 bytes per beacon."""

    exchanges: list = field(default_factory=list)

    def marshal_beacons(self, beacons):
        wire, elapsed_ms = super().marshal_beacons(beacons)
        self.exchanges.append(sum(map(len, wire)))
        return wire, elapsed_ms

    def transfer_results(self, selections):
        self.exchanges.append(
            sum(beacon.encoded_size() + 8 for beacons in selections.values() for beacon in beacons)
        )
        return super().transfer_results(selections)


def _container(name, use_interface_groups):
    config = RACConfig(rac_id=name, use_interface_groups=use_interface_groups)
    if name == "on-demand":
        manager = OnDemandAlgorithmManager(transport=lambda _origin, _algorithm_id: _PAYLOAD)
        return RoutingAlgorithmContainer(
            config=config, on_demand_manager=manager, ipc=_MeteredChannel()
        )
    return RoutingAlgorithmContainer(
        config=config, algorithm=ROUND_ALGORITHMS[name](), ipc=_MeteredChannel()
    )


class TestRACRoundEquivalence:
    @pytest.mark.parametrize("use_interface_groups", (True, False))
    @pytest.mark.parametrize("name", sorted(ROUND_ALGORITHMS))
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 143), st.sampled_from((1, 2, 3))), max_size=30
        ),
        departures=st.lists(st.integers(0, 143), max_size=6),
        interfaces=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_matches_the_wrap_rescan_merge_reference(
        self, bucket_pool, name, use_interface_groups, arrivals, departures, interfaces
    ):
        self.assert_rounds_agree(
            bucket_pool,
            _container(name, use_interface_groups),
            _container(name, use_interface_groups),
            arrivals,
            departures,
            interfaces,
        )

    @pytest.mark.parametrize("use_interface_groups", (True, False))
    @given(
        arrivals=st.lists(
            st.tuples(st.integers(0, 143), st.sampled_from((1, 2, 3))), min_size=10, max_size=80
        ),
        departures=st.lists(st.integers(0, 143), max_size=12),
        interfaces=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_returned_copies_and_strangers_merge_like_the_reference(
        self, bucket_pool, use_interface_groups, arrivals, departures, interfaces
    ):
        """A copy merges onto its record and a stranger fails its job, as in
        the digest-map reference."""

        def container():
            return RoutingAlgorithmContainer(
                config=RACConfig(rac_id="careless", use_interface_groups=use_interface_groups),
                algorithm=_Careless(),
                ipc=_MeteredChannel(),
            )

        self.assert_rounds_agree(
            bucket_pool, container(), container(), arrivals, departures, interfaces
        )

    @staticmethod
    def assert_rounds_agree(bucket_pool, rac, reference, arrivals, departures, interfaces):
        database = IngressDatabase(local_as=LOCAL_AS)
        for index, ingress in arrivals:
            database.insert(CandidateBeacon(bucket_pool[index], ingress_interface=ingress))
        # Two rounds around a removal: HD's memory and the cached bucket
        # order both carry over.
        for round_index in range(2):
            if round_index:
                gone = {bucket_pool[index].digest() for index in departures}
                database.remove_matching(lambda stored: stored.beacon.digest() in gone)
            selections, report = rac.process(database, tuple(interfaces), lambda a, b: 0.0, LOCAL_AS)
            expected, expected_report = reference_round(
                reference, database, interfaces, lambda a, b: 0.0, LOCAL_AS
            )
            assert [(id(s.stored), s.egress_interfaces, s.criteria_tags) for s in selections] == [
                (id(s.stored), s.egress_interfaces, s.criteria_tags) for s in expected
            ]
            counts = ("buckets", "candidates", "selections", "failed_buckets")
            assert [getattr(report, c) for c in counts] == [
                getattr(expected_report, c) for c in counts
            ]
            assert rac.ipc.exchanges == reference.ipc.exchanges

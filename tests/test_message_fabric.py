"""Tests of the unified control-plane message fabric (PR 5).

Everything inter-AS is one typed :class:`~repro.core.messages.ControlMessage`,
routed through one generic transport path with per-AS inboxes drained in
batches.  These tests pin the message contract, the message capabilities
(batched revocation elements, down-segment announcement traffic), the
inbox batching semantics, and — via a property test — that batched
delivery and per-message delivery produce identical database state and
identical withdrawal timestamps.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.databases import RegisteredPath
from repro.core.messages import (
    ControlMessage,
    PCBMessage,
    PathRegistrationMessage,
    RevocationMessage,
)
from repro.core.query import PathQuery
from repro.core.transport import NullTransport
from repro.crypto.signer import Signer
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.collector import MESSAGE_KINDS
from repro.simulation.engine import EventScheduler
from repro.simulation.events import LinkFailure, LinkRecovery
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import don_scenario
from repro.topology.entities import normalize_link_id
from repro.units import minutes

from tests.conftest import build_services, line_topology, make_beacon, pcb_message
from tests.test_beacon_layout import reachable


def _link(topology, index):
    return topology.link_ids()[index]


def _pending(transport, as_id):
    """Delivered messages waiting in ``as_id``'s inbox for their drain."""
    return len(transport._inboxes[as_id].entries)


class TestEnvelope:
    def test_pcb_message_envelope(self, key_store):
        """The header every message carries: origin, sequence, time."""
        beacon = make_beacon(key_store, [(1, None, 2)])
        message = PCBMessage(
            origin_as=1, sequence=7, created_at_ms=42.0, beacon=beacon
        )
        assert message.origin_as == 1
        assert message.sequence == 7
        assert message.created_at_ms == 42.0
        assert message.beacon is beacon
        assert message.kind == "pcb"
        assert message.key == (1, 7)

    def test_pcb_message_requires_beacon(self):
        with pytest.raises(ConfigurationError):
            PCBMessage(origin_as=1, sequence=1, created_at_ms=0.0)

    def test_path_registration_requires_path(self):
        with pytest.raises(ConfigurationError):
            PathRegistrationMessage(origin_as=1, sequence=1, created_at_ms=0.0)

    def test_kinds_are_distinct(self):
        kinds = {PCBMessage.kind, RevocationMessage.kind, PathRegistrationMessage.kind}
        assert kinds == {"pcb", "revocation", "path_registration"}
        assert ControlMessage.kind == "control"

    def test_every_message_type_has_a_ledger_and_an_unknown_kind_has_none(self, key_store):
        # Plus the pull return, which the transport ledgers without a type.
        assert {cls.kind for cls in ControlMessage.__subclasses__()} | {
            "pull_return"
        } == set(MESSAGE_KINDS)
        _scheduler, transport, services = build_services(
            line_topology(2), key_store
        )
        bare = ControlMessage(origin_as=1, sequence=1, created_at_ms=0.0)
        with pytest.raises(SimulationError):
            transport.send_message(1, 2, bare)
        assert transport.collector.control_messages_total() == 0
        # Nor does the one dispatch have a handler for it.
        with pytest.raises(SimulationError):
            services[2].on_message_batch([(bare, 1)], now_ms=0.0)


class TestMessageMemos:
    """Derived values live in declared slots: cold on copies, outside identity."""

    @pytest.fixture
    def messages(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 2)])
        return [
            PCBMessage(origin_as=1, sequence=1, created_at_ms=0.0, beacon=beacon),
            RevocationMessage(
                origin_as=1, sequence=2, created_at_ms=0.0, failed_links=(((1, 2), (2, 1)),)
            ),
        ]

    def test_messages_carry_no_instance_dict(self, messages):
        for message in messages:
            assert not hasattr(message, "__dict__")

    def test_key_memo_is_outside_equality_hash_and_repr(self, messages):
        for message in messages:
            twin = pickle.loads(pickle.dumps(message))
            assert message.key is message.key
            assert message.key == (message.origin_as, message.sequence)
            assert twin._key is None
            assert message == twin and hash(message) == hash(twin)
            assert "_key" not in repr(message)

    def test_key_memo_is_cold_on_copies(self, messages):
        for message in messages:
            key = message.key
            copy = dataclasses.replace(message)
            assert copy._key is None
            assert copy.key == key and copy.key is not key

    def test_pickle_carries_a_warm_key(self, messages):
        for message in messages:
            key = message.key
            restored = pickle.loads(pickle.dumps(message))
            assert restored._key == key
            assert restored.key is restored._key

    @staticmethod
    def _revocation_memos(message):
        return (message._failed_link_set, message._failed_as_set, message._encoded_unsigned)

    @staticmethod
    def _warm(message):
        return (message.failed_link_set, message.failed_as_set, message.encode_unsigned())

    def test_copies_start_cold_and_measure_the_same(self):
        message = RevocationMessage(
            origin_as=1, sequence=2, created_at_ms=0.0,
            failed_links=(((1, 2), (2, 1)),), failed_ases=(7,),
        )
        values = self._warm(message)
        copy = dataclasses.replace(message)
        assert self._revocation_memos(copy) == (None, None, None)
        assert self._warm(copy) == values

    def test_pickle_carries_warm_memos(self):
        message = RevocationMessage(
            origin_as=1, sequence=2, created_at_ms=0.0, failed_links=(((1, 2), (2, 1)),)
        )
        values = self._warm(message)
        restored = pickle.loads(pickle.dumps(message))
        assert self._revocation_memos(restored) == values
        assert restored == message and hash(restored) == hash(message)
        assert "_encoded_unsigned" not in repr(message)

    def test_signed_revocation_resizes_with_its_signature(self, key_store):
        """Signing changes the signature only: the signed encoding is re-derived
        on the copy and equals the unsigned one."""
        message = RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0, failed_ases=(2,))
        unsigned_encoding = message.encode_unsigned()
        signed = message.signed(Signer(as_id=1, key_store=key_store))
        assert signed.signature and not message.signature
        assert signed._encoded_unsigned is None
        assert signed.encode_unsigned() == unsigned_encoding
        assert signed != message and signed.key == message.key

    def test_an_unscoped_flood_stores_one_key_tuple_network_wide(self, key_store):
        """Every AS's dedup store holds the tuple the shared flood message
        carries, not one equal tuple per AS; the withdrawal ledger holds no
        tuple at all (its entries live in flat arrays)."""
        topology = line_topology(5)
        scheduler, _transport, services = build_services(topology, key_store)
        # AS 2 revokes its link to AS 1; the flood reaches ASes 3-5.
        message = services[2].originate_revocation(
            failed_links=(_link(topology, 0),), now_ms=0.0
        )
        scheduler.run_all()
        for as_id in (2, 3, 4, 5):
            revocations = services[as_id].revocations
            (seen_key,) = revocations._seen
            assert seen_key is message.key, as_id
            assert list(revocations.applied_at) == [message.key], as_id
            held = reachable([revocations.applied_at])
            assert not [obj for obj in held if isinstance(obj, tuple)], as_id

    def test_revocation_sets_are_memoized(self):
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(((1, 2), (2, 1)),),
            failed_ases=(7,),
        )
        assert message.failed_link_set is message.failed_link_set
        assert message.failed_link_set == frozenset(message.failed_links)
        assert message.failed_as_set is message.failed_as_set
        assert message.failed_as_set == frozenset({7})

    def test_query_keys_are_memoized_outside_identity(self):
        warm = PathQuery(origin_as=4, required_tags=("b", "a"), limit=3)
        cold = PathQuery(origin_as=4, required_tags=("b", "a"), limit=3)
        assert warm.cache_key() is warm.cache_key()
        assert warm.cache_key() == (4, warm.policy_key())
        assert warm == cold and hash(warm) == hash(cold)
        assert "_policy_key" not in repr(warm)
        assert not hasattr(warm, "__dict__")

    def test_query_pickle_carries_warm_memos(self):
        query = PathQuery(origin_as=4, required_tags=("x",), max_latency_ms=50.0)
        key = query.cache_key()
        restored = pickle.loads(pickle.dumps(query))
        assert restored._cache_key == key
        assert restored == query


class TestBatchedRevocationElements:
    def test_elements_are_unioned_and_normalised(self):
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(((2, 1), (1, 2)), ((3, 2), (2, 2)), ((1, 2), (2, 1))),  # third is a dup
            failed_ases=(9, 9),
        )
        assert message.failed_links == (
            normalize_link_id((1, 2), (2, 1)),
            normalize_link_id((2, 2), (3, 2)),
        )
        assert message.failed_ases == (9,)

    def test_at_least_one_element_required(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0)

    def test_single_element_encoding_is_stable(self):
        # The pre-fabric canonical encoding — signatures over classic
        # single-element messages must stay byte-identical.
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=0.0, failed_links=(((1, 2), (2, 1)),)
        )
        assert message.encode_unsigned() == (
            "revocation(origin=1,seq=1,created=0.000,link=1.2-2.1)"
        )

    def test_batched_trace_label_joins_elements(self):
        message = RevocationMessage(
            origin_as=5,
            sequence=2,
            created_at_ms=0.0,
            failed_links=(((1, 2), (2, 1)),),
            failed_ases=(7,),
        )
        assert message.trace_label() == "revoke link 1.2-2.1+as 7 origin=5 seq=2"

    def test_batched_message_withdraws_every_element(self, key_store):
        """One message naming two failed links withdraws state crossing both."""
        topology = line_topology(5)
        scenario = don_scenario(periods=2, verify_signatures=False)
        simulation = BeaconingSimulation(topology, scenario)
        simulation.run()  # populate databases

        link_a = _link(topology, 0)  # 1-2
        link_b = _link(topology, 3)  # 4-5
        service = simulation.services[3]
        assert any(
            link_a in s.beacon.links() for s in service.ingress.database.all_beacons()
        )
        message = RevocationMessage(
            origin_as=2,
            sequence=99,
            created_at_ms=minutes(30),
            failed_links=(link_a, link_b),
        ).signed(simulation.services[2].builder.signer)
        assert service.on_revocation(message, on_interface=1, now_ms=minutes(30)) is True
        for stored in service.ingress.database.all_beacons():
            assert link_a not in stored.beacon.links()
            assert link_b not in stored.beacon.links()
        for path in service.path_service.all_paths():
            assert link_a not in path.segment.links()
            assert link_b not in path.segment.links()
        # One message, one withdrawal timestamp.
        assert service.revocations.applied_at[(2, 99)] == minutes(30)


class TestRevocationScope:
    """A flood has no scope: it reaches every AS a path of live links reaches."""

    def test_unscoped_flood_reaches_everyone(self, key_store):
        topology = line_topology(4)
        scheduler, _transport, services = build_services(topology, key_store)
        scheduler.run_until(5.0)
        services[2].originate_revocation(now_ms=5.0, failed_links=(_link(topology, 0),))
        scheduler.run_all()
        assert services[4].revocations.applied_at != {}


class TestPathRegistrationTraffic:
    """Down-segment announcements travel the fabric back to their origin."""

    def _terminated_segment(self, key_store, **kwargs):
        # Origin AS 3 -> transit AS 2 -> terminated at AS 1 (line topology
        # interface ids: AS i's interface 2 faces AS i + 1's interface 1).
        return make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 2, None)], **kwargs)

    @staticmethod
    def _announce(transport, segment):
        """AS 1 announces ``segment`` out the interface its beacon arrived on."""
        message = PathRegistrationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            path=RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0),
        )
        transport.send_message(1, 2, message)
        return message

    def test_registration_travels_and_restamps_arrival_time(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        message = self._announce(transport, self._terminated_segment(key_store))
        assert message.kind == "path_registration"
        assert services[3].path_service.paths_to(3) == []  # still in flight
        scheduler.run_until(100.0)
        # Relayed by transit AS 2 without registering there.
        assert services[2].path_service.all_paths() == []
        registered = services[3].path_service.paths_to(3)
        assert len(registered) == 1
        # Re-stamped with the arrival time: two hops of 10 ms link + 1 ms
        # processing.
        assert registered[0].registered_at_ms == 22.0
        assert registered[0].criteria_tags == ("1sp",)
        # Counted as fabric traffic (one send per hop), disjoint from PCBs.
        assert transport.collector.total_registrations == 2
        assert transport.collector.total_sent == 0
        assert transport.collector.control_messages_total() == 2

    def test_expired_offer_is_dropped(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        self._announce(transport, self._terminated_segment(key_store, validity_ms=5.0))
        scheduler.run_until(100.0)  # reaches AS 2 at 11 ms, expired at 5 ms
        assert services[3].path_service.paths_to(3) == []
        # Dropped at the transit AS, not relayed.
        assert transport.collector.total_registrations == 1

    def test_registration_lost_on_failed_link(self, key_store):
        topology = line_topology(3)
        link_state = LinkState()
        scheduler, transport, services = build_services(
            topology, key_store, link_state=link_state
        )
        link_state.fail_link(_link(topology, 1))  # the 2-3 link
        self._announce(transport, self._terminated_segment(key_store))
        scheduler.run_until(100.0)
        assert services[3].path_service.paths_to(3) == []
        assert transport.collector.dropped["path_registration"] == 1

    def test_null_transport_records_typed_messages(self, key_store):
        transport = NullTransport()
        segment = self._terminated_segment(key_store)
        message = PathRegistrationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            path=RegisteredPath(segment=segment, criteria_tags=(), registered_at_ms=0.0),
        )
        transport.send_message(1, 2, message)
        assert transport.messages == [(1, 2, message)]


class TestInboxBatching:
    def test_batch_size_validated(self):
        with pytest.raises(ConfigurationError):
            SimulatedTransport(
                topology=line_topology(2), scheduler=EventScheduler(), batch_size=0
            )

    def test_scenario_batch_size_validated(self):
        from repro.simulation.scenario import ScenarioConfig, one_shortest_path_spec

        with pytest.raises(ConfigurationError):
            ScenarioConfig(algorithms=(one_shortest_path_spec(),), inbox_batch_size=0)

    def test_same_tick_messages_drain_in_one_batch(self, key_store):
        """Copies of one beacon arriving together pay a single admission."""
        topology = line_topology(3)
        beacon = make_beacon(key_store, [(1, None, 2)])

        def deliver_twice(batch_size):
            scheduler, transport, services = build_services(
                topology, key_store, verify_signatures=True, batch_size=batch_size
            )
            receiver = services[2]
            # Two copies sent at the same instant land at the same tick
            # (e.g. simultaneous re-propagation over parallel links).
            transport.send_message(1, 2, pcb_message(1, beacon))
            transport.send_message(1, 2, pcb_message(1, beacon))
            scheduler.run_until(20.0)
            return receiver

        batched = deliver_twice(batch_size=None)
        assert batched.ingress.stats.received == 2
        assert batched.ingress.stats.accepted == 1
        assert batched.ingress.stats.duplicates == 1
        # One admission for the pair: no second verification of any kind.
        assert batched.ingress.stats.full_verifications == 1
        assert batched.ingress.stats.incremental_verifications == 0

        per_message = deliver_twice(batch_size=1)
        # Identical observable outcome...
        assert per_message.ingress.stats.accepted == 1
        assert per_message.ingress.stats.duplicates == 1
        # ...but the second copy paid its own (cache-assisted) admission.
        assert (
            per_message.ingress.stats.full_verifications
            + per_message.ingress.stats.incremental_verifications
            == 2
        )

    def test_pending_messages_visible_between_ticks(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        beacon = make_beacon(key_store, [(1, None, 2)])
        transport.send_message(1, 2, pcb_message(1, beacon))
        assert _pending(transport, 2) == 0  # still in flight
        scheduler.run_until(100.0)
        assert _pending(transport, 2) == 0  # drained at its tick
        assert len(services[2].ingress.database) == 1

    @staticmethod
    def _record_batches(transport, service):
        """Wrap ``service``'s batch handler; return the log of (size, pending, now)."""
        handle = service.on_message_batch
        log = []

        def recording(entries, now_ms):
            log.append((len(entries), _pending(transport, service.as_id), now_ms))
            handle(entries, now_ms)

        service.on_message_batch = recording
        return log

    def _send_same_tick(self, key_store, count, **transport_kwargs):
        scheduler, transport, services = build_services(
            line_topology(3), key_store, **transport_kwargs
        )
        log = self._record_batches(transport, services[2])
        for index in range(count):
            beacon = make_beacon(key_store, [(1, None, 2)], link_latencies=[10.0 + index])
            transport.send_message(1, 2, pcb_message(1, beacon))
        scheduler.run_all()
        return log, services[2]

    def test_unbounded_drain_hands_over_the_whole_tick(self, key_store):
        log, receiver = self._send_same_tick(key_store, 5)
        assert [size for size, _pending, _now in log] == [5]
        assert receiver.ingress.stats.received == 5

    @pytest.mark.parametrize("batch_size, sizes", [(1, [1] * 5), (2, [2, 2, 1]), (5, [5])])
    def test_finite_batch_size_slices_the_tick(self, key_store, batch_size, sizes):
        log, receiver = self._send_same_tick(key_store, 5, batch_size=batch_size)
        assert [size for size, _pending, _now in log] == sizes
        # Every slice is handled within the one arrival tick.
        assert len({now for _size, _pending, now in log}) == 1
        assert receiver.ingress.stats.received == 5

    def test_later_arrivals_drain_at_their_own_tick(self, key_store):
        scheduler, transport, services = build_services(line_topology(3), key_store)
        log = self._record_batches(transport, services[2])
        first = make_beacon(key_store, [(1, None, 2)], link_latencies=[10.0])
        second = make_beacon(key_store, [(1, None, 2)], link_latencies=[11.0])
        transport.send_message(1, 2, pcb_message(1, first))
        scheduler.run_until(5.0)
        transport.send_message(1, 2, pcb_message(1, second))
        scheduler.run_all()
        assert [(size, now) for size, _pending, now in log] == [
            (1, pytest.approx(11.0)),
            (1, pytest.approx(16.0)),
        ]
        assert len(services[2].ingress.database) == 2

    def test_inbox_is_empty_while_its_batch_is_handled(self, key_store):
        log, _receiver = self._send_same_tick(key_store, 3, batch_size=2)
        assert [pending for _size, pending, _now in log] == [0, 0]

    def test_delivery_lands_after_link_latency_plus_processing(self, key_store):
        log, _receiver = self._send_same_tick(key_store, 1, processing_delay_ms=2.5)
        (_size, _pending, now_ms), = log
        assert now_ms == pytest.approx(10.0 + 2.5)  # line_topology links: 10 ms

    def test_pull_return_is_scheduled_after_path_latency(self, key_store):
        scheduler, transport, services = build_services(line_topology(3), key_store)
        origin = services[1]
        beacon = make_beacon(
            key_store, [(1, None, 2), (2, 1, 2), (3, 1, None)], link_latencies=[10.0, 10.0]
        )
        transport.return_beacon_to_origin(3, beacon)
        assert origin.pull_results == []  # sending only schedules the return
        assert transport.collector.sent["pull_return"] == 1
        scheduler.run_all()
        assert [(returned.digest(), now) for returned, now in origin.pull_results] == [
            (beacon.digest(), pytest.approx(20.0 + transport.processing_delay_ms))
        ]

    def test_pull_return_over_a_failed_link_is_a_dropped_pcb(self, key_store):
        """A return whose path has failed by arrival never reaches the origin."""
        topology = line_topology(3)
        link_state = LinkState()
        scheduler, transport, services = build_services(
            topology, key_store, link_state=link_state
        )
        beacon = make_beacon(
            key_store, [(1, None, 2), (2, 1, 2), (3, 1, None)], link_latencies=[10.0, 10.0]
        )
        transport.return_beacon_to_origin(3, beacon)
        scheduler.run_until(5.0)
        link_state.fail_link(_link(topology, 0))  # fails while the return travels
        scheduler.run_all()
        assert services[1].pull_results == []
        assert transport.collector.sent["pull_return"] == 1
        assert transport.collector.dropped["pcb"] == 1
        assert transport.collector.total_dropped == 1


def _fabric_state(result):
    """Extract the observable per-AS state a delivery mode must not change."""
    state = {}
    for as_id, service in result.services.items():
        state[as_id] = (
            sorted(s.beacon.digest() for s in service.ingress.database.all_beacons()),
            sorted(
                (p.segment.digest(), p.registered_at_ms, p.criteria_tags)
                for p in service.path_service.all_paths()
            ),
            dict(service.revocations.applied_at),
        )
    return state


def _run_dynamic(batch_size, link_index, fail_minute, recover):
    topology = line_topology(4)
    scenario = don_scenario(periods=4, verify_signatures=False)
    scenario.inbox_batch_size = batch_size
    link = topology.link_ids()[link_index]
    fail_at = float(fail_minute) * 60_000.0
    scenario.timeline.add(fail_at, LinkFailure(link))
    if recover:
        scenario.timeline.add(fail_at + minutes(10), LinkRecovery(link))
    simulation = BeaconingSimulation(topology, scenario)
    result = simulation.run()
    counters = (
        result.collector.total_sent,
        result.collector.total_dropped,
        result.collector.total_revocations,
        result.collector.revocations_dropped,
        result.collector.control_messages_total(),
    )
    return _fabric_state(result), counters


class TestDispatchEquivalence:
    """Satellite: batched and per-message delivery are indistinguishable."""

    @settings(max_examples=8, deadline=None)
    @given(
        link_index=st.integers(min_value=0, max_value=2),
        fail_minute=st.integers(min_value=3, max_value=35),
        recover=st.booleans(),
    )
    def test_batched_equals_per_message(self, link_index, fail_minute, recover):
        batched_state, batched_counters = _run_dynamic(
            None, link_index, fail_minute, recover
        )
        single_state, single_counters = _run_dynamic(
            1, link_index, fail_minute, recover
        )
        assert batched_state == single_state
        assert batched_counters == single_counters

    def test_intermediate_batch_sizes_equivalent(self):
        reference = _run_dynamic(1, 1, 15, True)
        for batch_size in (2, 3, None):
            assert _run_dynamic(batch_size, 1, 15, True) == reference

    def test_golden_trace_identical_across_modes(self):
        """The full convergence trace matches between delivery modes."""
        def run(batch_size):
            topology = line_topology(5)
            scenario = don_scenario(periods=6, verify_signatures=False)
            scenario.inbox_batch_size = batch_size
            link = topology.link_ids()[1]
            scenario.timeline.add(minutes(25), LinkFailure(link))
            scenario.timeline.add(minutes(45), LinkRecovery(link))
            simulation = BeaconingSimulation(topology, scenario)
            simulation.watch_pair(5, 1)
            result = simulation.run()
            return result.convergence.trace_text()

        assert run(None) == run(1)

"""Tests of the unified control-plane message fabric (PR 5).

Everything inter-AS is one typed :class:`~repro.core.messages.ControlMessage`
with a shared envelope, routed through one generic transport path with
per-AS inboxes drained in batches.  These tests pin the envelope contract,
the new message capabilities (batched revocation elements, TTL, scope
limiting, path-registration traffic), the inbox batching semantics, and —
via a property test — that batched delivery and per-message delivery
produce identical database state and identical withdrawal timestamps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.databases import RegisteredPath
from repro.core.local_view import LocalTopologyView
from repro.core.messages import (
    ControlMessage,
    PCBMessage,
    PathRegistrationMessage,
    RevocationMessage,
)
from repro.core.transport import LoopbackTransport, NullTransport
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.collector import MESSAGE_KINDS
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import don_scenario
from repro.topology.entities import normalize_link_id
from repro.units import minutes

from tests.conftest import line_topology, make_beacon, pcb_message


def _link(topology, index):
    return topology.link_ids()[index]


def build_loopback_services(topology, key_store, verify_signatures=True):
    """Wire one IREC control service per AS over a loopback transport."""
    transport = LoopbackTransport(topology=topology)
    services = {}
    for as_info in topology:
        view = LocalTopologyView.from_topology(topology, as_info.as_id)
        service = IrecControlService(
            view=view,
            key_store=key_store,
            transport=transport,
            config=ControlServiceConfig(verify_signatures=verify_signatures),
        )
        services[as_info.as_id] = service
        transport.register(service)
    return transport, services


def build_simulated_services(topology, key_store, verify_signatures=False, **transport_kwargs):
    """Wire IREC control services over a scheduler-driven SimulatedTransport."""
    scheduler = EventScheduler()
    transport = SimulatedTransport(
        topology=topology, scheduler=scheduler, **transport_kwargs
    )
    services = {}
    for as_info in topology:
        view = LocalTopologyView.from_topology(topology, as_info.as_id)
        service = IrecControlService(
            view=view,
            key_store=key_store,
            transport=transport,
            config=ControlServiceConfig(verify_signatures=verify_signatures),
        )
        services[as_info.as_id] = service
        transport.register(service)
    return scheduler, transport, services


class TestEnvelope:
    def test_pcb_message_envelope(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 2)])
        message = PCBMessage(
            origin_as=1, sequence=7, created_at_ms=42.0, beacon=beacon
        )
        envelope = message.envelope
        assert envelope.origin_as == 1
        assert envelope.sequence == 7
        assert envelope.created_at_ms == 42.0
        assert envelope.hop_path == ()
        assert envelope.size_bytes == len(beacon.encode()) > 0
        assert message.kind == "pcb"
        assert message.key == (1, 7)

    def test_with_hop_records_traversal(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 2)])
        message = PCBMessage(origin_as=1, sequence=1, created_at_ms=0.0, beacon=beacon)
        hopped = message.with_hop(2).with_hop(3)
        assert hopped.hop_path == (2, 3)
        assert hopped.hop_count == 2
        assert message.hop_path == ()  # the original is untouched

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
        assert {cls.kind for cls in ControlMessage.__subclasses__()} == set(MESSAGE_KINDS)
        _scheduler, transport, _services = build_simulated_services(
            line_topology(2), key_store
        )
        bare = ControlMessage(origin_as=1, sequence=1, created_at_ms=0.0)
        with pytest.raises(SimulationError):
            transport.send_message(1, 2, bare)
        assert transport.collector.control_messages_total() == 0

    def test_hop_tracking_default_off(self, key_store):
        beacon = make_beacon(key_store, [(1, None, 2)])
        assert not PCBMessage(
            origin_as=1, sequence=1, created_at_ms=0.0, beacon=beacon
        ).needs_hop_tracking()
        unscoped = RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0, failed_as=2)
        scoped = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=0.0, failed_as=2, max_hops=3
        )
        assert not unscoped.needs_hop_tracking()
        assert scoped.needs_hop_tracking()


class TestBatchedRevocationElements:
    def test_elements_are_unioned_and_normalised(self):
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=((2, 1), (1, 2)),
            failed_links=(((3, 2), (2, 2)), ((1, 2), (2, 1))),  # second is a dup
            failed_ases=(9, 9),
        )
        assert message.failed_links == (
            normalize_link_id((1, 2), (2, 1)),
            normalize_link_id((2, 2), (3, 2)),
        )
        assert message.failed_ases == (9,)
        assert message.failed_link == normalize_link_id((1, 2), (2, 1))

    def test_at_least_one_element_required(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0)

    def test_singular_fields_stay_exclusive(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(
                origin_as=1,
                sequence=1,
                created_at_ms=0.0,
                failed_link=((1, 2), (2, 1)),
                failed_as=3,
            )

    def test_single_element_encoding_is_stable(self):
        # The pre-fabric canonical encoding — signatures over classic
        # single-element messages must stay byte-identical.
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=0.0, failed_link=((1, 2), (2, 1))
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
            link_a in s.beacon.link_set() for s in service.ingress.database.all_beacons()
        )
        message = RevocationMessage(
            origin_as=2,
            sequence=99,
            created_at_ms=minutes(30),
            failed_links=(link_a, link_b),
        ).signed(simulation.services[2].builder.signer)
        assert service.on_revocation(message, on_interface=1, now_ms=minutes(30)) is True
        for stored in service.ingress.database.all_beacons():
            assert link_a not in stored.beacon.link_set()
            assert link_b not in stored.beacon.link_set()
        for path in service.path_service.all_paths():
            assert link_a not in path.segment.link_set()
            assert link_b not in path.segment.link_set()
        # One message, one withdrawal timestamp.
        assert service.revocations.applied_at[(2, 99)] == minutes(30)


class TestRevocationTTL:
    def test_stale_copy_is_dropped_without_shadowing(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(
            topology, key_store, verify_signatures=False
        )
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
            ttl_ms=100.0,
        )
        receiver = services[2]
        # Arrives 200 ms after origination: past the TTL, dropped.
        assert receiver.on_revocation(message, on_interface=1, now_ms=200.0) is False
        assert receiver.revocations.rejected_stale == 1
        assert receiver.revocations.applied_at == {}
        # An in-TTL copy arriving later still applies: staleness is
        # per-copy, the drop did not mark the key seen.
        assert receiver.on_revocation(message, on_interface=1, now_ms=50.0) is True
        assert receiver.revocations.applied_at[(1, 1)] == 50.0

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(
                origin_as=1, sequence=1, created_at_ms=0.0, failed_as=2, ttl_ms=0.0
            )


class TestRevocationScope:
    def test_scope_limited_flood_stops_at_radius(self, key_store):
        """max_hops=1: direct neighbours withdraw, the flood goes no further."""
        topology = line_topology(4)
        _transport, services = build_loopback_services(
            topology, key_store, verify_signatures=False
        )
        failed = _link(topology, 0)  # the 1-2 link
        services[2].originate_revocation(
            now_ms=5.0, failed_link=failed, max_hops=1
        )
        # Origin applied and forwarded to AS 3 (its only non-revoked interface).
        assert services[2].revocations.applied_at != {}
        # AS 3 received a copy with one traversed hop: applied, not re-forwarded.
        assert services[3].revocations.applied_at[(2, 1)] == 0.0
        assert services[3].revocations.forwarded == 0
        # AS 4 is outside the scope and never hears about the failure.
        assert services[4].revocations.applied_at == {}

    def test_unscoped_flood_reaches_everyone(self, key_store):
        topology = line_topology(4)
        _transport, services = build_loopback_services(
            topology, key_store, verify_signatures=False
        )
        services[2].originate_revocation(now_ms=5.0, failed_link=_link(topology, 0))
        assert services[4].revocations.applied_at != {}

    def test_invalid_scope_rejected(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(
                origin_as=1, sequence=1, created_at_ms=0.0, failed_as=2, max_hops=0
            )


class TestPathRegistrationTraffic:
    def _terminated_segment(self, key_store):
        # Origin AS 3 -> terminated at AS 2 (line topology interface ids).
        return make_beacon(key_store, [(3, None, 1), (2, 2, None)])

    def test_registration_travels_and_restamps_arrival_time(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_simulated_services(topology, key_store)
        segment = self._terminated_segment(key_store)
        path = RegisteredPath(
            segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0
        )
        message = services[2].send_path_registration(
            egress_interface=1, path=path, now_ms=0.0
        )
        assert message.kind == "path_registration"
        assert message.size_bytes() > 0
        assert services[1].path_service.paths_to(3) == []  # still in flight
        scheduler.run_until(100.0)
        registered = services[1].path_service.paths_to(3)
        assert len(registered) == 1
        # Re-stamped with the arrival time: 10 ms link + 1 ms processing.
        assert registered[0].registered_at_ms == 11.0
        assert registered[0].criteria_tags == ("1sp",)
        # Counted as fabric traffic, disjoint from PCB sends.
        assert transport.collector.total_registrations == 1
        assert transport.collector.total_sent == 0
        assert transport.collector.control_messages_total() == 1

    def test_expired_offer_is_dropped(self, key_store):
        topology = line_topology(3)
        scheduler, _transport, services = build_simulated_services(topology, key_store)
        segment = make_beacon(
            key_store, [(3, None, 1), (2, 2, None)], validity_ms=5.0
        )
        path = RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
        services[2].send_path_registration(egress_interface=1, path=path, now_ms=0.0)
        scheduler.run_until(100.0)  # arrives at 11 ms, expired at 5 ms
        assert services[1].path_service.paths_to(3) == []

    def test_registration_lost_on_failed_link(self, key_store):
        topology = line_topology(3)
        link_state = LinkState()
        scheduler, transport, services = build_simulated_services(
            topology, key_store, link_state=link_state
        )
        link_state.fail_link(_link(topology, 0))
        segment = self._terminated_segment(key_store)
        path = RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
        services[2].send_path_registration(egress_interface=1, path=path, now_ms=0.0)
        scheduler.run_until(100.0)
        assert services[1].path_service.paths_to(3) == []
        assert transport.collector.dropped["path_registration"] == 1

    def test_null_transport_records_typed_messages(self, key_store):
        transport = NullTransport()
        segment = self._terminated_segment(key_store)
        message = PathRegistrationMessage(
            origin_as=2,
            sequence=1,
            created_at_ms=0.0,
            path=RegisteredPath(segment=segment, criteria_tags=(), registered_at_ms=0.0),
        )
        transport.send_message(2, 1, message)
        assert transport.messages == [(2, 1, message)]


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
            scheduler, transport, services = build_simulated_services(
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
        scheduler, transport, services = build_simulated_services(topology, key_store)
        beacon = make_beacon(key_store, [(1, None, 2)])
        transport.send_message(1, 2, pcb_message(1, beacon))
        assert transport.pending_messages(2) == 0  # still in flight
        scheduler.run_until(100.0)
        assert transport.pending_messages(2) == 0  # drained at its tick
        assert len(services[2].ingress.database) == 1


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
    scenario.at(fail_at).fail_link(link)
    if recover:
        scenario.at(fail_at + minutes(10)).recover_link(link)
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
            scenario.at(minutes(25)).fail_link(link)
            scenario.at(minutes(45)).recover_link(link)
            simulation = BeaconingSimulation(topology, scenario)
            simulation.watch_pair(5, 1)
            result = simulation.run()
            return result.convergence.trace_text()

        assert run(None) == run(1)


class TestHopPathIntegrity:
    """PR 7: the truncated-hop-path check rejects tampering, never honesty."""

    @given(max_hops=st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_fabric_stamping_never_trips_the_truncation_check(
        self, max_hops
    ):
        """Property: every fabric-delivered scoped copy passes the check.

        The transport stamps each delivery, so the hop path always ends at
        the receiver; ``rejected_invalid`` must stay zero for any scope,
        and the flood still reaches exactly its hop radius.
        """
        key_store = KeyStore()
        topology = line_topology(6)
        _transport, services = build_loopback_services(
            topology, key_store, verify_signatures=True
        )
        services[2].originate_revocation(
            now_ms=5.0, failed_link=_link(topology, 0), max_hops=max_hops
        )
        assert all(
            service.revocations.rejected_invalid == 0
            for service in services.values()
        )
        # Scope radius: ASes within max_hops of origin 2 withdrew, the
        # rest never heard (AS 1 sits across the revoked link itself).
        for as_id in range(3, 7):
            distance = as_id - 2
            applied = services[as_id].revocations.applied_at != {}
            assert applied == (distance <= max_hops)

    def test_truncated_copy_is_rejected_at_the_fabric_boundary(self, key_store):
        """A hand-injected scoped copy without stamps dies rejected_invalid."""
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        scoped = RevocationMessage(
            origin_as=1,
            sequence=3,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
            max_hops=2,
        )
        receiver = services[3]
        assert receiver.on_revocation(scoped, on_interface=1, now_ms=1.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}

"""Tests of the revocation control-plane traffic (PR 4).

The revocation subsystem replaces the old instantaneous counter flood:
after a failure, the adjacent ASes originate signed, sequence-numbered
:class:`~repro.core.revocation.RevocationMessage` objects that travel
hop-by-hop through the simulated transport.  These tests pin the message
model (signing, dedup, validation), the propagation-ordered withdrawal
semantics, the interaction with :class:`LinkState` (revocations crossing a
failed link are lost), and the exactly-once overhead accounting.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.local_view import LocalTopologyView
from repro.core.messages import RevocationMessage
from repro.core.revocation import RevocationState
from repro.core.transport import LoopbackTransport
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import don_scenario
from repro.topology.entities import normalize_link_id
from repro.units import minutes

from tests.conftest import line_topology


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


class TestRevocationMessage:
    def test_exactly_one_element_required(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0)
        with pytest.raises(ConfigurationError):
            RevocationMessage(
                origin_as=1,
                sequence=1,
                created_at_ms=0.0,
                failed_link=((1, 2), (2, 1)),
                failed_as=3,
            )

    def test_link_id_is_normalised(self):
        message = RevocationMessage(
            origin_as=2,
            sequence=1,
            created_at_ms=0.0,
            failed_link=((2, 1), (1, 2)),
        )
        assert message.failed_link == normalize_link_id((1, 2), (2, 1))

    def test_sequence_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=0, created_at_ms=0.0, failed_as=2)

    def test_sign_verify_and_tamper(self, key_store):
        signer = Signer(as_id=4, key_store=key_store)
        verifier = Verifier(key_store=key_store)
        message = RevocationMessage(
            origin_as=4, sequence=7, created_at_ms=123.0, failed_as=9
        ).signed(signer)
        message.verify(verifier)  # must not raise
        forged = RevocationMessage(
            origin_as=4,
            sequence=8,  # different content, reused signature
            created_at_ms=123.0,
            failed_as=9,
            signature=message.signature,
        )
        from repro.exceptions import SignatureError

        with pytest.raises(SignatureError):
            forged.verify(verifier)

    def test_trace_labels_are_stable(self):
        link_message = RevocationMessage(
            origin_as=2, sequence=3, created_at_ms=0.0, failed_link=((2, 2), (3, 1))
        )
        as_message = RevocationMessage(
            origin_as=5, sequence=1, created_at_ms=0.0, failed_as=4
        )
        assert link_message.trace_label() == "revoke link 2.2-3.1 origin=2 seq=3"
        assert as_message.trace_label() == "revoke as 4 origin=5 seq=1"


class TestRevocationState:
    def test_dedup_window_prunes_old_keys(self):
        state = RevocationState(dedup_window_ms=1_000.0)
        state.mark_seen((1, 1), 0.0)
        assert state.is_duplicate((1, 1), 500.0)
        # Past the window the key is forgotten: a replay would re-apply,
        # which is harmless because withdrawal is idempotent.
        assert not state.is_duplicate((1, 1), 5_000.0)

    def test_bulk_pruning_bounds_memory_over_long_flood(self):
        """Satellite regression: lazy bulk pruning really evicts old keys.

        A long flood of distinct revocations advances simulated time far
        past the dedup window; without the bulk prune the seen-set would
        grow with every message forever.  With one key per millisecond and
        a 1-second window, at most ~1000 keys are inside the window at any
        time, so the mapping must stay bounded by the prune threshold —
        and the evicted keys must be gone from the dict, not merely
        expired-on-probe.
        """
        state = RevocationState(dedup_window_ms=1_000.0)
        total = 20_000
        for sequence in range(1, total + 1):
            state.mark_seen((1, sequence), float(sequence))
        # Bounded: the prune threshold (4096) plus the entry that
        # triggered the pass, never the 20k keys seen overall.
        assert len(state._seen) <= 4097
        # Old entries were evicted from the mapping itself.
        assert (1, 1) not in state._seen
        assert not state.is_duplicate((1, 1), float(total))
        # Recent entries inside the window survive the pruning.
        assert (1, total) in state._seen
        assert state.is_duplicate((1, total), float(total))

    def test_applied_from_filters_by_origin(self):
        state = RevocationState()
        state.record_applied((1, 1), 10.0)
        state.record_applied((2, 1), 20.0)
        state.record_applied((1, 2), 30.0)
        assert sorted(state.applied_from(1)) == [10.0, 30.0]
        # First application wins; replays do not move the timestamp.
        state.record_applied((1, 1), 99.0)
        assert sorted(state.applied_from(1)) == [10.0, 30.0]


class TestHandlerDedupAndVerification:
    def test_duplicate_messages_apply_once(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        origin = services[1]
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
        ).signed(origin.builder.signer)

        receiver = services[2]
        assert receiver.on_revocation(message, on_interface=1, now_ms=5.0) is True
        assert receiver.on_revocation(message, on_interface=1, now_ms=6.0) is False
        assert receiver.revocations.received == 2
        assert receiver.revocations.duplicates == 1
        # Applied exactly once, at the first delivery.
        assert receiver.revocations.applied_at[(1, 1)] == 5.0
        # Forwarded only on first receipt: AS 2's other interface leads to
        # AS 3, which deduplicates nothing (fresh) and has nowhere to
        # re-forward, so exactly one onward transmission happened.
        assert receiver.revocations.forwarded == 1

    def test_invalid_signature_rejected_not_forwarded(self, key_store):
        topology = line_topology(3)
        transport, services = build_loopback_services(topology, key_store)
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
            signature=b"forged",
        )
        receiver = services[2]
        assert receiver.on_revocation(message, on_interface=1, now_ms=5.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}
        assert transport.revocations_sent == 0
        # Not marked seen: an authentic copy arriving later must process.
        valid = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
        ).signed(services[1].builder.signer)
        assert receiver.on_revocation(valid, on_interface=1, now_ms=6.0) is True

    def test_verification_skipped_when_disabled(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(
            topology, key_store, verify_signatures=False
        )
        unsigned = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_link=_link(topology, 0),
        )
        assert services[2].on_revocation(unsigned, on_interface=1, now_ms=5.0) is True


class TestPropagationOrderedWithdrawal:
    def test_withdrawal_times_increase_with_hop_distance(self):
        """In a line, ASes withdraw strictly later the farther they sit from
        the failure — the acceptance criterion of the revocation PR."""
        topology = line_topology(6)
        scenario = don_scenario(periods=3, verify_signatures=False)
        failed = _link(topology, 2)  # the 3-4 link
        scenario.at(minutes(15)).fail_link(failed)
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()

        def applied(as_id, origin):
            times = result.service(as_id).revocations.applied_from(origin)
            assert len(times) == 1, f"AS {as_id} saw {len(times)} messages from {origin}"
            return times[0]

        # Left of the failure: origin 3, flooding 3 -> 2 -> 1.
        assert applied(3, 3) < applied(2, 3) < applied(1, 3)
        # Right of the failure: origin 4, flooding 4 -> 5 -> 6.
        assert applied(4, 4) < applied(5, 4) < applied(6, 4)
        # The origins themselves withdraw at the failure instant.
        assert applied(3, 3) == minutes(15)
        assert applied(4, 4) == minutes(15)
        # No copy ever crossed the failed link: the left side never hears
        # origin 4 and vice versa.
        for as_id in (1, 2, 3):
            assert result.service(as_id).revocations.applied_from(4) == []
        for as_id in (4, 5, 6):
            assert result.service(as_id).revocations.applied_from(3) == []

    def test_revocation_crossing_failed_link_is_dropped(self):
        """A revocation whose carrying link is itself unavailable is lost;
        ASes behind the second failure never learn of the first."""
        topology = line_topology(6)
        scenario = don_scenario(periods=3, verify_signatures=False)
        near = _link(topology, 1)  # the 2-3 link
        far = _link(topology, 3)  # the 4-5 link
        # Same timestamp: both links are down before any flood message moves.
        scenario.at(minutes(15)).fail_link(near).at(minutes(15)).fail_link(far)
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()

        # AS 4's revocation of link 4-5 reaches AS 3 but dies on the failed
        # 2-3 link when AS 3 re-forwards it (AS 3 does not know 2-3 is down).
        assert result.collector.revocations_dropped > 0
        assert result.service(3).revocations.applied_from(4) != []
        for as_id in (1, 2):
            assert result.service(as_id).revocations.applied_from(4) == []
        # Symmetrically, AS 5/6 never hear about the 2-3 failure.
        for as_id in (5, 6):
            assert result.service(as_id).revocations.applied_from(3) == []

    def test_withdrawal_is_delayed_until_arrival(self):
        """State crossing the failed link survives at remote ASes exactly
        until the revocation reaches them (not purged at event time)."""
        topology = line_topology(4)
        scenario = don_scenario(periods=6, verify_signatures=False)
        failed = _link(topology, 1)  # the 2-3 link
        fail_at = minutes(25)
        scenario.at(fail_at).fail_link(failed)
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        # AS 4 is one hop from origin 3: per-hop delay is link latency
        # (10 ms) + processing (1 ms), so withdrawal lands at +11 ms.
        assert result.service(4).revocations.applied_from(3) == [fail_at + 11.0]
        # And the databases really are clean afterwards.
        for service in result.services.values():
            for stored in service.ingress.database.all_beacons():
                assert failed not in stored.beacon.links()
            for path in service.path_service.all_paths():
                assert failed not in path.segment.links()


class TestOverheadAccounting:
    def test_single_failure_overhead_pinned(self):
        """Satellite regression: each revocation message counts exactly once.

        In a 5-AS line with the middle-adjacent 2-3 link failing, the flood
        is exactly three transmissions (2->1, 3->4, 4->5): the origins skip
        the revoked link itself and the line has no other edges.
        """
        topology = line_topology(5)
        scenario = don_scenario(periods=4, verify_signatures=False)
        scenario.at(minutes(15)).fail_link(_link(topology, 1))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        collector = result.collector
        assert collector.total_revocations == 3
        assert collector.revocations_dropped == 0
        # Exactly-once: revocation transmissions are disjoint from PCB
        # sends and pull returns in the overall message count.
        assert (
            collector.control_messages_total()
            == collector.total_sent + collector.returned_beacons() + 3
        )
        # They are binned into the period the failure fired in.
        assert collector.revocations_in_period(1) == 3

    def test_revocation_send_does_not_touch_pcb_counters(self):
        from repro.simulation.collector import MetricsCollector

        collector = MetricsCollector()
        collector.record("revocation", 1, 2, 0.0)
        assert collector.total_revocations == 1
        assert collector.total_sent == 0
        assert collector.pcbs_per_interface_per_period() == []
        assert collector.control_messages_total() == 1


class TestRevocationBatchLedger:
    """Driver-side aggregation of simultaneous failures, as the collector records it."""

    def test_aggregation_counters_for_simultaneous_failures(self):
        topology = line_topology(5)
        scenario = don_scenario(periods=6, verify_signatures=False)
        links = topology.link_ids()
        # Two same-tick failures sharing AS 3: its origination batches
        # both elements into one multi-element RevocationMessage.
        scenario.at(minutes(25)).fail_link(links[1]).fail_link(links[2])
        simulation = BeaconingSimulation(topology, scenario)
        simulation.run()
        collector = simulation.collector
        assert collector.revocation_batches >= 2  # each endpoint originates
        assert collector.revocation_multi_batches >= 1  # AS 3 batched two
        assert collector.revocation_batch_max == 2
        assert collector.revocation_batch_elements > collector.revocation_batches

    def test_single_failure_batches_are_single_element(self):
        topology = line_topology(5)
        scenario = don_scenario(periods=6, verify_signatures=False)
        scenario.at(minutes(25)).fail_link(topology.link_ids()[1])
        simulation = BeaconingSimulation(topology, scenario)
        simulation.run()
        collector = simulation.collector
        assert collector.revocation_batches == 2  # both endpoints
        assert collector.revocation_multi_batches == 0
        assert collector.revocation_batch_max == 1
        assert collector.revocation_batch_elements == 2


class TestLegacyParticipation:
    def test_legacy_as_forwards_and_withdraws(self):
        """Legacy SCION ASes join the flood: they withdraw on arrival and
        re-forward, so a mixed deployment still converges."""
        topology = line_topology(4)
        scenario = don_scenario(periods=5, verify_signatures=False)
        scenario.legacy_ases = (3,)
        failed = _link(topology, 0)  # the 1-2 link
        scenario.at(minutes(25)).fail_link(failed)
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        legacy = result.service(3)
        # The legacy AS received origin 2's message and passed it on to AS 4.
        assert legacy.revocations.applied_from(2) != []
        assert legacy.revocations.forwarded == 1
        assert result.service(4).revocations.applied_from(2) != []
        for path in legacy.path_service.all_paths():
            assert failed not in path.segment.links()


class TestNegativeCacheAgeBound:
    """Satellite regression (PR 7): the negative cache expires by message age.

    Each beacon bounce re-applies and re-caches the bounced revocation with
    a fresh stamp, so a pair of caches can keep refreshing each other; the
    stamp alone therefore never expires.  The message's own
    ``created_at_ms`` is the loop breaker — once the revocation itself is
    older than the dedup window, the cache entry dies no matter how
    recently it was stamped, and beacons over the long-recovered element
    flow again.
    """

    def test_fresh_stamp_cannot_outlive_the_message_age(self):
        state = RevocationState(dedup_window_ms=1_000.0)
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=0.0,
            failed_link=((1, 2), (2, 1)),
        )
        link = message.failed_link
        state.cache_revoked_elements(message, now_ms=0.0)
        assert state.revoked_recently([link], [], now_ms=500.0) is message
        # A bouncing peer refreshes the stamp long after the window ...
        state.cache_revoked_elements(message, now_ms=5_000.0)
        # ... but the message itself is ancient: the entry is expired and
        # evicted instead of bouncing the beacon forever.
        assert state.revoked_recently([link], [], now_ms=5_100.0) is None
        assert link not in state.revoked_links

    def test_as_cache_honours_the_same_age_bound(self):
        state = RevocationState(dedup_window_ms=1_000.0)
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=0.0, failed_as=3
        )
        state.cache_revoked_elements(message, now_ms=5_000.0)
        assert state.revoked_recently([], [3], now_ms=5_100.0) is None
        assert 3 not in state.revoked_ases

    def test_stale_stamp_still_expires(self):
        state = RevocationState(dedup_window_ms=1_000.0)
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=4_900.0, failed_as=3
        )
        state.cache_revoked_elements(message, now_ms=5_000.0)
        # Fresh message, fresh stamp: covered.
        assert state.revoked_recently([], [3], now_ms=5_100.0) is message
        # Fresh message, stale stamp: expired.
        state.cache_revoked_elements(message, now_ms=5_000.0)
        assert state.revoked_recently([], [3], now_ms=6_500.0) is None


class TestByzantineRejection:
    """Satellite (PR 7): malformed revocations die at the right check.

    Every rejection path must bump its own counter and must *not* mark the
    key seen — an authentic copy arriving later always still applies.
    """

    def test_forged_signature_rejected_without_seen_marking(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        receiver = services[2]
        link = _link(topology, 0)
        attacker = Signer(as_id=3, key_store=key_store)
        forged = RevocationMessage(
            origin_as=1, sequence=7, created_at_ms=0.0, failed_link=link
        ).signed(attacker)

        assert receiver.on_revocation(forged, on_interface=1, now_ms=1.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}

        authentic = RevocationMessage(
            origin_as=1, sequence=7, created_at_ms=0.0, failed_link=link
        ).signed(Signer(as_id=1, key_store=key_store))
        assert receiver.on_revocation(authentic, on_interface=1, now_ms=2.0) is True
        assert receiver.revocations.applied_at[(1, 7)] == 2.0

    def test_replayed_key_counted_as_duplicate_and_applies_once(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        receiver = services[3]
        message = RevocationMessage(
            origin_as=1, sequence=4, created_at_ms=0.0, failed_link=_link(topology, 0)
        ).signed(Signer(as_id=1, key_store=key_store))

        assert receiver.on_revocation(message, on_interface=1, now_ms=1.0) is True
        before = dict(receiver.revocations.applied_at)
        for replay in range(3):
            assert (
                receiver.on_revocation(message, on_interface=1, now_ms=2.0 + replay)
                is False
            )
        assert receiver.revocations.duplicates == 3
        assert receiver.revocations.applied_at == before

    def test_truncated_hop_path_rejected_without_seen_marking(self, key_store):
        """A scoped copy whose hop path does not end here was tampered with."""
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        receiver = services[2]
        signer = Signer(as_id=1, key_store=key_store)
        scoped = RevocationMessage(
            origin_as=1, sequence=9, created_at_ms=0.0,
            failed_link=_link(topology, 0), max_hops=4,
        ).signed(signer)

        # Hop path truncated to nothing: the attacker tried to reset the
        # propagation budget.  Rejected, not marked seen.
        assert receiver.on_revocation(scoped, on_interface=1, now_ms=1.0) is False
        # Hop path ending at a different AS: same tampering, same fate.
        misdirected = scoped.with_hop(3)
        assert receiver.on_revocation(misdirected, on_interface=1, now_ms=1.5) is False
        assert receiver.revocations.rejected_invalid == 2
        assert receiver.revocations.applied_at == {}

        # The honestly stamped copy still applies afterwards.
        stamped = scoped.with_hop(2)
        assert receiver.on_revocation(stamped, on_interface=1, now_ms=2.0) is True
        assert receiver.revocations.applied_at[(1, 9)] == 2.0

    def test_over_ttl_copy_rejected_with_stale_counter(self, key_store):
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        receiver = services[2]
        message = RevocationMessage(
            origin_as=1, sequence=2, created_at_ms=0.0,
            failed_link=_link(topology, 0), ttl_ms=50.0,
        ).signed(Signer(as_id=1, key_store=key_store))

        assert receiver.on_revocation(message, on_interface=1, now_ms=500.0) is False
        assert receiver.revocations.rejected_stale == 1
        assert receiver.revocations.rejected_invalid == 0
        assert receiver.revocations.applied_at == {}
        # Not marked seen: an in-TTL copy still applies.
        assert receiver.on_revocation(message, on_interface=1, now_ms=10.0) is True

    @given(
        sequence=st.integers(min_value=1, max_value=10**6),
        tamper=st.sampled_from(["signature", "origin", "element"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tampered_messages_never_apply(self, sequence, tamper):
        """Property: whatever the forger changes, the copy dies unseen."""
        key_store = KeyStore()
        topology = line_topology(3)
        _transport, services = build_loopback_services(topology, key_store)
        receiver = services[2]
        link = _link(topology, 0)
        signer = Signer(as_id=1, key_store=key_store)
        authentic = RevocationMessage(
            origin_as=1, sequence=sequence, created_at_ms=0.0, failed_link=link
        ).signed(signer)

        if tamper == "signature":
            # Flip, not overwrite: one signature in 256 already starts with 0x00.
            flipped = bytes([authentic.signature[0] ^ 0xFF])
            forged = replace(authentic, signature=flipped + authentic.signature[1:])
        elif tamper == "origin":
            # Same signature bytes, different claimed origin.
            forged = replace(authentic, origin_as=3)
        else:
            # Same origin/signature, different revoked element.
            forged = replace(
                authentic, failed_link=None, failed_links=(_link(topology, 1),)
            )

        assert receiver.on_revocation(forged, on_interface=1, now_ms=1.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}
        # The authentic copy is never shadowed by the rejected forgery.
        assert receiver.on_revocation(authentic, on_interface=1, now_ms=2.0) is True
        assert authentic.key in receiver.revocations.applied_at

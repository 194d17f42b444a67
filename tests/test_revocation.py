"""Tests of the revocation control-plane traffic (PR 4).

The revocation subsystem replaces the old instantaneous counter flood:
after a failure, the adjacent ASes originate signed, sequence-numbered
:class:`~repro.core.revocation.RevocationMessage` objects that travel
hop-by-hop through the simulated transport.  These tests pin the message
model (signing, dedup, validation), the propagation-ordered withdrawal
semantics, the interaction with :class:`LinkState` (revocations crossing a
failed link are lost), and the exactly-once overhead accounting.
"""

import itertools
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.messages import RevocationMessage
from repro.core.revocation import DEFAULT_DEDUP_WINDOW_MS, RevocationState, WithdrawalLedger
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import ConfigurationError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure
from repro.simulation.scenario import don_scenario
from repro.topology.entities import normalize_link_id
from repro.units import minutes

from tests.conftest import build_services, line_topology, make_beacon, pcb_message
from tests.test_beacon_layout import reachable


def _applied_from(service, origin_as):
    """The withdrawal times ``service`` applied for revocations from ``origin_as``."""
    return [
        at_ms
        for (origin, _sequence), at_ms in service.revocations.applied_at.items()
        if origin == origin_as
    ]


def _link(topology, index):
    return topology.link_ids()[index]


@st.composite
def _dedup_cases(draw):
    """A ``(window, threshold, steps)`` replay of dedup-store calls."""
    window = draw(st.sampled_from((0.0, 5.0, DEFAULT_DEDUP_WINDOW_MS)), label="window")
    gaps = st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.sampled_from((0.5, 1.0, 1.5)).map(lambda share: share * window),
        st.floats(min_value=0.0, max_value=2.0 * window + 2.0, allow_nan=False),
    )
    steps = draw(
        st.lists(
            st.tuples(
                gaps,
                st.tuples(st.integers(1, 3), st.integers(1, 4)),
                st.sampled_from(("deliver", "originate")),
            ),
            max_size=60,
        ),
        label="steps",
    )
    threshold = draw(st.sampled_from((2, 4096)), label="threshold")
    return window, threshold, steps


class _ThresholdDedup:
    """Reference dedup store: expired keys pruned only past ``threshold`` keys.

    What ``RevocationState`` did before it pruned the window on every
    ``mark_seen`` (its threshold was 4,096).
    """

    def __init__(self, window_ms, threshold):
        self.window_ms = window_ms
        self.threshold = threshold
        self.seen = {}
        self.duplicates = 0

    def is_duplicate(self, key, now_ms):
        seen_at = self.seen.get(key)
        if seen_at is None:
            return False
        if now_ms - seen_at > self.window_ms:
            del self.seen[key]
            return False
        return True

    def mark_seen(self, key, now_ms):
        self.seen.setdefault(key, now_ms)
        if len(self.seen) > self.threshold:
            while self.seen:
                oldest = next(iter(self.seen))
                # The window's edge as ``RevocationState`` rounds it: kept
                # while ``now - seen <= window``.
                if now_ms - self.seen[oldest] <= self.window_ms:
                    break
                del self.seen[oldest]


class TestRevocationMessage:
    def test_an_element_is_required(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=1, created_at_ms=0.0)
        both = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(((1, 2), (2, 1)),),
            failed_ases=(3,),
        )
        assert both.failed_links == (((1, 2), (2, 1)),)
        assert both.failed_ases == (3,)

    def test_link_id_is_normalised(self):
        message = RevocationMessage(
            origin_as=2,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(((2, 1), (1, 2)),),
        )
        assert message.failed_links == (normalize_link_id((1, 2), (2, 1)),)

    def test_sequence_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=0, created_at_ms=0.0, failed_ases=(2,))

    def test_sequence_is_a_64_bit_field(self):
        largest = RevocationMessage(
            origin_as=1, sequence=2**63 - 1, created_at_ms=0.0, failed_ases=(2,)
        )
        assert largest.key == (1, 2**63 - 1)
        with pytest.raises(ConfigurationError):
            RevocationMessage(origin_as=1, sequence=2**63, created_at_ms=0.0, failed_ases=(2,))

    def test_sign_verify_and_tamper(self, key_store):
        signer = Signer(as_id=4, key_store=key_store)
        verifier = Verifier(key_store=key_store)
        unsigned = RevocationMessage(
            origin_as=4, sequence=7, created_at_ms=123.0, failed_ases=(9,)
        )
        message = unsigned.signed(signer)
        assert message.signature
        assert message.encode_unsigned() == unsigned.encode_unsigned()
        message.verify(verifier)  # must not raise
        forged = RevocationMessage(
            origin_as=4,
            sequence=8,  # different content, reused signature
            created_at_ms=123.0,
            failed_ases=(9,),
            signature=message.signature,
        )
        from repro.exceptions import SignatureError

        with pytest.raises(SignatureError):
            forged.verify(verifier)

    def test_trace_labels_are_stable(self):
        link_message = RevocationMessage(
            origin_as=2, sequence=3, created_at_ms=0.0, failed_links=(((2, 2), (3, 1)),)
        )
        as_message = RevocationMessage(
            origin_as=5, sequence=1, created_at_ms=0.0, failed_ases=(4,)
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

    def test_window_pruning_bounds_memory_over_long_flood(self):
        """Regression: ``mark_seen`` really evicts the keys that left the window.

        A long flood of distinct revocations advances simulated time far
        past the dedup window; without pruning the seen-set would grow with
        every message forever.  With one key per millisecond and a 1-second
        window, 1001 keys are inside the window after every call, so the
        mapping holds exactly those — and the evicted keys must be gone
        from the dict, not merely expired-on-probe.
        """
        state = RevocationState(dedup_window_ms=1_000.0)
        total = 20_000
        for sequence in range(1, total + 1):
            state.mark_seen((1, sequence), float(sequence))
            assert len(state._seen) == min(sequence, 1001)
        # Bounded by the window, never the 20k keys seen overall.
        assert next(iter(state._seen)) == (1, total - 1000)
        # Old entries were evicted from the mapping itself.
        assert (1, 1) not in state._seen
        assert not state.is_duplicate((1, 1), float(total))
        # Recent entries inside the window survive the pruning.
        assert (1, total) in state._seen
        assert state.is_duplicate((1, total), float(total))

    @settings(max_examples=80, deadline=None)
    @given(case=_dedup_cases())
    @example(
        # At the window's edge ``now - seen <= window`` and
        # ``seen >= now - window`` disagree: 3,600,001.711 - 1.711 is
        # 3,600,000.0, but 3,600,001.711 - 3,600,000 is 1.7110000001.
        case=(
            3_600_000.0,
            2,
            [
                (1.711, (1, 1), "deliver"),
                (3_600_000.0, (1, 2), "deliver"),
                (0.0, (1, 3), "deliver"),
            ],
        )
    )
    def test_window_pruning_answers_like_threshold_pruning(self, case):
        """Property: pruning the window on every ``mark_seen`` gives the same
        ``is_duplicate`` answers and duplicate count as pruning only past a
        key-count threshold, and keeps exactly the keys first seen inside
        the window.

        The calls are the control service's: a delivery asks
        ``is_duplicate`` and marks what was not; an origination marks its
        own fresh sequence number (a stale key is never re-marked unasked).
        """
        window, threshold, steps = case
        state = RevocationState(dedup_window_ms=window)
        reference = _ThresholdDedup(window, threshold)
        now_ms = 0.0
        own_sequence = itertools.count(1)
        for gap, key, kind in steps:
            now_ms += gap
            if kind == "originate":
                key = (0, next(own_sequence))
            else:
                duplicate = state.is_duplicate(key, now_ms)
                assert duplicate == reference.is_duplicate(key, now_ms)
                if duplicate:
                    state.duplicates += 1
                    reference.duplicates += 1
                    continue
            state.mark_seen(key, now_ms)
            reference.mark_seen(key, now_ms)
            assert state._seen == {
                seen: at_ms
                for seen, at_ms in reference.seen.items()
                if now_ms - at_ms <= window
            }
        assert state.duplicates == reference.duplicates

    def test_record_applied_keeps_the_first_time(self):
        state = RevocationState()
        state.record_applied((1, 1), 10.0)
        state.record_applied((2, 1), 20.0)
        assert state.applied_at == {(1, 1): 10.0, (2, 1): 20.0}
        # First application wins; replays do not move the timestamp.
        state.record_applied((1, 1), 99.0)
        assert state.applied_at == {(1, 1): 10.0, (2, 1): 20.0}


#: Sequences a ledger sees: a flood's small ones (repeated and reordered),
#: ``RevocationForgery``'s from 1,000,000, and the 64-bit field's far end.
_SEQUENCES = st.one_of(
    st.integers(1, 12),
    st.integers(1_000_000, 1_000_006),
    st.integers(2**62 - 3, 2**62 + 3),
    st.sampled_from((2**63 - 1,)),
)


def _footprint(ledger):
    """Bytes of everything ``ledger`` holds."""
    return sum(sys.getsizeof(obj) for obj in reachable([ledger]))


class TestWithdrawalLedger:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), _SEQUENCES, st.floats(0.0, 1e9)),
            max_size=40,
        ),
        st.lists(st.tuples(st.integers(0, 5), _SEQUENCES), max_size=10),
    )
    @example([(1, sequence, float(sequence)) for sequence in range(1, 9)], [(1, 9), (1, 0)])
    @example([(1, 5, 5.0), (1, 2, 2.0), (1, 9, 9.0), (1, 2, 7.0), (1, 5, 1.0)], [(1, 3)])
    @example([(7, 1_000_000, 1.0), (7, 2**62, 2.0), (7, 1, 3.0)], [(7, 2**62 + 1)])
    def test_it_reads_as_a_setdefault_dict(self, steps, probes):
        """In order, out of order, repeated or forged: the ledger answers every
        read as a ``dict`` filled by ``setdefault`` does."""
        state = RevocationState()
        reference = {}
        for origin, sequence, at_ms in steps:
            state.record_applied((origin, sequence), at_ms)
            reference.setdefault((origin, sequence), at_ms)
        ledger = state.applied_at
        assert len(ledger) == len(reference)
        assert set(ledger) == set(reference) and len(list(ledger)) == len(reference)
        assert ledger == reference and reference == ledger
        assert dict(ledger) == reference
        for key, at_ms in reference.items():
            assert ledger[key] == at_ms and key in ledger
        for key in probes:
            if key not in reference:
                assert key not in ledger and ledger.get(key) is None
                with pytest.raises(KeyError):
                    ledger[key]

    def test_a_flood_leaves_no_tuple_or_float_in_the_ledger(self, key_store):
        """An entry is one integer and one double in a flat array: no key
        tuple, no float object per applied revocation."""
        topology = line_topology(5)
        scheduler, _transport, services = build_services(topology, key_store)
        # AS 2 revokes its link to AS 1 and AS 4 its link to AS 5, three
        # times each: ASes 2-4 hear both floods.
        for now_ms in (0.0, 1.0, 2.0):
            for origin_as, index in ((2, 0), (4, 3)):
                services[origin_as].originate_revocation(
                    failed_links=(_link(topology, index),), now_ms=now_ms
                )
            scheduler.run_all()
        for as_id, service in services.items():
            ledger = service.revocations.applied_at
            assert len(ledger) == (6 if 2 <= as_id <= 4 else 3), as_id
            held = reachable([ledger])
            assert not [obj for obj in held if isinstance(obj, (tuple, float))], as_id

    def test_a_forged_huge_sequence_costs_what_sequence_one_costs(self):
        """The arrays are sparse in the sequences: a forged 2**62 allocates
        nothing per skipped sequence."""
        small, huge = WithdrawalLedger(), WithdrawalLedger()
        small.record((7, 1), 0.0)
        huge.record((7, 2**62), 0.0)
        assert _footprint(huge) == _footprint(small) < 1024
        small.record((7, 2), 1.0)
        huge.record((7, 2**62 + 1), 1.0)
        assert _footprint(huge) == _footprint(small)


class TestHandlerDedupAndVerification:
    def test_duplicate_messages_apply_once(self, key_store):
        topology = line_topology(3)
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True
        )
        origin = services[1]
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(_link(topology, 0),),
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
        _scheduler, transport, services = build_services(
            topology, key_store, verify_signatures=True
        )
        message = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(_link(topology, 0),),
            signature=b"forged",
        )
        receiver = services[2]
        assert receiver.on_revocation(message, on_interface=1, now_ms=5.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}
        assert transport.collector.sent["revocation"] == 0
        # Not marked seen: an authentic copy arriving later must process.
        valid = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(_link(topology, 0),),
        ).signed(services[1].builder.signer)
        assert receiver.on_revocation(valid, on_interface=1, now_ms=6.0) is True

    def test_verification_skipped_when_disabled(self, key_store):
        topology = line_topology(3)
        _scheduler, _transport, services = build_services(topology, key_store)
        unsigned = RevocationMessage(
            origin_as=1,
            sequence=1,
            created_at_ms=0.0,
            failed_links=(_link(topology, 0),),
        )
        assert services[2].on_revocation(unsigned, on_interface=1, now_ms=5.0) is True


class TestPropagationOrderedWithdrawal:
    def test_withdrawal_times_increase_with_hop_distance(self):
        """In a line, ASes withdraw strictly later the farther they sit from
        the failure — the acceptance criterion of the revocation PR."""
        topology = line_topology(6)
        scenario = don_scenario(periods=3, verify_signatures=False)
        failed = _link(topology, 2)  # the 3-4 link
        scenario.timeline.add(minutes(15), LinkFailure(failed))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()

        def applied(as_id, origin):
            times = _applied_from(result.service(as_id), origin)
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
            assert _applied_from(result.service(as_id), 4) == []
        for as_id in (4, 5, 6):
            assert _applied_from(result.service(as_id), 3) == []

    def test_revocation_crossing_failed_link_is_dropped(self):
        """A revocation whose carrying link is itself unavailable is lost;
        ASes behind the second failure never learn of the first."""
        topology = line_topology(6)
        scenario = don_scenario(periods=3, verify_signatures=False)
        near = _link(topology, 1)  # the 2-3 link
        far = _link(topology, 3)  # the 4-5 link
        # Same timestamp: both links are down before any flood message moves.
        scenario.timeline.add(minutes(15), LinkFailure(near)).add(minutes(15), LinkFailure(far))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()

        # AS 4's revocation of link 4-5 reaches AS 3 but dies on the failed
        # 2-3 link when AS 3 re-forwards it (AS 3 does not know 2-3 is down).
        assert result.collector.revocations_dropped > 0
        assert _applied_from(result.service(3), 4) != []
        for as_id in (1, 2):
            assert _applied_from(result.service(as_id), 4) == []
        # Symmetrically, AS 5/6 never hear about the 2-3 failure.
        for as_id in (5, 6):
            assert _applied_from(result.service(as_id), 3) == []

    def test_withdrawal_is_delayed_until_arrival(self):
        """State crossing the failed link survives at remote ASes exactly
        until the revocation reaches them (not purged at event time)."""
        topology = line_topology(4)
        scenario = don_scenario(periods=6, verify_signatures=False)
        failed = _link(topology, 1)  # the 2-3 link
        fail_at = minutes(25)
        scenario.timeline.add(fail_at, LinkFailure(failed))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        # AS 4 is one hop from origin 3: per-hop delay is link latency
        # (10 ms) + processing (1 ms), so withdrawal lands at +11 ms.
        assert _applied_from(result.service(4), 3) == [fail_at + 11.0]
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
        scenario.timeline.add(minutes(15), LinkFailure(_link(topology, 1)))
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
        scenario.timeline.add(minutes(25), LinkFailure(links[1]))
        scenario.timeline.add(minutes(25), LinkFailure(links[2]))
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
        scenario.timeline.add(minutes(25), LinkFailure(topology.link_ids()[1]))
        simulation = BeaconingSimulation(topology, scenario)
        simulation.run()
        collector = simulation.collector
        assert collector.revocation_batches == 2  # both endpoints
        assert collector.revocation_multi_batches == 0
        assert collector.revocation_batch_max == 1
        assert collector.revocation_batch_elements == 2


class TestRevocationStorm:
    def test_storm_aggregates_same_tick_failures(self):
        """Simultaneous failures batch into one message per origin."""
        topology = line_topology(4)
        scenario = don_scenario(periods=4, verify_signatures=False)
        link_a, link_b = topology.link_ids()[0], topology.link_ids()[1]
        scenario.timeline.add(minutes(15), LinkFailure(link_a))
        scenario.timeline.add(minutes(15), LinkFailure(link_b))
        simulation = BeaconingSimulation(topology, scenario)

        captured = []
        original = simulation.services[2].originate_revocation

        def spy(**kwargs):
            captured.append(kwargs)
            return original(**kwargs)

        simulation.services[2].originate_revocation = spy
        result = simulation.run()

        # AS 2 borders both failed links yet originated a single batched
        # revocation naming them both.
        assert len(captured) == 1
        assert set(captured[0]["failed_links"]) == {link_a, link_b}
        assert result.services[2].revocations.originated == 1
        assert result.services[1].revocations.originated == 1
        assert result.services[3].revocations.originated == 1


class TestLegacyParticipation:
    def test_legacy_as_forwards_and_withdraws(self):
        """Legacy SCION ASes join the flood: they withdraw on arrival and
        re-forward, so a mixed deployment still converges."""
        topology = line_topology(4)
        scenario = don_scenario(periods=5, verify_signatures=False)
        scenario.legacy_ases = (3,)
        failed = _link(topology, 0)  # the 1-2 link
        scenario.timeline.add(minutes(25), LinkFailure(failed))
        simulation = BeaconingSimulation(topology, scenario)
        result = simulation.run()
        legacy = result.service(3)
        # The legacy AS received origin 2's message and passed it on to AS 4.
        assert _applied_from(legacy, 2) != []
        assert legacy.revocations.forwarded == 1
        assert _applied_from(result.service(4), 2) != []
        for path in legacy.path_service.all_paths():
            assert failed not in path.segment.links()


class TestNegativeCache:
    def test_beacon_over_revoked_link_bounces_revocation(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        revoked = topology.link_ids()[0]  # the 1-2 link
        # AS 2 revokes its 1-2 link; the flood reaches AS 3 and populates
        # its negative cache.
        services[2].originate_revocation(now_ms=0.0, failed_links=(revoked,))
        scheduler.run_until(20.0)
        assert revoked in services[3].revocations.revoked_links
        duplicates_before = services[2].revocations.duplicates

        # A stale beacon crossing the revoked link arrives at AS 3.
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))
        scheduler.run_until(60.0)
        # AS 3 refused it and bounced the cached revocation to the sender,
        # which deduplicates it (it already processed that revocation).
        assert services[3].revocations.reoriginated == 1
        assert len(services[3].ingress.database) == 0
        assert services[2].revocations.duplicates > duplicates_before

    def test_cache_cleared_on_recovery_admits_beacons(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        revoked = topology.link_ids()[0]
        services[2].originate_revocation(now_ms=0.0, failed_links=(revoked,))
        scheduler.run_until(20.0)
        assert revoked in services[3].revocations.revoked_links

        # The element recovered (the driver clears caches network-wide).
        services[3].revocations.clear_revoked_link(revoked)
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))
        scheduler.run_until(60.0)
        assert services[3].revocations.reoriginated == 0
        assert len(services[3].ingress.database) == 1


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
            failed_links=(((1, 2), (2, 1)),),
        )
        (link,) = message.failed_links
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
            origin_as=1, sequence=1, created_at_ms=0.0, failed_ases=(3,)
        )
        state.cache_revoked_elements(message, now_ms=5_000.0)
        assert state.revoked_recently([], [3], now_ms=5_100.0) is None
        assert 3 not in state.revoked_ases

    def test_stale_stamp_still_expires(self):
        state = RevocationState(dedup_window_ms=1_000.0)
        message = RevocationMessage(
            origin_as=1, sequence=1, created_at_ms=4_900.0, failed_ases=(3,)
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
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True
        )
        receiver = services[2]
        link = _link(topology, 0)
        attacker = Signer(as_id=3, key_store=key_store)
        forged = RevocationMessage(
            origin_as=1, sequence=7, created_at_ms=0.0, failed_links=(link,)
        ).signed(attacker)

        assert receiver.on_revocation(forged, on_interface=1, now_ms=1.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}

        authentic = RevocationMessage(
            origin_as=1, sequence=7, created_at_ms=0.0, failed_links=(link,)
        ).signed(Signer(as_id=1, key_store=key_store))
        assert receiver.on_revocation(authentic, on_interface=1, now_ms=2.0) is True
        assert receiver.revocations.applied_at[(1, 7)] == 2.0

    def test_replayed_key_counted_as_duplicate_and_applies_once(self, key_store):
        topology = line_topology(3)
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True
        )
        receiver = services[3]
        message = RevocationMessage(
            origin_as=1, sequence=4, created_at_ms=0.0, failed_links=(_link(topology, 0),)
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

    @given(
        sequence=st.integers(min_value=1, max_value=10**6),
        tamper=st.sampled_from(["signature", "origin", "element"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_tampered_messages_never_apply(self, sequence, tamper):
        """Property: whatever the forger changes, the copy dies unseen."""
        key_store = KeyStore()
        topology = line_topology(3)
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True
        )
        receiver = services[2]
        link = _link(topology, 0)
        signer = Signer(as_id=1, key_store=key_store)
        authentic = RevocationMessage(
            origin_as=1, sequence=sequence, created_at_ms=0.0, failed_links=(link,)
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
                authentic, failed_links=(_link(topology, 1),)
            )

        assert receiver.on_revocation(forged, on_interface=1, now_ms=1.0) is False
        assert receiver.revocations.rejected_invalid == 1
        assert receiver.revocations.applied_at == {}
        # The authentic copy is never shadowed by the rejected forgery.
        assert receiver.on_revocation(authentic, on_interface=1, now_ms=2.0) is True
        assert authentic.key in receiver.revocations.applied_at

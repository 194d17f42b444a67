"""Tests of where a fabric delivery ends up: delivered or dropped.

:class:`~repro.simulation.network.SimulatedTransport` has one delivery
path.  A message is counted when it is sent, checked against the live
:class:`~repro.simulation.failures.LinkState` at send time and again at
delivery time, rolled against a degraded link's loss rate, and appended
to the receiver's inbox.  These tests pin each outcome and the ledger it
lands in, the on-demand algorithm fetch and the totals the convergence
probe reads.
"""

import math
import pickle

import pytest

from repro.algorithms.registry import encode_builtin_payload
from repro.core.control_service import ControlServiceConfig, IrecControlService
from repro.core.local_view import LocalTopologyView
from repro.core.databases import RegisteredPath
from repro.core.messages import PathRegistrationMessage, RevocationMessage
from repro.exceptions import AlgorithmError, ConfigurationError, UnknownASError
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import LinkState
from repro.simulation.network import SimulatedTransport
from repro.simulation.scenario import ScenarioConfig, don_scenario, one_shortest_path_spec

from tests.conftest import (
    build_services,
    line_topology,
    make_beacon,
    pcb_message,
    run_all,
    slice_batches,
)

# line_topology(n): AS i's interface 2 faces AS i + 1's interface 1, every
# link has 10 ms latency, and the fabric adds 1 ms processing per hop.
HOP_MS = 11.0


def _link(topology, index):
    return topology.link_ids()[index]


def _record_deliveries(service):
    """Wrap ``service``'s batch handler; return the log of (kind, interface, now)."""
    handle = service.on_message_batch
    log = []

    def recording(entries, now_ms):
        log.extend((message.kind, interface, now_ms) for message, interface in entries)
        return handle(entries, now_ms)

    service.on_message_batch = recording
    return log


def _beacon(key_store, index=0):
    """A one-hop beacon originated by AS 1 toward AS 2; ``index`` varies its digest."""
    return make_beacon(key_store, [(1, None, 2)], link_latencies=[10.0 + index])


def _revocation(topology, sequence=1):
    return RevocationMessage(
        origin_as=2,
        sequence=sequence,
        created_at_ms=0.0,
        failed_links=(_link(topology, 0),),
    )


def _service(topology, key_store, transport, as_id):
    service = IrecControlService(
        view=LocalTopologyView.from_topology(topology, as_id),
        key_store=key_store,
        transport=transport,
        config=ControlServiceConfig(verify_signatures=False),
    )
    transport.register(service)
    return service


class TestLocalDelivery:
    """Deliveries land in the receiver's inbox and drain at their arrival tick."""

    def test_arrivals_from_two_neighbours_in_one_tick_share_one_drain(self, key_store):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        batches = []
        handle = services[2].on_message_batch

        def recording(entries, now_ms):
            batches.append(sorted(interface for _message, interface in entries))
            return handle(entries, now_ms)

        services[2].on_message_batch = recording
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        # AS 3's interface 1 faces AS 2's interface 2: same arrival tick.
        transport.send_message(3, 1, pcb_message(3, make_beacon(key_store, [(3, None, 1)])))
        run_all(scheduler)
        assert batches == [[1, 2]]


class TestReceiversGetTheSentObject:
    """No message is copied in flight: the inbox holds what the sender sent.

    A relay forwards the object it received, so every AS a revocation
    flood or a down-segment announcement reaches holds the one object its
    origin sent, whatever the drain's batch size.  No receiver may rely on
    that sharing: ``tests/test_message_only_sharing.py`` reproduces every
    pinned digest with each delivery a deserialized copy.
    """

    @staticmethod
    def _log_received(services):
        """Wrap every service's batch handler; return {AS: [message, ...]}."""
        received = {}
        for as_id, service in services.items():
            handle = service.on_message_batch

            def recording(entries, now_ms, as_id=as_id, handle=handle):
                received.setdefault(as_id, []).extend(message for message, _ in entries)
                return handle(entries, now_ms)

            service.on_message_batch = recording
        return received

    @staticmethod
    def _send(kind, topology, key_store, transport):
        """AS 1 sends one message of ``kind`` toward AS 2; return it and its receivers."""
        if kind == "pcb":
            message = pcb_message(1, _beacon(key_store))
            receivers = (2,)
        elif kind == "revocation":
            # Names the 1-2 link, so AS 2 forwards it on to AS 3.
            message = RevocationMessage(
                origin_as=1, sequence=1, created_at_ms=0.0, failed_links=(_link(topology, 0),)
            )
            receivers = (2, 3)
        else:
            # A segment originated by AS 3, relayed by AS 2, terminated at AS 1.
            segment = make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 2, None)])
            message = PathRegistrationMessage(
                origin_as=1,
                sequence=1,
                created_at_ms=0.0,
                path=RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0),
            )
            receivers = (2, 3)
        transport.send_message(1, 2, message)
        return message, receivers

    @pytest.mark.parametrize("batch_size", [None, 1])
    @pytest.mark.parametrize("kind", ["pcb", "revocation", "path_registration"])
    def test_every_receiver_holds_the_sent_object(self, key_store, kind, batch_size):
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        received = self._log_received(services)
        if batch_size is not None:
            slice_batches(services, batch_size)
        message, receivers = self._send(kind, topology, key_store, transport)
        run_all(scheduler)
        assert sorted(received) == list(receivers)
        for as_id in receivers:
            (delivered,) = received[as_id]
            assert delivered is message
        assert transport.collector.sent[kind] == len(receivers)

    @staticmethod
    def _content(message):
        """What a message says, beacons and segments by digest."""
        if message.kind == "pcb":
            payload = message.beacon.digest()
        elif message.kind == "revocation":
            payload = (message.encode_unsigned(), message.signature)
        else:
            path = message.path
            payload = (path.segment.digest(), path.criteria_tags, path.registered_at_ms)
        return type(message), message.key, message.created_at_ms, payload

    @pytest.mark.parametrize("kind", ["pcb", "revocation", "path_registration"])
    def test_a_deserialized_copy_arrives_unaltered(self, key_store, kind):
        """The copying transport of the message-only sharing check hands
        every receiver, relays included, a distinct object that says what
        the sent one says."""
        topology = line_topology(3)
        scheduler, transport, services = build_services(topology, key_store)
        received = self._log_received(services)
        send = transport.send_message
        transport.send_message = lambda sender_as, egress_interface, message: send(
            sender_as, egress_interface, pickle.loads(pickle.dumps(message))
        )
        message, receivers = self._send(kind, topology, key_store, transport)
        run_all(scheduler)
        assert sorted(received) == list(receivers)
        delivered = []
        for as_id in receivers:
            (copy,) = received[as_id]
            delivered.append(copy)
        assert len({id(copy) for copy in [message, *delivered]}) == 1 + len(receivers)
        for copy in delivered:
            assert self._content(copy) == self._content(message)
        assert transport.collector.sent[kind] == len(receivers)


class TestDeliveryChecks:
    """Loud loss: an unavailable link at send or at delivery time."""

    def _fabric(self, key_store, num_ases=3):
        topology = line_topology(num_ases)
        link_state = LinkState()
        scheduler, transport, services = build_services(
            topology, key_store, link_state=link_state
        )
        return topology, link_state, scheduler, transport, services

    def test_an_unknown_receiver_raises_before_counting(self, key_store):
        transport = SimulatedTransport(topology=line_topology(2), scheduler=EventScheduler())
        transport.register(_service(line_topology(2), key_store, transport, 1))
        with pytest.raises(UnknownASError):
            transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        assert transport.collector.control_messages_total() == 0

    def test_send_time_failure_drops_without_scheduling(self, key_store):
        topology, link_state, scheduler, transport, services = self._fabric(key_store)
        link_state.fail_link(_link(topology, 0))
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        assert run_all(scheduler) == 0
        assert transport.collector.sent["pcb"] == 1
        assert transport.collector.dropped["pcb"] == 1
        assert len(services[2].ingress.database) == 0

    def test_link_failing_in_flight_loses_the_message(self, key_store):
        topology, link_state, scheduler, transport, services = self._fabric(key_store)
        log = _record_deliveries(services[2])
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        scheduler.run_until(5.0)
        link_state.fail_link(_link(topology, 0))
        run_all(scheduler)
        assert log == []
        assert transport.collector.dropped["pcb"] == 1

    def test_outage_healed_before_arrival_is_not_seen(self, key_store):
        """Availability is checked at send and at delivery time only."""
        topology, link_state, scheduler, transport, services = self._fabric(key_store)
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        scheduler.run_until(3.0)
        link_state.fail_link(_link(topology, 0))
        scheduler.run_until(6.0)
        link_state.restore_link(_link(topology, 0))
        run_all(scheduler)
        assert len(services[2].ingress.database) == 1
        assert transport.collector.dropped["pcb"] == 0

    def test_receiver_going_offline_in_flight_loses_the_message(self, key_store):
        _topology, link_state, scheduler, transport, services = self._fabric(key_store)
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        scheduler.run_until(5.0)
        link_state.set_as_offline(2)
        run_all(scheduler)
        assert len(services[2].ingress.database) == 0
        assert transport.collector.dropped["pcb"] == 1

    def test_pcb_whose_advertised_link_failed_is_dropped_on_delivery(self, key_store):
        topology, link_state, scheduler, transport, services = self._fabric(key_store)
        beacon = make_beacon(key_store, [(1, None, 2), (2, 1, 2)])
        transport.send_message(2, 2, pcb_message(2, beacon))
        link_state.fail_link(_link(topology, 0))  # the 1-2 link, not the one crossed
        run_all(scheduler)
        assert len(services[3].ingress.database) == 0
        assert transport.collector.dropped["pcb"] == 1

    def test_revocation_of_a_failed_link_still_crosses_healthy_links(self, key_store):
        """Only PCBs require their advertised path: the news of a failure
        must travel while the failure lasts."""
        topology, link_state, scheduler, transport, services = self._fabric(key_store)
        link_state.fail_link(_link(topology, 0))
        log = _record_deliveries(services[3])
        transport.send_message(2, 2, _revocation(topology))
        run_all(scheduler)
        assert log == [("revocation", 1, HOP_MS)]
        assert services[3].revocations.received == 1
        assert transport.collector.dropped["revocation"] == 0

    def test_drops_are_counted_under_their_own_kind(self, key_store):
        topology, link_state, scheduler, transport, _services = self._fabric(key_store)
        link_state.fail_link(_link(topology, 1))  # the 2-3 link
        transport.send_message(2, 2, _revocation(topology))
        transport.send_message(2, 2, _revocation(topology, sequence=2))
        run_all(scheduler)
        assert transport.collector.revocations_dropped == 2
        assert transport.collector.total_dropped == 0
        assert transport.collector.gray_dropped_total() == 0


class TestSilentLoss:
    """Gray failures and flap loss drop messages without a trace in ``dropped``."""

    @staticmethod
    def _send_over_degraded_link(key_store, count, loss_seed=0, rate=0.5, healthy_first=0):
        """Send ``count`` distinct beacons over the 1-2 link at ``rate`` loss.

        ``healthy_first`` beacons cross the link before it degrades.
        Returns the indices of the degraded-phase beacons that were
        delivered, and the transport.
        """
        topology = line_topology(2)
        link_state = LinkState()
        scheduler, transport, services = build_services(
            topology, key_store, link_state=link_state, loss_seed=loss_seed
        )
        for index in range(healthy_first):
            transport.send_message(1, 2, pcb_message(1, _beacon(key_store, 100 + index)))
        run_all(scheduler)
        link_state.set_gray(_link(topology, 0), rate)
        sent = {}
        for index in range(count):
            beacon = _beacon(key_store, index)
            sent[beacon.digest()] = index
            transport.send_message(1, 2, pcb_message(1, beacon))
        run_all(scheduler)
        delivered = sorted(
            sent[stored.beacon.digest()]
            for stored in services[2].ingress.database.all_beacons()
            if stored.beacon.digest() in sent
        )
        return delivered, transport

    def test_gray_link_drops_silently(self, key_store):
        delivered, transport = self._send_over_degraded_link(key_store, 3, rate=1.0)
        assert delivered == []
        assert transport.collector.gray_dropped["pcb"] == 3
        assert transport.collector.total_dropped == 0
        assert transport.collector.total_revocations == 0

    def test_sent_equals_delivered_plus_silently_lost(self, key_store):
        delivered, transport = self._send_over_degraded_link(key_store, 40)
        assert 0 < len(delivered) < 40
        assert len(delivered) + transport.collector.gray_dropped["pcb"] == 40
        assert transport.collector.total_sent == 40

    def test_loss_is_reproducible_under_one_loss_seed(self, key_store):
        first, _ = self._send_over_degraded_link(key_store, 40, loss_seed=3)
        second, _ = self._send_over_degraded_link(key_store, 40, loss_seed=3)
        assert first == second

    def test_loss_seed_picks_which_messages_are_lost(self, key_store):
        outcomes = {
            tuple(self._send_over_degraded_link(key_store, 40, loss_seed=seed)[0])
            for seed in range(3)
        }
        assert len(outcomes) > 1

    def test_healthy_deliveries_never_roll_the_loss_die(self, key_store):
        """Traffic before the degradation leaves the loss pattern unchanged."""
        cold, _ = self._send_over_degraded_link(key_store, 40, loss_seed=5)
        warm, _ = self._send_over_degraded_link(key_store, 40, loss_seed=5, healthy_first=7)
        assert warm == cold

    def test_directional_loss_spares_the_other_direction(self, key_store):
        topology = line_topology(2)
        link_state = LinkState()
        scheduler, transport, services = build_services(
            topology, key_store, link_state=link_state
        )
        link_state.set_link_loss(_link(topology, 0), toward_as=2, rate=1.0)
        toward_1 = _record_deliveries(services[1])
        transport.send_message(1, 2, pcb_message(1, _beacon(key_store)))
        transport.send_message(2, 1, pcb_message(2, make_beacon(key_store, [(2, None, 1)])))
        run_all(scheduler)
        assert len(services[2].ingress.database) == 0
        assert toward_1 == [("pcb", 2, HOP_MS)]
        assert transport.collector.gray_dropped["pcb"] == 1


class TestAlgorithmFetch:
    def test_fetch_returns_the_published_payload_and_counts_it(self, key_store):
        _scheduler, transport, services = build_services(line_topology(2), key_store)
        payload = encode_builtin_payload("1sp")
        services[1].publish_algorithm("algo", payload)
        assert transport.fetch_algorithm(2, 1, "algo") == payload
        assert transport.fetch_algorithm(2, 1, "algo") == payload
        assert transport.collector.algorithm_fetches() == 2
        # A fetch is not a control message on a link.
        assert transport.collector.control_messages_total() == 0

    def test_fetch_from_an_offline_origin_raises_and_counts_nothing(self, key_store):
        link_state = LinkState()
        _scheduler, transport, services = build_services(
            line_topology(2), key_store, link_state=link_state
        )
        services[1].publish_algorithm("algo", encode_builtin_payload("1sp"))
        link_state.set_as_offline(1)
        with pytest.raises(AlgorithmError, match="offline"):
            transport.fetch_algorithm(2, 1, "algo")
        assert transport.collector.algorithm_fetches() == 0
        link_state.set_as_online(1)
        transport.fetch_algorithm(2, 1, "algo")
        assert transport.collector.algorithm_fetches() == 1


class TestProbeTotals:
    """``probe`` returns ``(counts, registered_at, messages_total)``."""

    @staticmethod
    def _simulation():
        return BeaconingSimulation(
            line_topology(3), don_scenario(periods=2, verify_signatures=False)
        )

    def test_probe_reads_the_collectors_message_total(self):
        simulation = self._simulation()
        assert simulation.probe([(3, 1)]) == ({(3, 1): 0}, None, 0)
        simulation.run()
        counts, times, messages_total = simulation.probe([(3, 1)])
        assert counts[(3, 1)] > 0
        assert times is None
        assert messages_total == simulation.collector.control_messages_total() > 0

    def test_probe_with_times_gives_one_time_per_usable_path(self):
        simulation = self._simulation()
        simulation.run()
        pairs = [(3, 1), (2, 1)]
        counts, times, _total = simulation.probe(pairs, with_times=True)
        assert set(times) == set(pairs)
        for pair in pairs:
            assert len(times[pair]) == counts[pair]
            assert all(0.0 <= t <= simulation.scheduler.now_ms for t in times[pair])


class TestScenarioSettingRanges:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("periods", 0),
            ("periods", -1),
            ("propagation_interval_ms", 0.0),
            ("propagation_interval_ms", -1.0),
            ("propagation_interval_ms", -math.inf),
            ("registration_limit", 0),
        ],
    )
    def test_scenario_rejects_out_of_range_settings(self, name, value):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(algorithms=(one_shortest_path_spec(),), **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("periods", 1), ("registration_limit", 1)],
    )
    def test_scenario_accepts_the_smallest_legal_settings(self, name, value):
        scenario = ScenarioConfig(algorithms=(one_shortest_path_spec(),), **{name: value})
        assert getattr(scenario, name) == value

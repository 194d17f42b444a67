"""The simulated control-plane transport: a routed message fabric.

Implements :class:`repro.core.transport.ControlPlaneTransport` on top of
the discrete-event scheduler as **one** generic delivery path for every
typed control message (:mod:`repro.core.messages`): PCBs, revocations and
down-segment announcements sent over a link all flow through
:meth:`SimulatedTransport.send_message`, which applies per-hop latency
(link propagation + processing overhead), :class:`LinkState` loss at both
send and delivery time, and per-kind metrics uniformly — where the
pre-fabric transport kept one hand-rolled copy of that logic per message
type.

Silent degradation (PR 7): on top of the loud availability checks, a
delivery rolls a seeded die against the link's gray-failure and
per-direction flap loss rates (:meth:`LinkState.drop_probability`).  A
losing roll drops the message *silently* — the control plane never learns
about it (no revocation originates), only the ``gray_dropped`` metric and
end-host-observed quality reveal the fault.  The ``loss_seed`` field pins
the dice, keeping degraded runs deterministic.

Delivered messages are not handed to the receiving control service one by
one: they land in a **per-AS inbox** that is drained in batches at the
scheduler tick they arrived on.  Every entry of a drained batch therefore
shares its arrival timestamp, so database state and withdrawal
(``applied_at``) timestamps are bit-identical to per-message delivery
— pinned by the dispatch-equivalence property tests —
while the batch lets the control service amortize work across messages
(e.g. one admission per duplicate beacon group, see
:meth:`repro.core.control_service.IrecControlService.on_message_batch`).

Returned pull beacons travel back to their origin with the accumulated
latency of the path they describe and are handed straight to the origin's
``receive_returned_beacon`` (no message, no inbox); algorithm fetches are
a synchronous call on the origin's control service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from repro.core.beacon import Beacon
from repro.core.control_service import IrecControlService
from repro.core.messages import ControlMessage, PCBMessage
from repro.exceptions import AlgorithmError, UnknownASError
from repro.simulation.collector import MetricsCollector
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import LinkState
from repro.topology.graph import Topology

#: Fixed per-hop control-plane processing delay, added to the link
#: propagation delay of every message and of every returned pull beacon.
PROCESSING_DELAY_MS = 1.0


class _Inbox:
    """One AS's pending delivered-but-undrained messages.

    A plain slotted class on the delivery fast path: every message pays
    one append here, and floods push millions of them.
    """

    __slots__ = ("entries", "drain_scheduled")

    def __init__(self) -> None:
        #: (message, arrival_interface) in arrival order.
        self.entries: List[Tuple[ControlMessage, int]] = []
        #: Whether a drain event is already queued for this inbox.
        self.drain_scheduled = False


@dataclass
class SimulatedTransport:
    """Scheduler-driven message fabric between control services.

    Attributes:
        topology: The global topology (used to resolve links and delays).
        scheduler: The discrete-event scheduler driving delivery.
        collector: Transmission counters for the overhead evaluation.
        link_state: Live link/AS availability (dynamic scenarios).  Checked
            both when a message is sent and when it would be delivered, so
            a link failing mid-flight loses the messages currently on it.
            The default empty state keeps every link available (static
            scenarios).
    """

    topology: Topology
    scheduler: EventScheduler
    collector: MetricsCollector = field(default_factory=MetricsCollector)
    link_state: LinkState = field(default_factory=LinkState)
    loss_seed: int = 0
    services: Dict[int, IrecControlService] = field(default_factory=dict, init=False)
    _inboxes: Dict[int, _Inbox] = field(default_factory=dict, init=False)
    #: (sender_as, egress_interface) → (link key, link latency, remote AS,
    #: remote interface, remote inbox).  The topology's link set only
    #: changes when a new AS registers (growth churn), which clears this
    #: cache, so egress resolution is memoized — the flood fast path pays
    #: one dict hit instead of a link lookup + endpoint resolution per
    #: message.
    _routes: Dict[Tuple[int, int], tuple] = field(default_factory=dict, init=False)
    #: Pre-bound per-AS drain callbacks (no per-tick lambda allocation).
    _drain_callbacks: Dict[int, object] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self._loss_rng = random.Random(self.loss_seed)

    def register(self, service: IrecControlService) -> None:
        """Register a control service under its AS identifier."""
        as_id = service.as_id
        self.services[as_id] = service
        self._inboxes[as_id] = _Inbox()
        self._drain_callbacks[as_id] = (
            lambda now_ms, _as_id=as_id: self._drain(_as_id, now_ms)
        )
        self._routes.clear()  # routes close over inboxes; rebuild lazily

    def service_of(self, as_id: int) -> IrecControlService:
        """Return the registered control service of ``as_id``."""
        service = self.services.get(as_id)
        if service is None:
            raise UnknownASError(as_id)
        return service

    # ------------------------------------------------------------------
    # the routed fabric
    # ------------------------------------------------------------------
    def _route(self, sender_as: int, egress_interface: int) -> tuple:
        """Resolve (and memoize) the egress endpoint's delivery route."""
        endpoint = (sender_as, egress_interface)
        route = self._routes.get(endpoint)
        if route is None:
            link = self.topology.link_of_interface(endpoint)
            remote_as, remote_interface = link.other_end(endpoint)
            self.service_of(remote_as)  # fail fast on unknown receivers
            route = (
                link.key,
                link.latency_ms,
                remote_as,
                remote_interface,
                self._inboxes[remote_as],
            )
            self._routes[endpoint] = route
        return route

    def send_message(
        self, sender_as: int, egress_interface: int, message: ControlMessage
    ) -> None:
        """Deliver ``message`` to the AS at the far end of the egress link.

        The one delivery path every link-routed message type shares:
        resolve the link, record the transmission (by message kind), drop
        if the link is unavailable now or at delivery time (PCBs
        additionally require their own advertised path to still be up —
        a beacon crossing a link that failed while it was in flight must
        not re-poison the databases the revocation flood just purged),
        pay ``link latency + processing delay``, and enqueue into the
        receiver's inbox for the batched drain at the arrival tick.
        """
        route = self._routes.get((sender_as, egress_interface))
        if route is None:
            route = self._route(sender_as, egress_interface)
        link_key, latency_ms, remote_as, remote_interface, inbox = route
        now_ms = self.scheduler.now_ms
        self.collector.record(message.kind, sender_as, egress_interface, now_ms)

        link_state = self.link_state
        if link_state.impaired() and not link_state.link_key_available(link_key):
            self.collector.record_drop(message.kind)
            return

        self.scheduler.schedule_in(
            latency_ms + PROCESSING_DELAY_MS,
            partial(
                self._deliver,
                message,
                remote_as,
                remote_interface,
                link_key,
                inbox,
            ),
        )

    def _deliver(
        self,
        message: ControlMessage,
        remote_as: int,
        interface: int,
        link_key: tuple,
        inbox: _Inbox,
        now_ms: float,
    ) -> None:
        """Receiver side of one delivery (the scheduled fabric callback).

        The inbox receives the object this call was handed, unaltered: the
        very object the sender sent.  No receiver may rely on that
        sharing; the golden digests hold when every delivery is a
        deserialized copy instead.
        """
        link_state = self.link_state
        if link_state.impaired():
            if not link_state.link_key_available(link_key):
                self.collector.record_drop(message.kind)
                return
            if isinstance(message, PCBMessage) and not link_state.path_available(
                message.beacon.walk_links()
            ):
                self.collector.record_drop(message.kind)
                return
        if link_state.degraded():
            # Silent degradation (gray failure / flap loss): the drop
            # is invisible to availability checks — no revocation, no
            # loud drop counter — only the gray-drop metric records it.
            rate = link_state.drop_probability(link_key, remote_as)
            if rate > 0.0 and (rate >= 1.0 or self._loss_rng.random() < rate):
                self.collector.record_gray_drop(message.kind)
                return
        inbox.entries.append((message, interface))
        if not inbox.drain_scheduled:
            inbox.drain_scheduled = True
            self.scheduler.schedule_at(now_ms, self._drain_callbacks[remote_as])

    def _drain(self, as_id: int, now_ms: float) -> None:
        """Hand the inbox's pending messages to the control service.

        Drains run at the same scheduler tick the messages arrived on —
        the drain event is scheduled at the arrival timestamp, and
        messages arriving at a later tick schedule their own drain — so
        every entry of a batch shares ``now_ms`` with its per-message
        delivery time.

        Every delivery is scheduled, so no handler can append to the inbox
        while it is drained: one swap takes the whole tick's batch.
        """
        inbox = self._inboxes[as_id]
        inbox.drain_scheduled = False
        entries = inbox.entries
        if not entries:
            return
        inbox.entries = []
        self.services[as_id].on_message_batch(entries, now_ms)

    # ------------------------------------------------------------------
    # path-travel deliveries (not link-routed)
    # ------------------------------------------------------------------
    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Return a terminated pull beacon to its origin over the beacon's path.

        The fabric's second routing mode: the return is counted under the
        ledger kind ``"pull_return"`` and, unlike link-routed messages,
        travels the beacon's full reverse path in one step (latency = the
        beacon's end-to-end propagation delay plus one processing delay),
        bypasses the inbox and is handed to the origin's
        ``receive_returned_beacon``.
        """
        origin = self.service_of(beacon.origin_as)
        self.collector.record("pull_return", sender_as, -1, self.scheduler.now_ms)

        def deliver(now_ms: float) -> None:
            # The return travels over the beacon's own path; it is lost if
            # any of those links is unavailable when it would arrive.
            link_state = self.link_state
            if link_state.impaired() and not link_state.path_available(beacon.walk_links()):
                # A lost return is a lost PCB: it counts in ``total_dropped``.
                self.collector.record_drop(PCBMessage.kind)
                return
            origin.receive_returned_beacon(beacon, now_ms=now_ms)

        self.scheduler.schedule_in(
            beacon.total_latency_ms() + PROCESSING_DELAY_MS, deliver
        )

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Fetch an on-demand payload from the origin AS's control service.

        The fetch is synchronous (the RAC blocks on it), but the collector
        records it so benchmarks can report fetch counts and the caching
        behaviour.
        """
        origin = self.service_of(origin_as)
        if not self.link_state.is_as_up(origin_as):
            # AlgorithmError (not SimulationError) so the RAC round records
            # a failed bucket and the simulation continues — an unreachable
            # origin must not abort the whole run.
            raise AlgorithmError(
                f"AS {origin_as} is offline and cannot serve algorithm {algorithm_id!r}"
            )
        self.collector.record_algorithm_fetch()
        return origin.serve_algorithm(algorithm_id)

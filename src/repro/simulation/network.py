"""The simulated control-plane transport: a routed message fabric.

Implements :class:`repro.core.transport.ControlPlaneTransport` on top of
the discrete-event scheduler as **one** generic delivery path for every
typed control message (:mod:`repro.core.messages`): PCBs, revocations and
path registrations sent over a link all flow through
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
(``batch_size=1``) — pinned by the dispatch-equivalence property tests —
while the batch lets the control service amortize work across messages
(e.g. one admission per duplicate beacon group, see
:meth:`repro.core.control_service.ControlService.on_message_batch`).

Returned pull beacons travel back to their origin with the accumulated
latency of the path they describe, and algorithm fetches cost one round
trip over that same path; both predate the fabric and keep their
path-travel (not link-routed) delivery.

Overload (PR 6): every inbox can additionally carry an
:class:`InboxProfile` — a per-service-round message **budget**, a bounded
**capacity** with a tail-drop or ECN-style mark overflow policy, and a
**service interval** — turning the previously infinite-rate control plane
into a queueing system: messages beyond the budget are deferred to later
service rounds (their handlers run at the *service* time, so withdrawal
``applied_at`` timestamps become load-dependent), revocations preempt
queued PCBs/registrations, and the collector records drops, marks,
deferrals, per-AS queue-depth high-water marks and the queueing-delay
distribution.  The default profile (no budget, no capacity) takes exactly
the pre-overload code path, which is what keeps the PR-5 golden traces
bit-identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.beacon import Beacon
from repro.core.control_service import ControlService
from repro.core.messages import ControlMessage, PCBMessage, PullReturnMessage
from repro.exceptions import (
    AlgorithmError,
    ConfigurationError,
    UnknownASError,
)
from repro.simulation.collector import MetricsCollector
from repro.simulation.engine import EventScheduler
from repro.simulation.failures import LinkState
from repro.topology.graph import Topology


@dataclass(frozen=True)
class InboxProfile:
    """Service-rate model and bounds of one per-AS control-plane inbox.

    The default profile (all fields at their defaults) is the infinite
    service rate + unbounded queue the fabric always had; any deviation
    switches the inbox onto the queueing path.

    Attributes:
        budget_per_tick: Maximum messages serviced per service round.
            ``None`` (the default) services everything at the arrival
            tick — the PR-5 behaviour.  With a finite budget, surplus
            messages carry over to the next round ``service_interval_ms``
            later, so their handlers (and ``applied_at`` withdrawal
            timestamps) run at the time they were actually serviced.
        capacity: Maximum queued messages (pending + deferred).  ``None``
            is unbounded; with a bound, deliveries into a full queue hit
            :attr:`overflow_policy`.
        overflow_policy: ``"drop"`` tail-drops the arriving message;
            ``"mark"`` delivers it anyway but stamps it congestion-marked
            (ECN-style) and counts the mark.
        service_interval_ms: Gap between service rounds while a backlog
            exists — the time one unit of queueing delay costs.
        kind_costs: Optional per-message-kind budget costs.  ``None``
            (the default) charges every message one unit of
            ``budget_per_tick`` — the PR 6 behaviour, bit-identical.
            With a table (e.g. ``{"revocation": 4, "path_query": 2}``),
            servicing a message of that kind consumes that many budget
            units, so a round fits fewer expensive messages; kinds
            absent from the table cost 1.  A service round always
            services at least one message even if its cost exceeds the
            whole budget (progress guarantee).
    """

    budget_per_tick: Optional[int] = None
    capacity: Optional[int] = None
    overflow_policy: str = "drop"
    service_interval_ms: float = 1.0
    kind_costs: Optional[Mapping[str, int]] = None

    def __post_init__(self) -> None:
        if self.kind_costs is not None:
            for kind, cost in self.kind_costs.items():
                if not isinstance(cost, int) or cost < 1:
                    raise ConfigurationError(
                        f"kind_costs[{kind!r}] must be an integer >= 1, got {cost!r}"
                    )
            # Freeze a private copy so later caller-side mutation cannot
            # desynchronize inboxes that already adopted this profile.
            object.__setattr__(self, "kind_costs", dict(self.kind_costs))
        if self.budget_per_tick is not None and self.budget_per_tick < 1:
            raise ConfigurationError(
                f"budget_per_tick must be None or >= 1, got {self.budget_per_tick}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ConfigurationError(
                f"capacity must be None or >= 1, got {self.capacity}"
            )
        if self.overflow_policy not in ("drop", "mark"):
            raise ConfigurationError(
                f"overflow_policy must be 'drop' or 'mark', got {self.overflow_policy!r}"
            )
        if self.service_interval_ms <= 0:
            raise ConfigurationError(
                f"service_interval_ms must be positive, got {self.service_interval_ms}"
            )

    @property
    def limited(self) -> bool:
        """Return whether this profile deviates from the unlimited default."""
        return self.budget_per_tick is not None or self.capacity is not None


class _Inbox:
    """One AS's pending delivered-but-undrained messages.

    A plain slotted class on the delivery fast path: every message pays
    one append here, and floods push millions of them.  The queue-model
    fields default to the unlimited profile; the delivery and drain fast
    paths branch on :attr:`limited` / :attr:`budget` exactly once, so the
    default configuration costs one attribute check over PR 5.
    """

    __slots__ = (
        "entries",
        "drain_scheduled",
        "draining",
        "limited",
        "budget",
        "capacity",
        "mark_overflow",
        "service_interval_ms",
        "kind_costs",
        "arrivals",
        "deferred",
    )

    def __init__(self) -> None:
        #: (message, arrival_interface) in arrival order.
        self.entries: List[Tuple[ControlMessage, int]] = []
        #: Whether a drain/service event is already queued for this inbox.
        self.drain_scheduled = False
        #: Re-entrancy guard for synchronous (immediate) drains.
        self.draining = False
        #: Whether any queue bound applies (single fast-path branch flag).
        self.limited = False
        #: Messages serviced per round (``None``: everything, at arrival).
        self.budget: Optional[int] = None
        #: Maximum queued messages (``None``: unbounded).
        self.capacity: Optional[int] = None
        #: Overflow policy: ``True`` marks-and-delivers, ``False`` drops.
        self.mark_overflow = False
        #: Gap between service rounds while a backlog exists.
        self.service_interval_ms = 1.0
        #: Per-kind budget costs (``None``: every message costs 1).
        self.kind_costs: Optional[Mapping[str, int]] = None
        #: Arrival times parallel to :attr:`entries` (finite budget only).
        self.arrivals: List[float] = []
        #: (message, interface, arrival_ms) carried over from earlier
        #: service rounds, in service priority order.
        self.deferred: List[Tuple[ControlMessage, int, float]] = []

    def apply_profile(self, profile: InboxProfile) -> None:
        """Adopt ``profile``'s queue model (hot-swappable mid-run)."""
        self.budget = profile.budget_per_tick
        self.capacity = profile.capacity
        self.mark_overflow = profile.overflow_policy == "mark"
        self.service_interval_ms = profile.service_interval_ms
        self.kind_costs = profile.kind_costs
        self.limited = profile.limited

    def queued(self) -> int:
        """Return how many messages are waiting (pending + deferred)."""
        return len(self.entries) + len(self.deferred)


@dataclass
class SimulatedTransport:
    """Scheduler-driven message fabric between control services.

    Attributes:
        topology: The global topology (used to resolve links and delays).
        scheduler: The discrete-event scheduler driving delivery.
        collector: Transmission counters for the overhead evaluation.
        processing_delay_ms: Fixed per-hop control-plane processing delay
            added to the link propagation delay.
        deliver_immediately: When set, messages are delivered and
            dispatched synchronously instead of being scheduled; used by
            tests that do not care about timing.
        link_state: Live link/AS availability (dynamic scenarios).  Checked
            both when a message is sent and when it would be delivered, so
            a link failing mid-flight loses the messages currently on it.
            When ``None`` every link is always available (static
            scenarios).
        batch_size: Maximum messages handed to a control service per inbox
            drain.  ``None`` (the default) drains everything pending at
            the tick; ``1`` is per-message delivery, the behavioural
            reference the equivalence tests compare against.
        inbox_profile: Default :class:`InboxProfile` applied to every
            registered AS's inbox.  ``None`` keeps the unlimited default.
        inbox_profiles: Per-AS profile overrides (AS id → profile).
        exporter: Shard hook.  ``None`` (the default) keeps the
            single-process fabric: every AS must be registered locally
            and sends fail fast on unknown receivers.  In a shard
            worker, sends whose receiving AS is not registered here are
            handed to this callback as ``(delivery_time_ms, remote_as,
            remote_interface, link_key, message)`` after the sender-side
            metrics and availability checks ran; the owning shard
            replays the receiver side via :meth:`inject_import`.
    """

    topology: Topology
    scheduler: EventScheduler
    collector: MetricsCollector = field(default_factory=MetricsCollector)
    processing_delay_ms: float = 1.0
    deliver_immediately: bool = False
    link_state: Optional[LinkState] = None
    batch_size: Optional[int] = None
    inbox_profile: Optional[InboxProfile] = None
    inbox_profiles: Dict[int, InboxProfile] = field(default_factory=dict)
    loss_seed: int = 0
    exporter: Optional[Callable[[tuple], None]] = None
    services: Dict[int, ControlService] = field(default_factory=dict)
    _inboxes: Dict[int, _Inbox] = field(default_factory=dict)
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    #: (sender_as, egress_interface) → (link key, link latency, remote AS,
    #: remote interface, remote inbox).  The topology's link set only
    #: changes when a new AS registers (growth churn), which clears this
    #: cache, so egress resolution is memoized — the flood fast path pays
    #: one dict hit instead of a link lookup + endpoint resolution per
    #: message.
    _routes: Dict[Tuple[int, int], tuple] = field(default_factory=dict)
    #: Pre-bound per-AS drain callbacks (no per-tick lambda allocation).
    _drain_callbacks: Dict[int, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._loss_rng = random.Random(self.loss_seed)
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be None or >= 1, got {self.batch_size}"
            )
        for profile in (self.inbox_profile, *self.inbox_profiles.values()):
            if (
                profile is not None
                and profile.budget_per_tick is not None
                and self.deliver_immediately
            ):
                raise ConfigurationError(
                    "finite inbox budgets need the scheduler to pace service "
                    "rounds; they are incompatible with deliver_immediately"
                )

    def register(self, service: ControlService) -> None:
        """Register a control service under its AS identifier."""
        as_id = service.as_id
        self.services[as_id] = service
        inbox = _Inbox()
        profile = self.inbox_profiles.get(as_id, self.inbox_profile)
        if profile is not None:
            inbox.apply_profile(profile)
        self._inboxes[as_id] = inbox
        self._drain_callbacks[as_id] = (
            lambda now_ms, _as_id=as_id: self._drain(_as_id, now_ms)
        )
        self._routes.clear()  # routes close over inboxes; rebuild lazily

    def configure_inbox(self, as_id: int, profile: InboxProfile) -> None:
        """Hot-swap the queue model of ``as_id``'s inbox mid-run.

        Backbone of the :class:`~repro.simulation.events.ServiceRateChange`
        timeline event.  Switching to an infinite service rate re-queues
        any deferred backlog for a prompt unlimited drain (the slow AS
        caught up); switching to a finite one starts deferring from the
        next service round on.
        """
        inbox = self._inboxes.get(as_id)
        if inbox is None:
            raise UnknownASError(as_id)
        if profile.budget_per_tick is not None and self.deliver_immediately:
            raise ConfigurationError(
                "finite inbox budgets are incompatible with deliver_immediately"
            )
        inbox.apply_profile(profile)
        if inbox.budget is None:
            inbox.arrivals = []
            if inbox.deferred:
                inbox.entries[0:0] = [
                    (message, interface) for message, interface, _arrival in inbox.deferred
                ]
                inbox.deferred = []
            if inbox.entries:
                # Schedule a prompt drain even if a service round is
                # already pending: that round sits a full (stale) service
                # interval out, and a duplicate drain of an empty inbox
                # is a no-op.
                inbox.drain_scheduled = True
                self.scheduler.schedule_at(
                    self.scheduler.now_ms, self._drain_callbacks[as_id]
                )

    def set_inbox_budget(self, as_id: int, budget_per_tick: Optional[int]) -> None:
        """Change only the service-rate budget of ``as_id``'s inbox."""
        inbox = self._inboxes.get(as_id)
        if inbox is None:
            raise UnknownASError(as_id)
        self.configure_inbox(
            as_id,
            InboxProfile(
                budget_per_tick=budget_per_tick,
                capacity=inbox.capacity,
                overflow_policy="mark" if inbox.mark_overflow else "drop",
                service_interval_ms=inbox.service_interval_ms,
                kind_costs=inbox.kind_costs,
            ),
        )

    def service_of(self, as_id: int) -> ControlService:
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
            if remote_as in self._inboxes or self.exporter is None:
                self.service_of(remote_as)  # fail fast on unknown receivers
                inbox = self._inboxes[remote_as]
            else:
                # Cross-shard receiver: delivery (and its checks) happen in
                # the owning worker; a ``None`` inbox marks the export path.
                inbox = None
            route = (
                link.key,
                link.latency_ms,
                remote_as,
                remote_interface,
                inbox,
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

        if (
            self.link_state is not None
            and self.link_state.impaired()
            and not self.link_state.link_key_available(link_key)
        ):
            self.collector.record_drop(message.kind)
            return

        if inbox is None:
            # Cross-shard send: the sender side (metrics, send-time
            # availability) ran above; serialize the receiver side out to
            # the shard that owns the remote AS.
            self.exporter(
                (
                    now_ms + latency_ms + self.processing_delay_ms,
                    remote_as,
                    remote_interface,
                    link_key,
                    message,
                )
            )
            return

        deliver = partial(
            self._deliver,
            message,
            remote_as,
            remote_interface,
            link_key,
            inbox,
            message.needs_hop_tracking(),
        )
        if self.deliver_immediately:
            deliver(now_ms + latency_ms + self.processing_delay_ms)
        else:
            self.scheduler.schedule_in(
                latency_ms + self.processing_delay_ms, deliver
            )

    def _deliver(
        self,
        message: ControlMessage,
        remote_as: int,
        interface: int,
        link_key: tuple,
        inbox: _Inbox,
        track: bool,
        now_ms: float,
    ) -> None:
        """Receiver side of one delivery (the scheduled fabric callback).

        Shared verbatim between local sends (scheduled by
        :meth:`send_message`) and cross-shard imports (scheduled by
        :meth:`inject_import`), so a message crossing a shard boundary
        passes exactly the checks it would have passed in one process.
        """
        if self.link_state is not None and self.link_state.impaired():
            if not self.link_state.link_key_available(link_key):
                self.collector.record_drop(message.kind)
                return
            if isinstance(message, PCBMessage) and not self.link_state.path_available(
                message.beacon.links()
            ):
                self.collector.record_drop(message.kind)
                return
        if self.link_state is not None and self.link_state.degraded():
            # Silent degradation (gray failure / flap loss): the drop
            # is invisible to availability checks — no revocation, no
            # loud drop counter — only the gray-drop metric records it.
            rate = self.link_state.drop_probability(link_key, remote_as)
            if rate > 0.0 and (rate >= 1.0 or self._loss_rng.random() < rate):
                self.collector.record_gray_drop(message.kind)
                return
        if track:
            message = message.with_hop(remote_as)
        if inbox.limited:
            # Queue model: bounded capacity (tail-drop or ECN mark at
            # delivery) and queue-depth high-water tracking.  The
            # unlimited default never enters this branch, keeping the
            # PR-5 fast path at one flag check per delivery.
            depth = len(inbox.entries) + len(inbox.deferred)
            if inbox.capacity is not None and depth >= inbox.capacity:
                if inbox.mark_overflow:
                    self.collector.record_inbox_mark(message.kind)
                    message = message.with_congestion_mark()
                else:
                    self.collector.record_inbox_drop(message.kind)
                    return
            self.collector.record_queue_depth(remote_as, depth + 1)
            if inbox.budget is not None:
                inbox.arrivals.append(now_ms)
        inbox.entries.append((message, interface))
        if self.deliver_immediately:
            # Synchronous mode: drain right away unless a drain higher
            # up the call stack is already consuming this inbox.
            if not inbox.draining:
                self._drain(remote_as, now_ms)
        elif not inbox.drain_scheduled:
            inbox.drain_scheduled = True
            self.scheduler.schedule_at(now_ms, self._drain_callbacks[remote_as])

    def inject_import(
        self,
        delivery_ms: float,
        remote_as: int,
        remote_interface: int,
        link_key: tuple,
        message: ControlMessage,
    ) -> None:
        """Schedule a cross-shard import for local receiver-side delivery.

        The sending shard already recorded the transmission and passed
        the send-time availability check; this schedules the same
        :meth:`_deliver` callback a local send would have, at the
        precomputed delivery time.
        """
        inbox = self._inboxes.get(remote_as)
        if inbox is None:
            raise UnknownASError(remote_as)
        self.scheduler.schedule_at(
            delivery_ms,
            partial(
                self._deliver,
                message,
                remote_as,
                remote_interface,
                link_key,
                inbox,
                message.needs_hop_tracking(),
            ),
        )

    def _drain(self, as_id: int, now_ms: float) -> None:
        """Hand the inbox's pending messages to the control service.

        Drains run at the same scheduler tick the messages arrived on —
        the drain event is scheduled at the arrival timestamp, and
        messages arriving at a later tick schedule their own drain — so
        every entry of a batch shares ``now_ms`` with its per-message
        delivery time.  With a finite :attr:`batch_size` the handler is
        invoked repeatedly with at most that many entries per call, still
        within this tick.
        """
        inbox = self._inboxes[as_id]
        inbox.drain_scheduled = False
        if inbox.draining:
            return
        if inbox.budget is not None:
            self._drain_limited(as_id, inbox, now_ms)
            return
        if not inbox.entries:
            return
        service = self.services[as_id]
        inbox.draining = True
        try:
            entries = inbox.entries
            if self.batch_size is None and not self.deliver_immediately:
                # Scheduled-mode fast path: handlers cannot enqueue into
                # this inbox synchronously, so one swap hands over the
                # whole tick's batch without re-checking the list.
                inbox.entries = []
                service.on_message_batch(entries, now_ms)
                return
            while inbox.entries:
                if self.batch_size is None:
                    batch, inbox.entries = inbox.entries, []
                else:
                    batch = inbox.entries[: self.batch_size]
                    del inbox.entries[: self.batch_size]
                service.on_message_batch(batch, now_ms)
        finally:
            inbox.draining = False

    def _drain_limited(self, as_id: int, inbox: _Inbox, now_ms: float) -> None:
        """Service round for a rate-limited inbox.

        At most ``budget`` messages are handed to the control service per
        round; the remainder carries over as the deferred backlog and a
        follow-up round is scheduled ``service_interval_ms`` later.  When
        the pending queue exceeds the budget, revocations are serviced
        before queued PCBs/registrations (stable within each class).
        Every message serviced later than it arrived counts as deferred
        and contributes its queueing delay to the collector.
        """
        if inbox.entries:
            fresh = inbox.entries
            inbox.entries = []
            arrivals = inbox.arrivals
            inbox.arrivals = []
            # Arrivals can be shorter than entries after a hot swap from
            # unlimited to limited mid-tick; pad with "now".
            for index, (message, interface) in enumerate(fresh):
                arrival = arrivals[index] if index < len(arrivals) else now_ms
                inbox.deferred.append((message, interface, arrival))
        pending = inbox.deferred
        if not pending:
            return
        budget = inbox.budget
        kind_costs = inbox.kind_costs
        if kind_costs is not None and budget is not None:
            # Weighted service round: each message consumes its kind's
            # cost from the budget (absent kinds cost 1, so the all-ones
            # table reduces provably to ``pending[:budget]`` below).
            total_cost = sum(kind_costs.get(item[0].kind, 1) for item in pending)
            if total_cost > budget:
                urgent = [item for item in pending if item[0].kind == "revocation"]
                if urgent and len(urgent) != len(pending):
                    bulk = [item for item in pending if item[0].kind != "revocation"]
                    pending = urgent + bulk
                batch3 = []
                spent = 0
                for item in pending:
                    cost = kind_costs.get(item[0].kind, 1)
                    # Progress guarantee: the round always services at
                    # least one message, even one costing more than the
                    # whole budget — a stuck inbox would never drain.
                    if batch3 and spent + cost > budget:
                        break
                    batch3.append(item)
                    spent += cost
                inbox.deferred = pending[len(batch3) :]
            else:
                batch3 = pending
                inbox.deferred = []
        elif budget is not None and len(pending) > budget:
            urgent = [item for item in pending if item[0].kind == "revocation"]
            if urgent and len(urgent) != len(pending):
                bulk = [item for item in pending if item[0].kind != "revocation"]
                pending = urgent + bulk
            batch3 = pending[:budget]
            inbox.deferred = pending[budget:]
        else:
            batch3 = pending
            inbox.deferred = []
        collector = self.collector
        entries: List[Tuple[ControlMessage, int]] = []
        for message, interface, arrival in batch3:
            delay = now_ms - arrival
            if delay > 0:
                collector.record_queue_delay(delay)
                collector.record_inbox_deferral(message.kind)
            entries.append((message, interface))
        service = self.services[as_id]
        inbox.draining = True
        try:
            service.on_message_batch(entries, now_ms)
        finally:
            inbox.draining = False
        if (inbox.deferred or inbox.entries) and not inbox.drain_scheduled:
            inbox.drain_scheduled = True
            self.scheduler.schedule_in(
                inbox.service_interval_ms, self._drain_callbacks[as_id]
            )

    def pending_messages(self, as_id: int) -> int:
        """Return how many delivered messages await draining at ``as_id``."""
        inbox = self._inboxes.get(as_id)
        if inbox is None:
            return 0
        return len(inbox.entries) + len(inbox.deferred)

    def queue_backlog_ms(self, as_id: int) -> float:
        """Estimated queueing delay a message arriving now would incur.

        Rounds of backlog ahead of the new arrival times the service
        interval; zero for unlimited inboxes or unknown ASes.  Used by
        the traffic engine as its per-flow queue-delay provider.
        """
        inbox = self._inboxes.get(as_id)
        if inbox is None or inbox.budget is None:
            return 0.0
        backlog = len(inbox.entries) + len(inbox.deferred)
        if not backlog:
            return 0.0
        return (backlog // inbox.budget) * inbox.service_interval_ms

    # ------------------------------------------------------------------
    # path-travel deliveries (not link-routed)
    # ------------------------------------------------------------------
    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Return a terminated pull beacon to its origin over the beacon's path.

        The fabric's second routing mode: the beacon is framed as a
        :class:`PullReturnMessage` and delivered through the origin's
        ``on_message`` dispatch, but unlike link-routed messages it travels
        the beacon's full reverse path in one step (latency = the
        beacon's end-to-end propagation delay) and bypasses the inbox.
        """
        now_ms = self.scheduler.now_ms
        origin = self.service_of(beacon.origin_as)
        self.collector.record(PullReturnMessage.kind, sender_as, -1, now_ms)
        delay_ms = beacon.total_latency_ms() + self.processing_delay_ms
        message = PullReturnMessage(
            origin_as=sender_as,
            sequence=next(self._sequence),
            created_at_ms=now_ms,
            beacon=beacon,
        )

        def deliver(now_ms: float, _origin=origin, _message=message):
            # The return travels over the beacon's own path; it is lost if
            # any of those links is unavailable when it would arrive.
            if (
                self.link_state is not None
                and self.link_state.impaired()
                and not self.link_state.path_available(_message.beacon.links())
            ):
                # A lost return is a lost PCB: it counts in ``total_dropped``.
                self.collector.record_drop(PCBMessage.kind)
                return
            _origin.on_message(_message, on_interface=-1, now_ms=now_ms)

        if self.deliver_immediately:
            deliver(now_ms + delay_ms)
        else:
            self.scheduler.schedule_in(delay_ms, deliver)

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Fetch an on-demand payload from the origin AS's control service.

        The fetch is synchronous (the RAC blocks on it), but the collector
        records it so benchmarks can report fetch counts and the caching
        behaviour.
        """
        origin = self.service_of(origin_as)
        if self.link_state is not None and not self.link_state.is_as_up(origin_as):
            # AlgorithmError (not SimulationError) so the RAC round records
            # a failed bucket and the simulation continues — an unreachable
            # origin must not abort the whole run.
            raise AlgorithmError(
                f"AS {origin_as} is offline and cannot serve algorithm {algorithm_id!r}"
            )
        self.collector.record_algorithm_fetch()
        return origin.serve_algorithm(algorithm_id)

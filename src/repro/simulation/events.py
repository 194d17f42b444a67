"""Typed scenario events and the dynamic-scenario timeline DSL.

A static :class:`~repro.simulation.scenario.ScenarioConfig` describes one
fixed deployment; real inter-domain control planes are dominated by churn
and operator activity.  This module provides the vocabulary to script that
dynamism:

* **typed events** — link failure/recovery, AS leave/join (churn), per-AS
  admission-policy swaps, RAC hot-swaps, beaconing-period changes, the
  overload family (PR 6): inbox service-rate changes and beacon-flood
  DoS bursts, and the adversarial family (PR 7): flapping links with
  per-direction loss, silent gray failures, Byzantine revocation forgery/
  replay/forwarding suppression, and mid-run topology growth,
* a **timeline** of ``(time, event)`` pairs attached to a scenario and
  executed by the beaconing driver through its discrete-event scheduler
  (so an event scheduled mid-period really interrupts propagation), and
* a small **builder DSL** (``timeline.at(t).fail_link(...)``) plus seeded
  random failure/churn generators for reproducible what-if experiments.

Every event renders to a stable one-line ``trace_label`` used by the
golden-trace regression tests: two runs of the same seeded scenario must
produce bit-for-bit identical traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID, Relationship, normalize_link_id
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenario ↔ events)
    from repro.simulation.scenario import AlgorithmSpec


def _format_link(link_id: LinkID) -> str:
    (as_a, if_a), (as_b, if_b) = link_id
    return f"{as_a}.{if_a}-{as_b}.{if_b}"


class ScenarioEvent:
    """Base class of all timed scenario events (marker + trace contract)."""

    def trace_label(self) -> str:
        """Return the stable one-line representation used in traces."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinkFailure(ScenarioEvent):
    """An inter-domain link goes down.

    In-flight PCBs on the link are lost and future sends over it are
    dropped.  The link's endpoint ASes originate signed revocation
    messages that flood hop-by-hop (:mod:`repro.core.revocation`); every
    other control service withdraws beacons and registered paths crossing
    the link when the revocation *arrives* — withdrawal timing is
    topology-dependent, not instantaneous.
    """

    link_id: LinkID

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))

    def trace_label(self) -> str:
        return f"fail_link {_format_link(self.link_id)}"


@dataclass(frozen=True)
class LinkRecovery(ScenarioEvent):
    """A previously failed inter-domain link comes back up.

    Recovery is silent: paths over the link reappear once the next
    beaconing period re-propagates PCBs across it.
    """

    link_id: LinkID

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))

    def trace_label(self) -> str:
        return f"recover_link {_format_link(self.link_id)}"


@dataclass(frozen=True)
class ASLeave(ScenarioEvent):
    """An AS leaves the network (churn).

    All of the AS's links become unusable and the AS stops originating and
    processing beacons.  Its neighbours originate revocation messages, so
    every *reachable* AS withdraws state crossing it as the flood arrives;
    partitioned ASes keep stale state until it expires.
    """

    as_id: int

    def trace_label(self) -> str:
        return f"as_leave {self.as_id}"


@dataclass(frozen=True)
class ASJoin(ScenarioEvent):
    """A previously departed AS rejoins with its original links."""

    as_id: int

    def trace_label(self) -> str:
        return f"as_join {self.as_id}"


@dataclass(frozen=True)
class PolicySwap(ScenarioEvent):
    """Replace the admission policies of one AS (or of every AS).

    Attributes:
        policies: The new admission-policy callables (see
            :mod:`repro.core.policies`); replaces the previous set.
        as_ids: ASes to reconfigure; ``None`` means every IREC AS.
        label: Stable human-readable name for traces (callables have no
            deterministic repr).
    """

    policies: Tuple = ()
    as_ids: Optional[Tuple[int, ...]] = None
    label: str = "default"

    def trace_label(self) -> str:
        scope = "all" if self.as_ids is None else ",".join(str(a) for a in self.as_ids)
        return f"policy_swap {self.label} @ {scope}"


@dataclass(frozen=True)
class RACSwap(ScenarioEvent):
    """Hot-swap a routing algorithm container in one AS (or every AS).

    The RAC named ``replace_rac_id`` (default: the new spec's ``rac_id``)
    is removed and a fresh container built from ``spec`` is installed, as
    if the operator deployed a new algorithm image.
    """

    spec: "AlgorithmSpec"
    replace_rac_id: Optional[str] = None
    as_ids: Optional[Tuple[int, ...]] = None

    @property
    def target_rac_id(self) -> str:
        """Return the id of the RAC being replaced."""
        return self.replace_rac_id or self.spec.rac_id

    def trace_label(self) -> str:
        scope = "all" if self.as_ids is None else ",".join(str(a) for a in self.as_ids)
        return f"rac_swap {self.target_rac_id}->{self.spec.rac_id} @ {scope}"


@dataclass(frozen=True)
class BeaconPeriodChange(ScenarioEvent):
    """Change the beaconing period for all *subsequent* periods.

    The period already in progress finishes at its scheduled end; overhead
    bins of the metrics collector keep the scenario's initial period length.
    """

    interval_ms: float

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ConfigurationError(
                f"beaconing period must be positive, got {self.interval_ms}"
            )

    def trace_label(self) -> str:
        return f"set_period {self.interval_ms:.3f}"


@dataclass(frozen=True)
class ServiceRateChange(ScenarioEvent):
    """Change the per-tick inbox service budget of one or more ASes.

    Hot-swaps the rate limit of the targeted ASes' bounded inboxes (see
    :class:`repro.simulation.network.InboxProfile`): ``budget_per_tick``
    messages are serviced per round, the rest queues.  ``None`` restores
    the unlimited default (the whole backlog drains promptly).  This is
    the timeline handle for slow-AS stragglers and operator rate-limit
    interventions.

    Attributes:
        budget_per_tick: New per-round budget (``>= 1``), or ``None`` for
            unlimited.
        as_ids: ASes to reconfigure; ``None`` means every AS.
    """

    budget_per_tick: Optional[int] = None
    as_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.budget_per_tick is not None and self.budget_per_tick < 1:
            raise ConfigurationError(
                f"budget_per_tick must be None or >= 1, got {self.budget_per_tick}"
            )

    def trace_label(self) -> str:
        budget = "inf" if self.budget_per_tick is None else str(self.budget_per_tick)
        scope = "all" if self.as_ids is None else ",".join(str(a) for a in self.as_ids)
        return f"service_rate {budget} @ {scope}"


@dataclass(frozen=True)
class BeaconFlood(ScenarioEvent):
    """A designated AS floods a burst of beacon originations (DoS).

    The attacker AS originates ``bursts`` extra rounds of PCBs at the
    event time — on top of its regular period originations — pressuring
    every downstream inbox.  With bounded inboxes the flood manifests as
    queue growth, deferrals and drops; with the unlimited default it only
    inflates message counts.
    """

    attacker_as: int
    bursts: int = 10

    def __post_init__(self) -> None:
        if self.bursts < 1:
            raise ConfigurationError(f"bursts must be >= 1, got {self.bursts}")

    def trace_label(self) -> str:
        return f"beacon_flood {self.attacker_as} x{self.bursts}"


def _check_rate(name: str, rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {rate}")


@dataclass(frozen=True)
class LinkFlap(ScenarioEvent):
    """A link flaps: a scripted on/off schedule with per-direction loss.

    ``schedule`` holds strictly increasing offsets (ms, relative to the
    event time) at which the link toggles; the first toggle takes the
    link *down*, the second brings it back, and so on.  Each down
    transition behaves like a :class:`LinkFailure` (the endpoints
    originate revocations), each up transition like a
    :class:`LinkRecovery` — a flapping link is *loud*, unlike a gray
    failure.  An even-length schedule leaves the link up, an odd-length
    one leaves it down.

    While the flap is active (from the event time until the last toggle,
    or ``duration_ms`` when given), the link additionally drops each
    delivered message with a per-direction probability: ``loss_ab`` for
    messages travelling from the normalised link id's first endpoint
    toward its second, ``loss_ba`` for the reverse direction.  Loss draws
    come from the transport's seeded RNG, so a seeded scenario stays
    fully reproducible.

    An empty schedule with a ``duration_ms`` degrades the link (loss
    only, no toggles) for that long.
    """

    link_id: LinkID
    schedule: Tuple[float, ...] = ()
    loss_ab: float = 0.0
    loss_ba: float = 0.0
    duration_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))
        object.__setattr__(self, "schedule", tuple(float(t) for t in self.schedule))
        if not self.schedule and self.duration_ms is None:
            raise ConfigurationError(
                "a LinkFlap needs a toggle schedule or a loss duration_ms"
            )
        previous = -1.0
        for offset in self.schedule:
            if offset < 0.0:
                raise ConfigurationError(
                    f"flap schedule offsets must be non-negative, got {offset}"
                )
            if offset <= previous:
                raise ConfigurationError(
                    f"flap schedule must be strictly increasing, got {self.schedule}"
                )
            previous = offset
        _check_rate("loss_ab", self.loss_ab)
        _check_rate("loss_ba", self.loss_ba)
        if self.duration_ms is not None and self.duration_ms <= 0.0:
            raise ConfigurationError(
                f"flap duration_ms must be positive, got {self.duration_ms}"
            )

    @property
    def ends_down(self) -> bool:
        """Return whether the schedule leaves the link failed."""
        return len(self.schedule) % 2 == 1

    def trace_label(self) -> str:
        return (
            f"flap_link {_format_link(self.link_id)} x{len(self.schedule)} "
            f"loss={self.loss_ab:.2f}/{self.loss_ba:.2f}"
        )


@dataclass(frozen=True)
class GrayFailure(ScenarioEvent):
    """A link starts silently dropping messages — a gray failure.

    The defining property: *no revocation is ever originated*.  The link
    still looks up to the control plane (beacons over other links keep
    advertising paths across it, registered paths linger), so only
    end-host-observed delivery quality reveals the fault.  ``drop_rate``
    is the per-message drop probability; the default ``1.0`` blackholes
    the link deterministically.
    """

    link_id: LinkID
    drop_rate: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))
        _check_rate("drop_rate", self.drop_rate)
        if self.drop_rate == 0.0:
            raise ConfigurationError("a gray failure needs a positive drop_rate")

    def trace_label(self) -> str:
        return f"gray_fail {_format_link(self.link_id)} rate={self.drop_rate:.2f}"


@dataclass(frozen=True)
class GrayRecovery(ScenarioEvent):
    """A gray-failed link silently stops dropping messages."""

    link_id: LinkID

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))

    def trace_label(self) -> str:
        return f"gray_recover {_format_link(self.link_id)}"


@dataclass(frozen=True)
class RevocationForgery(ScenarioEvent):
    """A Byzantine AS floods forged revocations claiming another origin.

    The attacker crafts :class:`~repro.core.messages.RevocationMessage`\\ s
    naming ``link_id`` as failed and ``claimed_origin`` as the origin, but
    can only sign them with *its own* key — with signature verification
    enabled every receiver rejects the forgery (``rejected_invalid``)
    without marking the key seen, so no path is ever withdrawn.  Forged
    sequences start at ``sequence_base`` (far above any honest sequence)
    so a forgery can never shadow a legitimate revocation in the dedup
    window.
    """

    attacker_as: int
    claimed_origin: int
    link_id: LinkID
    count: int = 1
    sequence_base: int = 1_000_000

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.attacker_as == self.claimed_origin:
            raise ConfigurationError(
                "a forgery claiming the attacker's own origin is just a lie "
                "it may tell — use a distinct claimed_origin"
            )
        if self.sequence_base < 1:
            raise ConfigurationError(
                f"sequence_base must be >= 1, got {self.sequence_base}"
            )

    def trace_label(self) -> str:
        return (
            f"forge_revocation {self.attacker_as} as-origin={self.claimed_origin} "
            f"link {_format_link(self.link_id)} x{self.count}"
        )


@dataclass(frozen=True)
class RevocationReplay(ScenarioEvent):
    """A Byzantine AS re-floods revocations it has already processed.

    The attacker takes up to ``count`` distinct messages from its own
    negative cache (deterministically ordered by ``(origin, sequence)``)
    and floods byte-identical copies on every interface.  Receivers
    inside the dedup window count them as ``duplicates`` and withdraw
    nothing; past the window the replay re-applies an already-applied
    (idempotent) withdrawal.
    """

    attacker_as: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")

    def trace_label(self) -> str:
        return f"replay_revocations {self.attacker_as} x{self.count}"


@dataclass(frozen=True)
class ForwardingSuppression(ScenarioEvent):
    """Byzantine ASes silently swallow revocation floods they should re-forward.

    The targeted control services keep *applying* revocations (the
    attacker stays plausible) but stop re-forwarding them, so ASes whose
    only flood paths cross a suppressor learn of failures late or never.
    ``suppress=False`` restores honest forwarding.
    """

    as_ids: Tuple[int, ...]
    suppress: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "as_ids", tuple(int(a) for a in self.as_ids))
        if not self.as_ids:
            raise ConfigurationError("ForwardingSuppression needs at least one AS")

    def trace_label(self) -> str:
        mode = "on" if self.suppress else "off"
        scope = ",".join(str(a) for a in self.as_ids)
        return f"suppress_forwarding {mode} @ {scope}"


@dataclass(frozen=True)
class TopologyGrowth(ScenarioEvent):
    """A brand-new AS joins mid-run, attaching to existing ASes (join churn).

    Unlike :class:`ASJoin` (which revives a departed member), this grows
    the topology: a fresh AS with one interface per attachment point is
    created, customer-provider links to each ``attach_to`` AS are added
    (the new AS is the customer), a control service is built and
    registered on the fabric, and the newcomer starts originating in the
    next beaconing period.
    """

    new_as: int
    attach_to: Tuple[int, ...]
    latency_ms: float = 10.0
    bandwidth_mbps: float = 1000.0
    location: Tuple[float, float] = (0.0, 0.0)
    relationship: Relationship = Relationship.CUSTOMER_PROVIDER

    def __post_init__(self) -> None:
        object.__setattr__(self, "attach_to", tuple(int(a) for a in self.attach_to))
        if not self.attach_to:
            raise ConfigurationError("TopologyGrowth needs at least one attachment AS")
        if len(set(self.attach_to)) != len(self.attach_to):
            raise ConfigurationError(
                f"TopologyGrowth attachment ASes must be distinct, got {self.attach_to}"
            )
        if self.new_as in self.attach_to:
            raise ConfigurationError(
                f"new AS {self.new_as} cannot attach to itself"
            )
        if self.latency_ms < 0.0:
            raise ConfigurationError(
                f"latency_ms must be non-negative, got {self.latency_ms}"
            )
        if self.bandwidth_mbps <= 0.0:
            raise ConfigurationError(
                f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}"
            )

    def trace_label(self) -> str:
        scope = ",".join(str(a) for a in self.attach_to)
        return f"grow_as {self.new_as} attach={scope}"


@dataclass(frozen=True)
class TimedEvent:
    """One scenario event pinned to an absolute simulated time."""

    time_ms: float
    event: ScenarioEvent

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ConfigurationError(f"event time must be non-negative, got {self.time_ms}")

    def trace_label(self) -> str:
        """Return the stable trace line of this timed event."""
        return f"{self.time_ms:.3f} {self.event.trace_label()}"


@dataclass
class ScenarioTimeline:
    """An ordered collection of timed events with a chaining builder DSL.

    Events are kept in insertion order; the beaconing driver schedules them
    on its discrete-event scheduler, which orders them by time with FIFO
    tie-breaking — so same-time events apply in the order they were added.

    Example::

        timeline = ScenarioTimeline()
        timeline.at(minutes(15)).fail_link(link).at(minutes(35)).recover_link(link)
    """

    _events: List[TimedEvent] = field(default_factory=list)

    def at(self, time_ms: float) -> "TimelineCursor":
        """Return a cursor adding events at absolute time ``time_ms``."""
        return TimelineCursor(timeline=self, time_ms=time_ms)

    def add(self, time_ms: float, event: ScenarioEvent) -> "ScenarioTimeline":
        """Append one event at ``time_ms``; return the timeline (chainable)."""
        self._events.append(TimedEvent(time_ms=time_ms, event=event))
        return self

    def extend(self, timed_events: Sequence[TimedEvent]) -> "ScenarioTimeline":
        """Append pre-built timed events (e.g. from the random generators)."""
        for timed in timed_events:
            if not isinstance(timed, TimedEvent):
                raise ConfigurationError(f"expected TimedEvent, got {timed!r}")
            self._events.append(timed)
        return self

    @property
    def events(self) -> Tuple[TimedEvent, ...]:
        """Return the timed events in insertion order."""
        return tuple(self._events)

    def validate(self, topology: Optional[Topology] = None) -> None:
        """Reject schedules that would silently no-op when executed.

        Replays the timeline in execution order (time, then insertion
        order — exactly how the scheduler fires it) and raises
        :class:`ConfigurationError` for a :class:`LinkRecovery` of a link
        that is not failed at that point, or an :class:`ASJoin` of an AS
        that is not offline.  Both were previously silent no-ops
        (``LinkState`` discards unknown keys), which hid scheduling
        mistakes like a recovery firing before its failure or a mistyped
        link id.  Negative event times are already rejected at
        :class:`TimedEvent` construction, non-positive
        :class:`ServiceRateChange` budgets at event construction.

        When ``topology`` is given, every AS an event names must be a
        member AS or one grown earlier in the timeline — churn, swaps,
        rate limits or floods aimed at an unknown AS would otherwise
        silently do nothing — and every link a failure or recovery names
        must be a topology link.  The adversarial family is held to the
        same bar:
        :class:`LinkFlap`/:class:`GrayFailure`/:class:`GrayRecovery` must
        name known links, :class:`RevocationForgery`/:class:`RevocationReplay`
        attackers and :class:`ForwardingSuppression` targets must be known
        ASes, a :class:`GrayRecovery` needs an earlier gray failure, and a
        :class:`TopologyGrowth` must introduce a genuinely new AS attached
        to existing (or earlier-grown) ones.  Flap schedules with negative
        or non-monotonic offsets are rejected even earlier, at
        :class:`LinkFlap` construction.

        The beaconing driver calls this (with its topology) before
        scheduling the timeline; call it directly to check a hand-built
        timeline early.
        """
        failed: set = set()
        offline: set = set()
        gray: set = set()
        grown: set = set()

        def check_as(timed: TimedEvent, as_id: int, role: str) -> None:
            if topology is not None and as_id not in topology and as_id not in grown:
                raise ConfigurationError(
                    f"timeline event {timed.trace_label()!r} {role} "
                    f"unknown AS {as_id}"
                )

        def check_link(timed: TimedEvent, link_id: LinkID) -> None:
            if topology is not None and link_id not in topology.links:
                raise ConfigurationError(
                    f"timeline event {timed.trace_label()!r} targets "
                    f"unknown link {_format_link(link_id)}"
                )

        ordered = sorted(self._events, key=lambda timed: timed.time_ms)
        for timed in ordered:
            event = timed.event
            if isinstance(event, LinkFailure):
                check_link(timed, event.link_id)
                failed.add(event.link_id)
            elif isinstance(event, LinkRecovery):
                check_link(timed, event.link_id)
                if event.link_id not in failed:
                    raise ConfigurationError(
                        f"timeline event {timed.trace_label()!r} recovers a link "
                        "that is not failed at that time — a recovery needs an "
                        "earlier failure of the same link"
                    )
                failed.discard(event.link_id)
            elif isinstance(event, ASLeave):
                check_as(timed, event.as_id, "targets")
                offline.add(event.as_id)
            elif isinstance(event, ASJoin):
                check_as(timed, event.as_id, "targets")
                if event.as_id not in offline:
                    raise ConfigurationError(
                        f"timeline event {timed.trace_label()!r} rejoins an AS "
                        "that is not offline at that time — a join needs an "
                        "earlier leave of the same AS"
                    )
                offline.discard(event.as_id)
            elif isinstance(event, (ServiceRateChange, PolicySwap, RACSwap)):
                for as_id in event.as_ids or ():
                    check_as(timed, as_id, "targets")
            elif isinstance(event, BeaconFlood):
                check_as(timed, event.attacker_as, "floods from")
            elif isinstance(event, LinkFlap):
                check_link(timed, event.link_id)
                # Net effect on the replayed link state: an odd-length
                # schedule leaves the link failed.  Sub-toggle interleaving
                # with other events is not modelled here.
                if event.ends_down:
                    failed.add(event.link_id)
                else:
                    failed.discard(event.link_id)
            elif isinstance(event, GrayFailure):
                check_link(timed, event.link_id)
                gray.add(event.link_id)
            elif isinstance(event, GrayRecovery):
                check_link(timed, event.link_id)
                if event.link_id not in gray:
                    raise ConfigurationError(
                        f"timeline event {timed.trace_label()!r} clears a gray "
                        "failure that is not active at that time — a gray "
                        "recovery needs an earlier gray failure of the same link"
                    )
                gray.discard(event.link_id)
            elif isinstance(event, RevocationForgery):
                check_as(timed, event.attacker_as, "forges from")
                check_as(timed, event.claimed_origin, "claims origin of")
                check_link(timed, event.link_id)
            elif isinstance(event, RevocationReplay):
                check_as(timed, event.attacker_as, "replays from")
            elif isinstance(event, ForwardingSuppression):
                for as_id in event.as_ids:
                    check_as(timed, as_id, "suppresses at")
            elif isinstance(event, TopologyGrowth):
                if (topology is not None and event.new_as in topology) or (
                    event.new_as in grown
                ):
                    raise ConfigurationError(
                        f"timeline event {timed.trace_label()!r} grows an AS "
                        f"that already exists — growth must introduce a new AS"
                    )
                for as_id in event.attach_to:
                    check_as(timed, as_id, "attaches to")
                grown.add(event.new_as)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


@dataclass
class TimelineCursor:
    """Builder cursor of :class:`ScenarioTimeline` pinned to one time."""

    timeline: ScenarioTimeline
    time_ms: float

    def at(self, time_ms: float) -> "TimelineCursor":
        """Move the cursor to a different absolute time."""
        return TimelineCursor(timeline=self.timeline, time_ms=time_ms)

    def _add(self, event: ScenarioEvent) -> "TimelineCursor":
        self.timeline.add(self.time_ms, event)
        return self

    def fail_link(self, link_id: LinkID) -> "TimelineCursor":
        """Fail an inter-domain link."""
        return self._add(LinkFailure(link_id=link_id))

    def recover_link(self, link_id: LinkID) -> "TimelineCursor":
        """Recover a previously failed link."""
        return self._add(LinkRecovery(link_id=link_id))

    def as_leave(self, as_id: int) -> "TimelineCursor":
        """Remove an AS from the network (churn)."""
        return self._add(ASLeave(as_id=as_id))

    def as_join(self, as_id: int) -> "TimelineCursor":
        """Bring a previously departed AS back."""
        return self._add(ASJoin(as_id=as_id))

    def swap_policies(
        self,
        policies: Sequence,
        as_ids: Optional[Sequence[int]] = None,
        label: str = "default",
    ) -> "TimelineCursor":
        """Replace admission policies at ``as_ids`` (default: everywhere)."""
        return self._add(
            PolicySwap(
                policies=tuple(policies),
                as_ids=tuple(as_ids) if as_ids is not None else None,
                label=label,
            )
        )

    def swap_rac(
        self,
        spec: "AlgorithmSpec",
        replace_rac_id: Optional[str] = None,
        as_ids: Optional[Sequence[int]] = None,
    ) -> "TimelineCursor":
        """Hot-swap a RAC at ``as_ids`` (default: every IREC AS)."""
        return self._add(
            RACSwap(
                spec=spec,
                replace_rac_id=replace_rac_id,
                as_ids=tuple(as_ids) if as_ids is not None else None,
            )
        )

    def set_beacon_period(self, interval_ms: float) -> "TimelineCursor":
        """Change the beaconing period for subsequent periods."""
        return self._add(BeaconPeriodChange(interval_ms=interval_ms))

    def set_service_rate(
        self,
        budget_per_tick: Optional[int],
        as_ids: Optional[Sequence[int]] = None,
    ) -> "TimelineCursor":
        """Change the inbox service budget at ``as_ids`` (default: all)."""
        return self._add(
            ServiceRateChange(
                budget_per_tick=budget_per_tick,
                as_ids=tuple(as_ids) if as_ids is not None else None,
            )
        )

    def flood_beacons(self, attacker_as: int, bursts: int = 10) -> "TimelineCursor":
        """Flood ``bursts`` extra origination rounds from ``attacker_as``."""
        return self._add(BeaconFlood(attacker_as=attacker_as, bursts=bursts))

    def slow_as(self, as_id: int, budget_per_tick: int = 1) -> "TimelineCursor":
        """Turn one AS into a straggler with a tiny service budget."""
        return self._add(
            ServiceRateChange(budget_per_tick=budget_per_tick, as_ids=(as_id,))
        )

    def flap_link(
        self,
        link_id: LinkID,
        schedule: Sequence[float] = (),
        loss_ab: float = 0.0,
        loss_ba: float = 0.0,
        duration_ms: Optional[float] = None,
    ) -> "TimelineCursor":
        """Flap a link on a toggle schedule with per-direction loss."""
        return self._add(
            LinkFlap(
                link_id=link_id,
                schedule=tuple(schedule),
                loss_ab=loss_ab,
                loss_ba=loss_ba,
                duration_ms=duration_ms,
            )
        )

    def gray_fail(self, link_id: LinkID, drop_rate: float = 1.0) -> "TimelineCursor":
        """Silently gray-fail a link (no revocations ever originate)."""
        return self._add(GrayFailure(link_id=link_id, drop_rate=drop_rate))

    def gray_recover(self, link_id: LinkID) -> "TimelineCursor":
        """Silently clear a gray failure."""
        return self._add(GrayRecovery(link_id=link_id))

    def forge_revocation(
        self,
        attacker_as: int,
        claimed_origin: int,
        link_id: LinkID,
        count: int = 1,
    ) -> "TimelineCursor":
        """Flood forged revocations claiming another AS as origin."""
        return self._add(
            RevocationForgery(
                attacker_as=attacker_as,
                claimed_origin=claimed_origin,
                link_id=link_id,
                count=count,
            )
        )

    def replay_revocations(self, attacker_as: int, count: int = 1) -> "TimelineCursor":
        """Re-flood already-processed revocations from ``attacker_as``."""
        return self._add(RevocationReplay(attacker_as=attacker_as, count=count))

    def suppress_forwarding(
        self, as_ids: Sequence[int], suppress: bool = True
    ) -> "TimelineCursor":
        """Make ``as_ids`` swallow revocation floods instead of re-forwarding."""
        return self._add(
            ForwardingSuppression(as_ids=tuple(as_ids), suppress=suppress)
        )

    def grow_as(
        self,
        new_as: int,
        attach_to: Sequence[int],
        latency_ms: float = 10.0,
        bandwidth_mbps: float = 1000.0,
        location: Tuple[float, float] = (0.0, 0.0),
    ) -> "TimelineCursor":
        """Grow the topology: a brand-new AS attaches to existing ones."""
        return self._add(
            TopologyGrowth(
                new_as=new_as,
                attach_to=tuple(attach_to),
                latency_ms=latency_ms,
                bandwidth_mbps=bandwidth_mbps,
                location=location,
            )
        )


# ----------------------------------------------------------------------
# seeded random event generators
# ----------------------------------------------------------------------
def random_link_failures(
    topology: Topology,
    count: int,
    rng: random.Random,
    start_ms: float,
    spacing_ms: float,
    recovery_after_ms: Optional[float] = None,
    candidates: Optional[Sequence[LinkID]] = None,
) -> List[TimedEvent]:
    """Generate ``count`` failures of distinct random links.

    Failures fire at ``start_ms, start_ms + spacing_ms, ...``; when
    ``recovery_after_ms`` is given, each link recovers that long after its
    failure.  Candidate links default to every link and are drawn in
    sorted order, so a seeded ``rng`` makes the schedule fully
    reproducible; restrict ``candidates`` (e.g. to the links of one AS) to
    aim the failures.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if candidates is not None:
        pool = sorted(normalize_link_id(*link) for link in candidates)
    else:
        pool = list(topology.link_ids())
    chosen = rng.sample(pool, k=min(count, len(pool)))
    events: List[TimedEvent] = []
    for index, link in enumerate(chosen):
        fail_at = start_ms + index * spacing_ms
        events.append(TimedEvent(time_ms=fail_at, event=LinkFailure(link_id=link)))
        if recovery_after_ms is not None:
            events.append(
                TimedEvent(
                    time_ms=fail_at + recovery_after_ms,
                    event=LinkRecovery(link_id=link),
                )
            )
    return events


def revocation_storm(
    topology: Topology,
    count: int,
    rng: random.Random,
    at_ms: float,
    recovery_after_ms: Optional[float] = None,
    candidates: Optional[Sequence[LinkID]] = None,
) -> List[TimedEvent]:
    """Generate a revocation storm: ``count`` links fail *simultaneously*.

    Every failure fires at the same ``at_ms``, so the driver's
    per-originator aggregation batches co-owned failures into
    multi-element revocations and every inbox sees the storm as one
    burst.  With bounded inboxes the burst exceeds per-tick budgets and
    withdrawal times spread out load-dependently; with the unlimited
    default the storm converges within the tick.
    """
    return random_link_failures(
        topology,
        count,
        rng,
        start_ms=at_ms,
        spacing_ms=0.0,
        recovery_after_ms=recovery_after_ms,
        candidates=candidates,
    )


def slow_as_stragglers(
    as_ids: Sequence[int],
    budget_per_tick: int,
    start_ms: float,
    duration_ms: Optional[float] = None,
) -> List[TimedEvent]:
    """Generate straggler events: the given ASes slow to a tiny budget.

    Each AS's inbox budget drops to ``budget_per_tick`` at ``start_ms``;
    when ``duration_ms`` is given the unlimited default is restored that
    much later (the accumulated backlog then drains promptly).
    """
    targets = tuple(int(a) for a in as_ids)
    events: List[TimedEvent] = [
        TimedEvent(
            time_ms=start_ms,
            event=ServiceRateChange(budget_per_tick=budget_per_tick, as_ids=targets),
        )
    ]
    if duration_ms is not None:
        events.append(
            TimedEvent(
                time_ms=start_ms + duration_ms,
                event=ServiceRateChange(budget_per_tick=None, as_ids=targets),
            )
        )
    return events


def beacon_flood_dos(
    attacker_as: int,
    start_ms: float,
    bursts: int = 10,
    waves: int = 1,
    spacing_ms: float = 0.0,
) -> List[TimedEvent]:
    """Generate a beacon-flood DoS: ``waves`` bursts from one attacker.

    Each wave fires ``bursts`` extra origination rounds; waves are spaced
    ``spacing_ms`` apart (0 collapses them into one same-time volley).
    """
    if waves < 1:
        raise ConfigurationError(f"waves must be >= 1, got {waves}")
    return [
        TimedEvent(
            time_ms=start_ms + index * spacing_ms,
            event=BeaconFlood(attacker_as=attacker_as, bursts=bursts),
        )
        for index in range(waves)
    ]


def random_churn(
    topology: Topology,
    count: int,
    rng: random.Random,
    start_ms: float,
    spacing_ms: float,
    downtime_ms: Optional[float] = None,
    candidates: Optional[Sequence[int]] = None,
) -> List[TimedEvent]:
    """Generate leave (and optional rejoin) events for random ASes.

    Args:
        topology: Topology the ASes are drawn from.
        count: Number of distinct ASes to churn.
        rng: Seeded random generator (determinism is the caller's contract).
        start_ms: Time of the first leave.
        spacing_ms: Gap between consecutive leaves.
        downtime_ms: When given, each AS rejoins that long after leaving.
        candidates: Restrict the draw (e.g. to stub ASes so the topology
            stays connected); defaults to every AS.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    pool = sorted(int(a) for a in (candidates if candidates is not None else topology.as_ids()))
    chosen = rng.sample(pool, k=min(count, len(pool)))
    events: List[TimedEvent] = []
    for index, as_id in enumerate(chosen):
        leave_at = start_ms + index * spacing_ms
        events.append(TimedEvent(time_ms=leave_at, event=ASLeave(as_id=as_id)))
        if downtime_ms is not None:
            events.append(
                TimedEvent(time_ms=leave_at + downtime_ms, event=ASJoin(as_id=as_id))
            )
    return events


def flapping_links(
    topology: Topology,
    count: int,
    rng: random.Random,
    start_ms: float,
    cycles: int = 3,
    mean_down_ms: float = 30_000.0,
    mean_up_ms: float = 60_000.0,
    loss_rate: float = 0.0,
    candidates: Optional[Sequence[LinkID]] = None,
) -> List[TimedEvent]:
    """Generate seeded link flaps: random links toggle down/up repeatedly.

    Each chosen link flaps ``cycles`` times; phase lengths are drawn
    uniformly from ``[0.5, 1.5] ×`` the respective mean, so a seeded
    ``rng`` makes the whole schedule reproducible.  Every schedule has an
    even number of toggles — the link always ends up.  ``loss_rate`` is
    applied symmetrically in both directions while the flap is active.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if cycles < 1:
        raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
    if candidates is not None:
        pool = sorted(normalize_link_id(*link) for link in candidates)
    else:
        pool = list(topology.link_ids())
    chosen = rng.sample(pool, k=min(count, len(pool)))
    events: List[TimedEvent] = []
    for link in chosen:
        schedule: List[float] = []
        offset = 0.0
        for _cycle in range(cycles):
            schedule.append(offset)
            offset += mean_down_ms * rng.uniform(0.5, 1.5)
            schedule.append(offset)
            offset += mean_up_ms * rng.uniform(0.5, 1.5)
        events.append(
            TimedEvent(
                time_ms=start_ms,
                event=LinkFlap(
                    link_id=link,
                    schedule=tuple(schedule),
                    loss_ab=loss_rate,
                    loss_ba=loss_rate,
                ),
            )
        )
    return events


def gray_failures(
    topology: Topology,
    count: int,
    rng: random.Random,
    at_ms: float,
    drop_rate: float = 1.0,
    duration_ms: Optional[float] = None,
    candidates: Optional[Sequence[LinkID]] = None,
) -> List[TimedEvent]:
    """Generate silent gray failures of random links (plus optional recovery).

    No revocation ever originates for these links; the control plane
    stays blind and only end-host delivery quality degrades.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if candidates is not None:
        pool = sorted(normalize_link_id(*link) for link in candidates)
    else:
        pool = list(topology.link_ids())
    chosen = rng.sample(pool, k=min(count, len(pool)))
    events: List[TimedEvent] = []
    for link in chosen:
        events.append(
            TimedEvent(time_ms=at_ms, event=GrayFailure(link_id=link, drop_rate=drop_rate))
        )
        if duration_ms is not None:
            events.append(
                TimedEvent(time_ms=at_ms + duration_ms, event=GrayRecovery(link_id=link))
            )
    return events


def byzantine_attack(
    attacker_as: int,
    claimed_origin: int,
    link_id: LinkID,
    at_ms: float,
    forgeries: int = 3,
    replays: int = 0,
    suppress: bool = False,
) -> List[TimedEvent]:
    """Generate one Byzantine AS's attack schedule.

    At ``at_ms`` the attacker floods ``forgeries`` forged revocations
    claiming ``claimed_origin``; when ``replays > 0`` it also re-floods
    that many cached revocations, and ``suppress=True`` additionally
    turns it into a forwarding suppressor from the same instant.
    """
    events: List[TimedEvent] = []
    if suppress:
        events.append(
            TimedEvent(
                time_ms=at_ms,
                event=ForwardingSuppression(as_ids=(attacker_as,)),
            )
        )
    if forgeries > 0:
        events.append(
            TimedEvent(
                time_ms=at_ms,
                event=RevocationForgery(
                    attacker_as=attacker_as,
                    claimed_origin=claimed_origin,
                    link_id=link_id,
                    count=forgeries,
                ),
            )
        )
    if replays > 0:
        events.append(
            TimedEvent(
                time_ms=at_ms,
                event=RevocationReplay(attacker_as=attacker_as, count=replays),
            )
        )
    if not events:
        raise ConfigurationError(
            "a Byzantine attack needs forgeries, replays or suppression"
        )
    return events


def growth_churn(
    topology: Topology,
    count: int,
    rng: random.Random,
    start_ms: float,
    spacing_ms: float,
    attach_degree: int = 2,
    latency_ms: float = 10.0,
    bandwidth_mbps: float = 1000.0,
) -> List[TimedEvent]:
    """Generate join churn that *grows* the topology with brand-new ASes.

    New AS identifiers continue past the current maximum; each newcomer
    attaches to ``attach_degree`` random existing ASes (seeded draw, so
    the schedule is reproducible).
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if attach_degree < 1:
        raise ConfigurationError(f"attach_degree must be >= 1, got {attach_degree}")
    pool = list(topology.as_ids())
    next_id = (max(pool) if pool else 0) + 1
    events: List[TimedEvent] = []
    for index in range(count):
        attach = tuple(rng.sample(pool, k=min(attach_degree, len(pool))))
        events.append(
            TimedEvent(
                time_ms=start_ms + index * spacing_ms,
                event=TopologyGrowth(
                    new_as=next_id + index,
                    attach_to=attach,
                    latency_ms=latency_ms,
                    bandwidth_mbps=bandwidth_mbps,
                ),
            )
        )
    return events

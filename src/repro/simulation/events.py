"""Typed scenario events and the dynamic-scenario timeline.

A static :class:`~repro.simulation.scenario.ScenarioConfig` describes one
fixed deployment; real inter-domain control planes are dominated by churn
and operator activity.  This module provides the vocabulary to script that
dynamism:

* **typed events** — link failure/recovery, AS leave/join (churn),
  beaconing-period changes, and the adversarial family (PR 7): flapping
  links with per-direction loss,
  silent gray failures, Byzantine revocation forgery/replay/forwarding
  suppression, and mid-run topology growth,
* a **timeline** of ``(time, event)`` pairs attached to a scenario and
  executed by the beaconing driver through its discrete-event scheduler
  (so an event scheduled mid-period really interrupts propagation), built
  with ``timeline.add(t, LinkFailure(link)).add(t2, LinkRecovery(link))``,
  and
* seeded random failure/churn generators for reproducible what-if
  experiments.

Each event class owns its fields, the checks its constructor runs, what
it requires of the timeline before it (:meth:`ScenarioEvent.check`)
and a stable one-line ``trace_label`` used by the golden-trace regression
tests: two runs of the same seeded scenario must produce bit-for-bit
identical traces.  Applying an event is the beaconing driver's job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.simulation.failures import LinkState
from repro.topology.entities import LinkID, normalize_link_id
from repro.topology.graph import Topology


def _format_link(link_id: LinkID) -> str:
    (as_a, if_a), (as_b, if_b) = link_id
    return f"{as_a}.{if_a}-{as_b}.{if_b}"


#: The links a grown AS attaches with (:class:`TopologyGrowth`).
GROWTH_LATENCY_MS = 10.0
GROWTH_BANDWIDTH_MBPS = 1000.0

#: The first sequence a forged revocation carries (:class:`RevocationForgery`).
FORGED_SEQUENCE_BASE = 1_000_000


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


def _scope(as_ids: Optional[Tuple[int, ...]]) -> str:
    return "all" if as_ids is None else ",".join(str(a) for a in as_ids)


@dataclass
class _Replay:
    """What :meth:`ScenarioTimeline.validate` knows at one point of its replay.

    ``links`` holds the failed links, offline ASes and gray-failed links,
    ``grown`` the ASes grown so far.  AS and link names are checked only
    when a topology is given.
    """

    topology: Optional[Topology]
    links: LinkState = field(default_factory=LinkState, init=False)
    grown: Set[int] = field(default_factory=set, init=False)

    def check_as(self, timed: "TimedEvent", role: str, *as_ids: int) -> None:
        """Reject an AS that is neither a member nor grown earlier."""
        if self.topology is None:
            return
        for as_id in as_ids:
            if as_id not in self.topology and as_id not in self.grown:
                raise ConfigurationError(
                    f"timeline event {timed.trace_label()!r} {role} "
                    f"unknown AS {as_id}"
                )

    def check_link(self, timed: "TimedEvent", link_id: LinkID) -> None:
        """Reject a link the topology does not have."""
        if self.topology is not None and link_id not in self.topology.links:
            raise ConfigurationError(
                f"timeline event {timed.trace_label()!r} targets "
                f"unknown link {_format_link(link_id)}"
            )


class ScenarioEvent:
    """Base class of all timed scenario events."""

    def trace_label(self) -> str:
        """Return the stable one-line representation used in traces."""
        raise NotImplementedError

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        """Reject this event if it would silently no-op at its time, then
        record its effect on ``replay``.

        ``timed`` is this event pinned to its time; ``replay`` is the
        timeline's state just before it.  Raises
        :class:`ConfigurationError`; the default requires nothing.
        """


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

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_link(timed, self.link_id)
        replay.links.fail_link(self.link_id)


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

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_link(timed, self.link_id)
        if replay.links.is_link_up(self.link_id):
            raise ConfigurationError(
                f"timeline event {timed.trace_label()!r} recovers a link "
                "that is not failed at that time — a recovery needs an "
                "earlier failure of the same link"
            )
        replay.links.restore_link(self.link_id)


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

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_as(timed, "targets", self.as_id)
        replay.links.set_as_offline(self.as_id)


@dataclass(frozen=True)
class ASJoin(ScenarioEvent):
    """A previously departed AS rejoins with its original links."""

    as_id: int

    def trace_label(self) -> str:
        return f"as_join {self.as_id}"

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_as(timed, "targets", self.as_id)
        if replay.links.is_as_up(self.as_id):
            raise ConfigurationError(
                f"timeline event {timed.trace_label()!r} rejoins an AS "
                "that is not offline at that time — a join needs an "
                "earlier leave of the same AS"
            )
        replay.links.set_as_online(self.as_id)


@dataclass(frozen=True)
class BeaconPeriodChange(ScenarioEvent):
    """Change the beaconing period for all *subsequent* periods.

    The period already in progress finishes at its scheduled end; overhead
    bins of the metrics collector keep the scenario's initial period length.
    """

    interval_ms: float

    def __post_init__(self) -> None:
        _check_finite("beaconing period", self.interval_ms)
        if self.interval_ms <= 0:
            raise ConfigurationError(
                f"beaconing period must be positive, got {self.interval_ms}"
            )

    def trace_label(self) -> str:
        return f"set_period {self.interval_ms:.3f}"


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

    While the flap is active (from the event time until the last toggle),
    the link additionally drops each
    delivered message with a per-direction probability: ``loss_ab`` for
    messages travelling from the normalised link id's first endpoint
    toward its second, ``loss_ba`` for the reverse direction.  Loss draws
    come from the transport's seeded RNG, so a seeded scenario stays
    fully reproducible.
    """

    link_id: LinkID
    schedule: Tuple[float, ...] = ()
    loss_ab: float = 0.0
    loss_ba: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))
        object.__setattr__(self, "schedule", tuple(float(t) for t in self.schedule))
        if not self.schedule:
            raise ConfigurationError("a LinkFlap needs a toggle schedule")
        previous = -1.0
        for offset in self.schedule:
            _check_finite("flap schedule offsets", offset)
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

    @property
    def ends_down(self) -> bool:
        """Return whether the schedule leaves the link failed."""
        return len(self.schedule) % 2 == 1

    def trace_label(self) -> str:
        return (
            f"flap_link {_format_link(self.link_id)} x{len(self.schedule)} "
            f"loss={self.loss_ab:.2f}/{self.loss_ba:.2f}"
        )

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_link(timed, self.link_id)
        # Net effect only: sub-toggle interleaving with other events is
        # not modelled here.
        if self.ends_down:
            replay.links.fail_link(self.link_id)
        else:
            replay.links.restore_link(self.link_id)


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

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_link(timed, self.link_id)
        replay.links.set_gray(self.link_id, self.drop_rate)


@dataclass(frozen=True)
class GrayRecovery(ScenarioEvent):
    """A gray-failed link silently stops dropping messages."""

    link_id: LinkID

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))

    def trace_label(self) -> str:
        return f"gray_recover {_format_link(self.link_id)}"

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_link(timed, self.link_id)
        if self.link_id not in replay.links.gray_links:
            raise ConfigurationError(
                f"timeline event {timed.trace_label()!r} clears a gray "
                "failure that is not active at that time — a gray "
                "recovery needs an earlier gray failure of the same link"
            )
        replay.links.clear_gray(self.link_id)


@dataclass(frozen=True)
class RevocationForgery(ScenarioEvent):
    """A Byzantine AS floods forged revocations claiming another origin.

    The attacker crafts :class:`~repro.core.messages.RevocationMessage`\\ s
    naming ``link_id`` as failed and ``claimed_origin`` as the origin, but
    can only sign them with *its own* key — with signature verification
    enabled every receiver rejects the forgery (``rejected_invalid``)
    without marking the key seen, so no path is ever withdrawn.  Forged
    sequences start at :data:`FORGED_SEQUENCE_BASE` (far above any honest
    sequence) so a forgery can never shadow a legitimate revocation in the
    dedup window.
    """

    attacker_as: int
    claimed_origin: int
    link_id: LinkID
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_id", normalize_link_id(*self.link_id))
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.attacker_as == self.claimed_origin:
            raise ConfigurationError(
                "a forgery claiming the attacker's own origin is just a lie "
                "it may tell — use a distinct claimed_origin"
            )

    def trace_label(self) -> str:
        return (
            f"forge_revocation {self.attacker_as} as-origin={self.claimed_origin} "
            f"link {_format_link(self.link_id)} x{self.count}"
        )

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_as(timed, "forges from", self.attacker_as)
        replay.check_as(timed, "claims origin of", self.claimed_origin)
        replay.check_link(timed, self.link_id)


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

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_as(timed, "replays from", self.attacker_as)


@dataclass(frozen=True)
class ForwardingSuppression(ScenarioEvent):
    """Byzantine ASes silently swallow revocation floods they should re-forward.

    The targeted control services keep *applying* revocations (the
    attacker stays plausible) but stop re-forwarding them, so ASes whose
    only flood paths cross a suppressor learn of failures late or never.
    """

    as_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "as_ids", tuple(int(a) for a in self.as_ids))
        if not self.as_ids:
            raise ConfigurationError("ForwardingSuppression needs at least one AS")

    def trace_label(self) -> str:
        return f"suppress_forwarding on @ {_scope(self.as_ids)}"

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        replay.check_as(timed, "suppresses at", *self.as_ids)


@dataclass(frozen=True)
class TopologyGrowth(ScenarioEvent):
    """A brand-new AS joins mid-run, attaching to existing ASes (join churn).

    Unlike :class:`ASJoin` (which revives a departed member), this grows
    the topology: a fresh AS with one interface per attachment point is
    created at (0, 0), customer-provider links of :data:`GROWTH_LATENCY_MS`
    and :data:`GROWTH_BANDWIDTH_MBPS` to each ``attach_to`` AS are added
    (the new AS is the customer), a control service is built and
    registered on the fabric, and the newcomer starts originating in the
    next beaconing period.
    """

    new_as: int
    attach_to: Tuple[int, ...]

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

    def trace_label(self) -> str:
        return f"grow_as {self.new_as} attach={_scope(self.attach_to)}"

    def check(self, timed: "TimedEvent", replay: _Replay) -> None:
        if (replay.topology is not None and self.new_as in replay.topology) or (
            self.new_as in replay.grown
        ):
            raise ConfigurationError(
                f"timeline event {timed.trace_label()!r} grows an AS "
                f"that already exists — growth must introduce a new AS"
            )
        replay.check_as(timed, "attaches to", *self.attach_to)
        replay.grown.add(self.new_as)


@dataclass(frozen=True)
class TimedEvent:
    """One scenario event pinned to an absolute simulated time."""

    time_ms: float
    event: ScenarioEvent

    def __post_init__(self) -> None:
        _check_finite("event time", self.time_ms)
        if self.time_ms < 0:
            raise ConfigurationError(f"event time must be non-negative, got {self.time_ms}")

    def trace_label(self) -> str:
        """Return the stable trace line of this timed event."""
        return f"{self.time_ms:.3f} {self.event.trace_label()}"


@dataclass
class ScenarioTimeline:
    """An ordered collection of timed events.

    Events are kept in insertion order; the beaconing driver schedules them
    on its discrete-event scheduler, which orders them by time with FIFO
    tie-breaking — so same-time events apply in the order they were added.

    Example::

        timeline = ScenarioTimeline()
        timeline.add(minutes(15), LinkFailure(link)).add(minutes(35), LinkRecovery(link))
    """

    _events: List[TimedEvent] = field(default_factory=list)

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

    def validate(self, topology: Optional[Topology] = None) -> None:
        """Reject schedules that would silently no-op when executed.

        Replays the timeline in execution order (time, then insertion
        order — exactly how the scheduler fires it) and lets every event
        :meth:`~ScenarioEvent.check` itself against the state before it:
        a recovery needs an earlier failure of the same link, a join an
        earlier leave, a gray recovery an earlier gray failure, and growth
        a genuinely new AS.  When ``topology`` is given, every AS an event
        names must be a member AS or one grown earlier in the timeline,
        and every link it names must be a topology link.  Malformed field
        values are rejected even earlier, at event construction.

        The beaconing driver calls this (with its topology) before
        scheduling the timeline; call it directly to check a hand-built
        timeline early.  Raises :class:`ConfigurationError`.
        """
        replay = _Replay(topology)
        for timed in sorted(self._events, key=lambda timed: timed.time_ms):
            timed.event.check(timed, replay)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)


# ----------------------------------------------------------------------
# seeded random event generators
# ----------------------------------------------------------------------
def _draw_links(topology: Topology, count: int, rng: random.Random) -> List[LinkID]:
    """Draw ``count`` distinct links of ``topology``; a seeded ``rng`` makes
    the draw reproducible."""
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    pool = list(topology.link_ids())
    return rng.sample(pool, k=min(count, len(pool)))


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
) -> List[TimedEvent]:
    """Generate seeded link flaps: random links toggle down/up repeatedly.

    Each chosen link flaps ``cycles`` times; phase lengths are drawn
    uniformly from ``[0.5, 1.5] ×`` the respective mean, so a seeded
    ``rng`` makes the whole schedule reproducible.  Every schedule has an
    even number of toggles — the link always ends up.  ``loss_rate`` is
    applied symmetrically in both directions while the flap is active.
    """
    if cycles < 1:
        raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
    events: List[TimedEvent] = []
    for link in _draw_links(topology, count, rng):
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
) -> List[TimedEvent]:
    """Generate silent gray failures of random links (plus optional recovery).

    No revocation ever originates for these links; the control plane
    stays blind and only end-host delivery quality degrades.
    """
    events: List[TimedEvent] = []
    for link in _draw_links(topology, count, rng):
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
                event=TopologyGrowth(new_as=next_id + index, attach_to=attach),
            )
        )
    return events

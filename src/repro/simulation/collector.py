"""Measurement collection for the large-scale simulations.

:class:`MetricsCollector` is the run's one message ledger.  Every
control-plane transmission is counted under its message kind — the string
the fabric already dispatches on — and PCBs additionally per sending
interface and beaconing period: the raw material of Figure 8c ("PCBs per
interface per period") and of the message-complexity discussion in
§VIII-C.  Beside the per-kind ``sent`` / ``dropped`` counters it keeps the
silent-loss (gray failure), overload (bounded inboxes) and revocation
aggregation ledgers.

Dynamic scenarios additionally record — through the
:class:`ConvergenceCollector` — per-event disruption records: paths lost,
paths regained, time-to-recovery and the control-message overhead spent
converging.
"""

from __future__ import annotations

import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError, SimulationError
from repro.topology.entities import InterfaceID

#: The ``ControlMessage.kind`` strings of :mod:`repro.core.messages`: the
#: keys of the per-kind ledgers.  A message type that is not listed here
#: has no ledger, and recording it raises.
MESSAGE_KINDS = (
    "pcb",
    "revocation",
    "path_registration",
    "pull_return",
    "path_query",
    "path_query_response",
)


class QuantileReservoir:
    """Bounded uniform sample of a value stream with exact count/sum/max.

    Algorithm R reservoir sampling over a fixed-capacity buffer: every
    observation is included with probability ``capacity / count``, so the
    retained sample stays uniform over the whole stream while memory is
    bounded (one entry per serviced message would leak on long overloaded
    runs).  The replacement RNG is a private ``random.Random(seed)``,
    keeping runs deterministic and the global RNG (which simulations may
    seed) untouched.

    Count, sum (hence mean) and max are tracked exactly; quantiles are
    estimated from the sample — exact until the stream outgrows
    ``capacity``, then a uniform-sample estimate.
    """

    __slots__ = ("capacity", "count", "total", "max_value", "_sample", "_rng")

    def __init__(self, capacity: int = 4096, seed: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._sample: List[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Fold one observation into the reservoir."""
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        sample = self._sample
        if len(sample) < self.capacity:
            sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                sample[slot] = value

    @property
    def sample_size(self) -> int:
        """Return how many observations the reservoir currently retains."""
        return len(self._sample)

    def merge_from(self, other: "QuantileReservoir") -> None:
        """Fold another reservoir into this one (sharded-run aggregation).

        Count, sum and max stay exact.  The merged sample concatenates
        both samples up to capacity (deterministically, no RNG draw) —
        exact while the combined stream fits, an approximation beyond,
        which matches the reservoir's own guarantee.
        """
        self.count += other.count
        self.total += other.total
        if other.max_value > self.max_value:
            self.max_value = other.max_value
        room = self.capacity - len(self._sample)
        if room > 0:
            self._sample.extend(other._sample[:room])

    def stats(self) -> Dict[str, float]:
        """Return ``{count, mean, max, p50, p99}`` of the stream.

        Percentiles use the index convention ``sorted[min(n-1, int(q*n))]``.
        """
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        ordered = sorted(self._sample)
        size = len(ordered)
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "max": self.max_value,
            "p50": ordered[min(size - 1, int(0.50 * size))],
            "p99": ordered[min(size - 1, int(0.99 * size))],
        }


def _ledger(zero, combine=operator.add):
    """Declare one ledger: ``zero()`` is its empty value, ``combine`` folds
    two shards' readings (per key for a dict; a reservoir merges itself).
    :meth:`MetricsCollector.merge` and :meth:`MetricsCollector.reset` walk
    the fields declared this way, so a new ledger is merged and reset by
    being declared."""
    return field(default_factory=zero, metadata={"combine": combine})


def _per_kind() -> Dict[str, int]:
    return dict.fromkeys(MESSAGE_KINDS, 0)


def _tally() -> Dict:
    return defaultdict(int)


def _kind_total(ledger: str, kind: str, doc: str) -> property:
    return property(lambda self: getattr(self, ledger)[kind], doc=doc)


@dataclass
class MetricsCollector:
    """The message ledger of one run, keyed by message kind.

    Attributes:
        period_ms: Length of one beaconing period; per-period bins are
            ``floor(time / period_ms)``.
        sent: Transmissions per message kind (pull returns included).  The
            kinds are disjoint, so :meth:`control_messages_total` — their
            sum — counts every message exactly once.
        dropped: Messages lost on an unavailable link, at send time or in
            flight, per kind.
        gray_dropped: Messages silently swallowed by a degraded link (gray
            failure, flap loss), per kind — disjoint from ``dropped``, so
            a gray failure never perturbs the loud-failure accounting.
        inbox_dropped: Messages tail-dropped by a full bounded inbox.
        inbox_marked: Messages congestion-marked instead of dropped.
        inbox_deferred: Messages serviced later than their arrival tick.
        revocation_batches: Aggregated revocation originations (the driver
            batches the simultaneous failures one origin detects into one
            multi-element ``RevocationMessage``), with their total and
            largest element counts and how many carried more than one.
    """

    period_ms: float = 600_000.0
    sent: Dict[str, int] = _ledger(_per_kind)
    dropped: Dict[str, int] = _ledger(_per_kind)
    _counts: Dict[Tuple[InterfaceID, int], int] = _ledger(_tally)
    _revocations: Dict[int, int] = _ledger(_tally)
    _fetches: int = _ledger(int)
    gray_dropped: Dict[str, int] = _ledger(_tally)
    inbox_dropped: Dict[str, int] = _ledger(_tally)
    inbox_marked: Dict[str, int] = _ledger(_tally)
    inbox_deferred: Dict[str, int] = _ledger(_tally)
    _queue_high_water: Dict[int, int] = _ledger(dict, max)
    _queue_delays: QuantileReservoir = _ledger(QuantileReservoir)
    revocation_batches: int = _ledger(int)
    revocation_batch_elements: int = _ledger(int)
    revocation_batch_max: int = _ledger(int, max)
    revocation_multi_batches: int = _ledger(int)

    total_sent = _kind_total("sent", "pcb", "PCB transmissions.")
    total_dropped = _kind_total("dropped", "pcb", "PCBs lost on unavailable links.")
    total_revocations = _kind_total("sent", "revocation", "Revocation transmissions.")
    revocations_dropped = _kind_total("dropped", "revocation", "Revocations lost in flight.")
    total_registrations = _kind_total(
        "sent", "path_registration", "Path-registration transmissions."
    )

    def record(self, kind: str, sender_as: int, interface_id: int, time_ms: float) -> None:
        """Record one transmission of a ``kind`` message.

        Raises:
            SimulationError: If ``kind`` has no ledger — silently
                mis-binning it would corrupt the overhead accounting
                (Figure 8c) without any error.
        """
        try:
            self.sent[kind] += 1
        except KeyError:
            raise SimulationError(
                f"message kind {kind!r} has no ledger; add it to MESSAGE_KINDS"
            ) from None
        if kind == "pcb":
            self._counts[((sender_as, interface_id), int(time_ms // self.period_ms))] += 1
        elif kind == "revocation":
            self._revocations[int(time_ms // self.period_ms)] += 1

    def record_drop(self, kind: str) -> None:
        """Record one ``kind`` message lost on an unavailable link."""
        self.dropped[kind] += 1

    def record_algorithm_fetch(self) -> None:
        """Record one remote algorithm payload fetch."""
        self._fetches += 1

    def record_gray_drop(self, kind: str) -> None:
        """Record one message silently swallowed by a degraded link."""
        self.gray_dropped[kind] += 1

    def record_inbox_drop(self, kind: str) -> None:
        """Record one message tail-dropped by a full bounded inbox."""
        self.inbox_dropped[kind] += 1

    def record_inbox_mark(self, kind: str) -> None:
        """Record one message congestion-marked instead of dropped."""
        self.inbox_marked[kind] += 1

    def record_inbox_deferral(self, kind: str) -> None:
        """Record one message serviced later than the tick it arrived on."""
        self.inbox_deferred[kind] += 1

    def record_queue_depth(self, as_id: int, depth: int) -> None:
        """Track the per-AS inbox queue-depth high-water mark."""
        if depth > self._queue_high_water.get(as_id, 0):
            self._queue_high_water[as_id] = depth

    def record_queue_delay(self, delay_ms: float) -> None:
        """Record one serviced message's queueing delay."""
        self._queue_delays.observe(delay_ms)

    def record_revocation_batch(self, elements: int) -> None:
        """Record one aggregated revocation origination of ``elements`` failures."""
        self.revocation_batches += 1
        self.revocation_batch_elements += elements
        if elements > self.revocation_batch_max:
            self.revocation_batch_max = elements
        if elements > 1:
            self.revocation_multi_batches += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pcbs_per_interface_per_period(self) -> List[int]:
        """Return the flat list of per-(interface, period) PCB counts.

        Interfaces that sent nothing during a period do not contribute an
        entry, matching how the paper reports the distribution (the x axis
        starts at one PCB).
        """
        return sorted(self._counts.values())

    def count_for(self, interface: InterfaceID, period: int) -> int:
        """Return the transmissions of ``interface`` during ``period``."""
        return self._counts.get((interface, period), 0)

    def per_interface_totals(self) -> Dict[InterfaceID, int]:
        """Return total transmissions per interface across all periods."""
        totals: Dict[InterfaceID, int] = defaultdict(int)
        for (interface, _period), count in self._counts.items():
            totals[interface] += count
        return dict(totals)

    def periods_observed(self) -> int:
        """Return the number of distinct periods with at least one send."""
        return len({period for (_interface, period) in self._counts})

    def returned_beacons(self) -> int:
        """Return the total number of pull-based returns recorded."""
        return self.sent["pull_return"]

    def algorithm_fetches(self) -> int:
        """Return the total number of remote payload fetches recorded."""
        return self._fetches

    def revocations_in_period(self, period: int) -> int:
        """Return the revocation messages sent during ``period``."""
        return self._revocations.get(period, 0)

    def control_messages_total(self) -> int:
        """Return every control-plane message sent so far, all kinds.

        Sends later dropped in flight count too; the convergence collector
        snapshots this to attribute overhead to individual events.
        """
        return sum(self.sent.values())

    def gray_dropped_total(self) -> int:
        """Return every message silently lost to degraded links so far."""
        return sum(self.gray_dropped.values())

    def inbox_dropped_total(self) -> int:
        """Return messages tail-dropped by bounded inboxes, all kinds."""
        return sum(self.inbox_dropped.values())

    def inbox_marked_total(self) -> int:
        """Return messages congestion-marked by bounded inboxes, all kinds."""
        return sum(self.inbox_marked.values())

    def inbox_deferred_total(self) -> int:
        """Return messages serviced after their arrival tick, all kinds."""
        return sum(self.inbox_deferred.values())

    def queue_high_water(self, as_id: int) -> int:
        """Return the deepest inbox queue observed at ``as_id``."""
        return self._queue_high_water.get(as_id, 0)

    def queue_high_water_marks(self) -> Dict[int, int]:
        """Return the per-AS inbox queue-depth high-water marks."""
        return dict(self._queue_high_water)

    def queue_delay_stats(self) -> Dict[str, float]:
        """Return count/mean/max/p50/p99 of recorded queueing delays (ms).

        Count, mean and max are exact over the whole stream; the
        percentiles are exact until the stream outgrows the bounded
        reservoir, then a uniform-sample estimate.
        """
        return self._queue_delays.stats()

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's ledgers into this one.

        The sharded coordinator aggregates per-worker collectors with
        this: every message is recorded by exactly one shard (sends by
        the sender's, deliveries/drops by the receiver's), so combining
        the disjoint ledgers reproduces the single-process totals.
        Counts add, high-water marks take the max, queue-delay quantiles
        merge through the reservoir (exact count/mean/max, sampled
        percentiles).
        """
        for ledger in fields(self):
            if "combine" not in ledger.metadata:
                continue
            combine = ledger.metadata["combine"]
            mine, theirs = getattr(self, ledger.name), getattr(other, ledger.name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = combine(mine.get(key, 0), value)
            elif isinstance(mine, QuantileReservoir):
                mine.merge_from(theirs)
            else:
                setattr(self, ledger.name, combine(mine, theirs))

    def reset(self) -> None:
        """Empty every ledger (``period_ms`` is configuration and stays)."""
        for ledger in fields(self):
            if "combine" in ledger.metadata:
                setattr(self, ledger.name, ledger.default_factory())


@dataclass
class DisruptionRecord:
    """One watched pair's disruption caused by one dynamic event.

    Attributes:
        event_label: Stable trace label of the causing timed event.
        event_time_ms: When the event fired.
        source_as: Watched source (where registered paths are probed).
        destination_as: Watched destination (the paths' origin AS).
        paths_before: Usable registered paths immediately before the event.
        paths_after: Usable registered paths immediately after the event.
        messages_at_event: Control-message snapshot when the event fired.
        recovered_at_ms: Period-end time at which the pair was observed
            recovered (usable paths back to at least ``paths_before``), or
            ``None`` while still disrupted.
        paths_at_recovery: Usable paths at the recovery observation.
        messages_at_recovery: Control-message snapshot at recovery.
    """

    event_label: str
    event_time_ms: float
    source_as: int
    destination_as: int
    paths_before: int
    paths_after: int
    messages_at_event: int
    recovered_at_ms: Optional[float] = None
    paths_at_recovery: int = 0
    messages_at_recovery: Optional[int] = None

    @property
    def pair(self) -> Tuple[int, int]:
        """Return the watched (source, destination) pair."""
        return (self.source_as, self.destination_as)

    @property
    def paths_lost(self) -> int:
        """Return how many usable paths the event destroyed."""
        return self.paths_before - self.paths_after

    @property
    def paths_regained(self) -> int:
        """Return how many usable paths reappeared by the recovery probe."""
        if self.recovered_at_ms is None:
            return 0
        return self.paths_at_recovery - self.paths_after

    @property
    def recovered(self) -> bool:
        """Return whether the disruption has healed."""
        return self.recovered_at_ms is not None

    @property
    def time_to_recovery_ms(self) -> Optional[float]:
        """Return the observed recovery latency, or ``None`` if still down."""
        if self.recovered_at_ms is None:
            return None
        return self.recovered_at_ms - self.event_time_ms

    @property
    def control_message_overhead(self) -> Optional[int]:
        """Return control messages sent network-wide during the disruption."""
        if self.messages_at_recovery is None:
            return None
        return self.messages_at_recovery - self.messages_at_event

    def trace_label(self) -> str:
        """Return the stable one-line trace representation of the record."""
        recovered = (
            f"{self.recovered_at_ms:.3f}" if self.recovered_at_ms is not None else "-"
        )
        return (
            f"disruption ({self.source_as},{self.destination_as})"
            f" by [{self.event_time_ms:.3f} {self.event_label}]"
            f" lost={self.paths_lost} regained={self.paths_regained}"
            f" recovered_at={recovered}"
        )


@dataclass
class ConvergenceCollector:
    """Tracks how watched AS pairs recover from dynamic events.

    The beaconing driver feeds it from two places: when a timeline event
    fires (with per-pair usable-path counts before and after applying it)
    and at every period end (with the current usable-path counts).  A
    disruption opens when an event destroys at least one usable path of a
    watched pair and closes at the first period-end probe at which the pair
    has recovered its pre-event path count; the time in between is the
    pair's time-to-recovery for that event.

    Every observation also appends one line to :attr:`trace`, giving a
    deterministic event/convergence log that the golden-trace regression
    test digests.
    """

    records: List[DisruptionRecord] = field(default_factory=list)
    trace: List[str] = field(default_factory=list)
    _open: Dict[Tuple[int, int], DisruptionRecord] = field(default_factory=dict)

    def on_event(
        self,
        event_label: str,
        now_ms: float,
        pair_paths: Dict[Tuple[int, int], Tuple[int, int]],
        messages_total: int,
    ) -> None:
        """Record an applied event and open disruptions it caused.

        Args:
            event_label: The event's stable trace label.
            now_ms: Time the event fired.
            pair_paths: Per watched pair, (usable paths before, after);
                may hold only the pairs the event changed — only a drop
                (``after < before``) is acted on.
            messages_total: Control-message counter snapshot.
        """
        self.trace.append(f"{now_ms:.3f} event {event_label}")
        for (source_as, destination_as), (before, after) in sorted(pair_paths.items()):
            pair = (source_as, destination_as)
            if after >= before:
                continue
            open_record = self._open.get(pair)
            if open_record is None:
                record = DisruptionRecord(
                    event_label=event_label,
                    event_time_ms=now_ms,
                    source_as=source_as,
                    destination_as=destination_as,
                    paths_before=before,
                    paths_after=after,
                    messages_at_event=messages_total,
                )
                self._open[pair] = record
                self.records.append(record)
                self.trace.append(
                    f"{now_ms:.3f} disrupt ({source_as},{destination_as}) "
                    f"{before}->{after}"
                )
            else:
                # A further event disrupted an already-open record (possibly
                # after partial recovery): the record keeps its original
                # event and paths_before (recovery is still measured against
                # the pre-outage state), the low-water mark only deepens,
                # and the trace always shows the hit.
                open_record.paths_after = min(open_record.paths_after, after)
                self.trace.append(
                    f"{now_ms:.3f} deepen ({source_as},{destination_as}) "
                    f"{before}->{after}"
                )

    def on_period_end(
        self,
        now_ms: float,
        pair_paths: Dict[Tuple[int, int], int],
        messages_total: int,
        pair_registered_at: Optional[Dict[Tuple[int, int], Tuple[float, ...]]] = None,
    ) -> None:
        """Probe watched pairs at a period boundary and close healed records.

        Args:
            now_ms: Probe time (a period boundary).
            pair_paths: Current usable-path count per watched pair.
            messages_total: Control-message counter snapshot.
            pair_registered_at: Optional per-pair first-registration times
                of the currently usable paths.  A closing record is dated
                at the newest registration instead of the probe —
                sub-period recovery detection — but only when enough
                registrations post-date the event to account for every
                path the disruption took (otherwise part of the recovery
                happened silently, e.g. a link recovery re-validating a
                still-registered path, and only the probe bounds it).
        """
        for (source_as, destination_as), usable in sorted(pair_paths.items()):
            pair = (source_as, destination_as)
            self.trace.append(
                f"{now_ms:.3f} probe ({source_as},{destination_as}) paths={usable}"
            )
            record = self._open.get(pair)
            if record is not None and usable >= record.paths_before:
                recovered_at = now_ms
                if pair_registered_at is not None:
                    fresh = [
                        registered_at
                        for registered_at in pair_registered_at.get(pair, ())
                        if record.event_time_ms < registered_at < now_ms
                    ]
                    if fresh and len(fresh) >= record.paths_lost:
                        recovered_at = max(fresh)
                record.recovered_at_ms = recovered_at
                record.paths_at_recovery = usable
                record.messages_at_recovery = messages_total
                del self._open[pair]
                self.trace.append(
                    f"{recovered_at:.3f} recover ({source_as},{destination_as}) "
                    f"paths={usable} ttr={record.time_to_recovery_ms:.3f}"
                )

    def on_overload(
        self, now_ms: float, dropped: int, marked: int, deferred: int
    ) -> None:
        """Record one period's inbox-overload deltas in the trace.

        The driver calls this at a period end only when at least one delta
        is nonzero, so unlimited runs (the PR-5 default) never emit these
        lines and the golden trace is unchanged.
        """
        self.trace.append(
            f"{now_ms:.3f} overload dropped={dropped} marked={marked} "
            f"deferred={deferred}"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current_outage_ms(self, source_as: int, destination_as: int, now_ms: float) -> float:
        """Return how long the pair has been disrupted, or 0.0 if healthy."""
        record = self._open.get((source_as, destination_as))
        if record is None:
            return 0.0
        return now_ms - record.event_time_ms

    def open_disruptions(self) -> List[DisruptionRecord]:
        """Return the disruptions that have not recovered yet."""
        return [record for record in self.records if not record.recovered]

    def recovered_records(self) -> List[DisruptionRecord]:
        """Return the disruptions that have healed, in open order."""
        return [record for record in self.records if record.recovered]

    def trace_text(self) -> str:
        """Return the full deterministic trace as one newline-joined string."""
        return "\n".join(self.trace)

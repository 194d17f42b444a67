"""Measurement collection for the large-scale simulations.

The collector records every control-plane transmission: which AS sent a PCB
over which interface during which beaconing period.  Those counts are the
raw material of Figure 8c ("PCBs per interface per period") and of the
general message-complexity discussion in §VIII-C.

Dynamic scenarios additionally record dropped transmissions (PCBs lost on
failed links), revocation notifications, and — through the
:class:`ConvergenceCollector` — per-event disruption records: paths lost,
paths regained, time-to-recovery and the control-message overhead spent
converging.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import QuantileReservoir
from repro.topology.entities import InterfaceID


@dataclass
class MetricsCollector:
    """Per-interface, per-period transmission counters.

    Attributes:
        period_ms: Length of one beaconing period; transmissions are binned
            by ``floor(time / period_ms)``.
    """

    period_ms: float = 600_000.0
    _counts: Dict[Tuple[InterfaceID, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    _returned: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _revocations: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _registrations: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _queries: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _query_responses: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    _fetches: int = 0
    total_sent: int = 0
    total_dropped: int = 0
    total_revocations: int = 0
    revocations_dropped: int = 0
    total_registrations: int = 0
    registrations_dropped: int = 0
    total_queries: int = 0
    total_query_responses: int = 0
    queries_dropped: int = 0
    gray_dropped: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inbox_dropped: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inbox_marked: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inbox_deferred: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _queue_high_water: Dict[int, int] = field(default_factory=dict)
    # Bounded reservoir sample (was an unbounded List[float] — one entry
    # per serviced message leaked memory on long overloaded runs).  Count,
    # mean and max stay exact; p50/p99 come from the uniform sample, which
    # is the full stream until it outgrows the reservoir capacity.
    _queue_delays: QuantileReservoir = field(default_factory=QuantileReservoir)
    revocation_batches: int = 0
    revocation_batch_elements: int = 0
    revocation_batch_max: int = 0
    revocation_multi_batches: int = 0

    def record_send(self, sender_as: int, interface_id: int, time_ms: float) -> None:
        """Record one PCB transmission."""
        period = int(time_ms // self.period_ms)
        self._counts[((sender_as, interface_id), period)] += 1
        self.total_sent += 1

    def record_return(self, sender_as: int, time_ms: float) -> None:
        """Record one pull-based beacon returned to its origin."""
        period = int(time_ms // self.period_ms)
        self._returned[period] += 1

    def record_algorithm_fetch(self) -> None:
        """Record one remote algorithm payload fetch."""
        self._fetches += 1

    def record_drop(self, time_ms: float) -> None:
        """Record one PCB lost on an unavailable link (dynamic scenarios)."""
        self.total_dropped += 1

    def record_revocation(self, sender_as: int, interface_id: int, time_ms: float) -> None:
        """Record one hop-by-hop revocation message transmission.

        Revocations are real transported messages since PR 4; each
        transmission is recorded here — and *only* here, never through
        :meth:`record_send` — so :meth:`control_messages_total` counts every
        revocation exactly once.
        """
        period = int(time_ms // self.period_ms)
        self._revocations[period] += 1
        self.total_revocations += 1

    def record_revocation_drop(self, time_ms: float) -> None:
        """Record one revocation lost on an unavailable link in flight."""
        self.revocations_dropped += 1

    def record_registration(self, sender_as: int, interface_id: int, time_ms: float) -> None:
        """Record one path-registration message transmission.

        Like revocations, registrations are counted disjointly from PCB
        sends so :meth:`control_messages_total` counts each message of the
        unified fabric exactly once.
        """
        period = int(time_ms // self.period_ms)
        self._registrations[period] += 1
        self.total_registrations += 1

    def record_registration_drop(self, time_ms: float) -> None:
        """Record one path-registration message lost on an unavailable link."""
        self.registrations_dropped += 1

    def record_query(self, sender_as: int, interface_id: int, time_ms: float) -> None:
        """Record one path-query message transmission (disjoint per-kind)."""
        period = int(time_ms // self.period_ms)
        self._queries[period] += 1
        self.total_queries += 1

    def record_query_response(
        self, sender_as: int, interface_id: int, time_ms: float
    ) -> None:
        """Record one path-query-response message transmission."""
        period = int(time_ms // self.period_ms)
        self._query_responses[period] += 1
        self.total_query_responses += 1

    def record_query_drop(self, time_ms: float) -> None:
        """Record one query or response lost on an unavailable link."""
        self.queries_dropped += 1

    def record_gray_drop(self, kind: str, time_ms: float) -> None:
        """Record one message silently swallowed by a degraded link (PR 7).

        Gray-failure and flap-loss drops are counted per message kind,
        *disjoint* from the hard-failure drop counters: a gray failure
        must not perturb the loud-failure accounting (and a clean run's
        golden trace), only this dedicated ledger.
        """
        self.gray_dropped[kind] += 1

    def gray_dropped_total(self) -> int:
        """Return every message silently lost to degraded links so far."""
        return sum(self.gray_dropped.values())

    # ------------------------------------------------------------------
    # overload accounting (bounded, rate-limited inboxes — PR 6)
    # ------------------------------------------------------------------
    def record_inbox_drop(self, as_id: int, kind: str, time_ms: float) -> None:
        """Record one message tail-dropped by a full bounded inbox."""
        self.inbox_dropped[kind] += 1

    def record_inbox_mark(self, as_id: int, kind: str, time_ms: float) -> None:
        """Record one message congestion-marked instead of dropped."""
        self.inbox_marked[kind] += 1

    def record_inbox_deferral(self, as_id: int, kind: str, time_ms: float) -> None:
        """Record one message serviced later than the tick it arrived on."""
        self.inbox_deferred[kind] += 1

    def record_queue_depth(self, as_id: int, depth: int) -> None:
        """Track the per-AS inbox queue-depth high-water mark."""
        if depth > self._queue_high_water.get(as_id, 0):
            self._queue_high_water[as_id] = depth

    def record_queue_delay(self, as_id: int, delay_ms: float) -> None:
        """Record one serviced message's queueing delay."""
        self._queue_delays.observe(delay_ms)

    def record_revocation_batch(self, elements: int) -> None:
        """Record one aggregated revocation origination of ``elements`` failures.

        The beaconing driver batches every simultaneous failure an origin
        detects in one scheduler tick into a single multi-element
        ``RevocationMessage``; these counters expose how much that
        aggregation saves (a storm of N failures costs each origin one
        flood, not N).
        """
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
        return sum(self._returned.values())

    def algorithm_fetches(self) -> int:
        """Return the total number of remote payload fetches recorded."""
        return self._fetches

    def revocations_in_period(self, period: int) -> int:
        """Return the revocation messages sent during ``period``."""
        return self._revocations.get(period, 0)

    def control_messages_total(self) -> int:
        """Return every control-plane message sent so far.

        Sends (including ones later dropped in flight), pull returns,
        revocation messages, path registrations and path queries (with
        their responses) all count.  Each typed message's transmission is
        recorded once (the per-kind recorders are disjoint), so no message
        is double-counted; the convergence collector snapshots this to
        attribute overhead to individual events.
        """
        return (
            self.total_sent
            + self.returned_beacons()
            + self.total_revocations
            + self.total_registrations
            + self.total_queries
            + self.total_query_responses
        )

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
        reservoir, then a uniform-sample estimate (same index convention
        as before, so short runs are bit-identical to the unbounded
        implementation this replaced).
        """
        return self._queue_delays.stats()

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counters into this one.

        The sharded coordinator aggregates per-worker collectors with
        this: every message is recorded by exactly one shard (sends by
        the sender's, deliveries/drops by the receiver's), so summing the
        disjoint ledgers reproduces the single-process totals.  High-water
        marks take the max per AS; queue-delay quantiles merge through
        the reservoir (exact count/mean/max, sampled percentiles).
        """
        for key, value in other._counts.items():
            self._counts[key] += value
        for mine, theirs in (
            (self._returned, other._returned),
            (self._revocations, other._revocations),
            (self._registrations, other._registrations),
            (self._queries, other._queries),
            (self._query_responses, other._query_responses),
        ):
            for period, value in theirs.items():
                mine[period] += value
        self._fetches += other._fetches
        self.total_sent += other.total_sent
        self.total_dropped += other.total_dropped
        self.total_revocations += other.total_revocations
        self.revocations_dropped += other.revocations_dropped
        self.total_registrations += other.total_registrations
        self.registrations_dropped += other.registrations_dropped
        self.total_queries += other.total_queries
        self.total_query_responses += other.total_query_responses
        self.queries_dropped += other.queries_dropped
        for mine, theirs in (
            (self.gray_dropped, other.gray_dropped),
            (self.inbox_dropped, other.inbox_dropped),
            (self.inbox_marked, other.inbox_marked),
            (self.inbox_deferred, other.inbox_deferred),
        ):
            for kind, value in theirs.items():
                mine[kind] += value
        for as_id, depth in other._queue_high_water.items():
            if depth > self._queue_high_water.get(as_id, 0):
                self._queue_high_water[as_id] = depth
        self._queue_delays.merge_from(other._queue_delays)
        self.revocation_batches += other.revocation_batches
        self.revocation_batch_elements += other.revocation_batch_elements
        if other.revocation_batch_max > self.revocation_batch_max:
            self.revocation_batch_max = other.revocation_batch_max
        self.revocation_multi_batches += other.revocation_multi_batches

    def reset(self) -> None:
        """Zero all counters."""
        self._counts.clear()
        self._returned.clear()
        self._revocations.clear()
        self._registrations.clear()
        self._queries.clear()
        self._query_responses.clear()
        self._fetches = 0
        self.total_sent = 0
        self.total_dropped = 0
        self.total_revocations = 0
        self.revocations_dropped = 0
        self.total_registrations = 0
        self.registrations_dropped = 0
        self.total_queries = 0
        self.total_query_responses = 0
        self.queries_dropped = 0
        self.gray_dropped.clear()
        self.inbox_dropped.clear()
        self.inbox_marked.clear()
        self.inbox_deferred.clear()
        self._queue_high_water.clear()
        self._queue_delays.clear()
        self.revocation_batches = 0
        self.revocation_batch_elements = 0
        self.revocation_batch_max = 0
        self.revocation_multi_batches = 0


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

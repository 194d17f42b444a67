"""Measurement collection for the large-scale simulations.

:class:`MetricsCollector` is the run's one message ledger.  Every
control-plane transmission is counted under its message kind — the string
the fabric already dispatches on — and PCBs additionally per sending
interface and beaconing period: the raw material of Figure 8c ("PCBs per
interface per period") and of the message-complexity discussion in
§VIII-C.  Beside the per-kind ``sent`` / ``dropped`` counters it keeps the
silent-loss (gray failure) and revocation aggregation ledgers.

Dynamic scenarios additionally record — through the
:class:`ConvergenceCollector` — per-event disruption records: paths lost,
paths regained, time-to-recovery and the control-message overhead spent
converging.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.topology.entities import InterfaceID

#: The ``ControlMessage.kind`` strings of :mod:`repro.core.messages` plus
#: ``"pull_return"`` (a returned pull beacon, delivered over its own path
#: without a message type): the keys of the per-kind ledgers.  A kind that
#: is not listed here has no ledger, and recording it raises.
MESSAGE_KINDS = (
    "pcb",
    "revocation",
    "path_registration",
    "pull_return",
)


def _no_ledger(kind: str) -> SimulationError:
    return SimulationError(f"message kind {kind!r} has no ledger; add it to MESSAGE_KINDS")


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
        revocation_batches: Aggregated revocation originations (the driver
            batches the simultaneous failures one origin detects into one
            multi-element ``RevocationMessage``), with their total and
            largest element counts and how many carried more than one.
    """

    period_ms: float = 600_000.0
    sent: Dict[str, int] = field(default_factory=_per_kind, init=False)
    dropped: Dict[str, int] = field(default_factory=_per_kind, init=False)
    _counts: Dict[Tuple[InterfaceID, int], int] = field(default_factory=_tally, init=False)
    _fetches: int = field(default_factory=int, init=False)
    gray_dropped: Dict[str, int] = field(default_factory=_tally, init=False)
    revocation_batches: int = field(default_factory=int, init=False)
    revocation_batch_elements: int = field(default_factory=int, init=False)
    revocation_batch_max: int = field(default_factory=int, init=False)
    revocation_multi_batches: int = field(default_factory=int, init=False)

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
                (Figure 8c) without any error.  The drop recorders raise
                it too.
        """
        try:
            self.sent[kind] += 1
        except KeyError:
            raise _no_ledger(kind) from None
        if kind == "pcb":
            self._counts[((sender_as, interface_id), int(time_ms // self.period_ms))] += 1

    def record_drop(self, kind: str) -> None:
        """Record one ``kind`` message lost on an unavailable link."""
        try:
            self.dropped[kind] += 1
        except KeyError:
            raise _no_ledger(kind) from None

    def record_algorithm_fetch(self) -> None:
        """Record one remote algorithm payload fetch."""
        self._fetches += 1

    def record_gray_drop(self, kind: str) -> None:
        """Record one message silently swallowed by a degraded link."""
        if kind not in MESSAGE_KINDS:
            raise _no_ledger(kind)
        self.gray_dropped[kind] += 1

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

    def algorithm_fetches(self) -> int:
        """Return the total number of remote payload fetches recorded."""
        return self._fetches

    def control_messages_total(self) -> int:
        """Return every control-plane message sent so far, all kinds.

        Sends later dropped in flight count too; the convergence collector
        snapshots this to attribute overhead to individual events.
        """
        return sum(self.sent.values())

    def gray_dropped_total(self) -> int:
        """Return every message silently lost to degraded links so far."""
        return sum(self.gray_dropped.values())


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
    recovered_at_ms: Optional[float] = field(default=None, init=False)
    paths_at_recovery: int = field(default=0, init=False)
    messages_at_recovery: Optional[int] = field(default=None, init=False)

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

    records: List[DisruptionRecord] = field(default_factory=list, init=False)
    trace: List[str] = field(default_factory=list, init=False)
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

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def current_outage_ms(self, source_as: int, destination_as: int, now_ms: float) -> float:
        """Return how long the pair has been disrupted, or 0.0 if healthy."""
        record = self._open.get((source_as, destination_as))
        if record is None:
            return 0.0
        return now_ms - record.event_time_ms

    def trace_text(self) -> str:
        """Return the full deterministic trace as one newline-joined string."""
        return "\n".join(self.trace)

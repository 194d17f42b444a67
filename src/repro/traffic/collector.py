"""Measurement collection for the traffic engine.

Mirrors the role :class:`~repro.simulation.collector.ConvergenceCollector`
plays for the control plane, one layer down: where the convergence
collector counts *registered paths*, this one measures what the registered
paths are worth to traffic — per-round goodput, demand lost, flows
black-holed, and per-flow-group reroute latency after a scenario event
breaks the path the group was using.

Every observation appends a stable line to :attr:`TrafficCollector.trace`,
so a seeded traffic run is digest-pinnable exactly like the control-plane
golden trace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: How far, relative to the pre-event baseline, goodput may stay below it
#: and still count as recovered.
RECOVERY_TOLERANCE = 0.01


@dataclass(frozen=True)
class RoundSample:
    """Aggregate outcome of one traffic round.

    Attributes:
        time_ms: When the round ran.
        offered_mbps: Demand offered by all groups (served or not).
        carried_mbps: Demand actually allocated by the link model.
        unserved_mbps: Demand of groups with no usable path this round.
        active_groups: Groups that sent over at least one path.
        blackholed_groups: Groups with demand but no usable path.
        flow_rounds: End-host flows the round simulated (the throughput
            unit of the benchmark: flow-rounds per wall-clock second).
        max_link_utilization: Highest link load/capacity ratio observed.
        mean_latency_ms: Carried-demand-weighted path propagation latency
            (0.0 when nothing was carried).
    """

    time_ms: float
    offered_mbps: float
    carried_mbps: float
    unserved_mbps: float
    active_groups: int
    blackholed_groups: int
    flow_rounds: int
    max_link_utilization: float
    mean_latency_ms: float = 0.0


@dataclass
class RerouteRecord:
    """One flow group losing its path(s) to an event and re-selecting.

    Attributes:
        group_id: The affected flow group.
        broken_at_ms: When the scenario event invalidated the active path.
        cause: Stable trace label of the breaking event.
        flows: End-host flows the group represents.
        rerouted_at_ms: When the group found a replacement path (the next
            traffic round that could re-select), or ``None`` while it is
            still black-holed.
    """

    group_id: int
    broken_at_ms: float
    cause: str
    flows: int
    rerouted_at_ms: Optional[float] = field(default=None, init=False)

    @property
    def rerouted(self) -> bool:
        """Return whether the group found a replacement path."""
        return self.rerouted_at_ms is not None

    @property
    def time_to_reroute_ms(self) -> Optional[float]:
        """Return the black-hole duration, or ``None`` while unrecovered."""
        if self.rerouted_at_ms is None:
            return None
        return self.rerouted_at_ms - self.broken_at_ms


@dataclass
class TrafficCollector:
    """Per-round goodput samples, reroute records and a deterministic trace."""

    samples: List[RoundSample] = field(default_factory=list, init=False)
    reroutes: List[RerouteRecord] = field(default_factory=list, init=False)
    trace: List[str] = field(default_factory=list, init=False)
    _open: Dict[int, RerouteRecord] = field(default_factory=dict, init=False)
    total_flow_rounds: int = field(default=0, init=False)

    # ------------------------------------------------------------------
    # recording (called by the engine)
    # ------------------------------------------------------------------
    def on_round(self, sample: RoundSample) -> None:
        """Record one completed traffic round."""
        self.samples.append(sample)
        self.total_flow_rounds += sample.flow_rounds
        self.trace.append(
            f"{sample.time_ms:.3f} round offered={sample.offered_mbps:.3f}"
            f" carried={sample.carried_mbps:.3f} unserved={sample.unserved_mbps:.3f}"
            f" active={sample.active_groups} blackholed={sample.blackholed_groups}"
            f" maxutil={sample.max_link_utilization:.4f}"
        )

    def on_break(self, group_id: int, now_ms: float, cause: str, flows: int) -> None:
        """Record a scenario event invalidating a group's active path."""
        if group_id in self._open:
            return  # already black-holed; keep the original break time
        record = RerouteRecord(
            group_id=group_id, broken_at_ms=now_ms, cause=cause, flows=flows
        )
        self._open[group_id] = record
        self.reroutes.append(record)
        self.trace.append(f"{now_ms:.3f} break group={group_id} cause={cause}")

    def on_backoff(self, group_id: int, now_ms: float, factor: float, loss: float) -> None:
        """Record a closed-loop demand adjustment of one flow group.

        Only called when the engine runs with closed-loop demand *and* a
        group's factor actually changes, so open-loop runs (the default)
        keep a bit-identical trace.
        """
        self.trace.append(
            f"{now_ms:.3f} backoff group={group_id}"
            f" factor={factor:.4f} loss={loss:.4f}"
        )

    def on_reroute(self, group_id: int, now_ms: float) -> None:
        """Record a black-holed group finding a replacement path."""
        record = self._open.pop(group_id, None)
        if record is None:
            return
        record.rerouted_at_ms = now_ms
        self.trace.append(
            f"{now_ms:.3f} reroute group={group_id}"
            f" ttr={record.time_to_reroute_ms:.3f}"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_blackholed(self, group_id: int) -> bool:
        """Return whether the group is currently without a usable path."""
        return group_id in self._open

    def goodput_series(self) -> List[Tuple[float, float]]:
        """Return the (time, carried Mbit/s) curve."""
        return [(sample.time_ms, sample.carried_mbps) for sample in self.samples]

    def mean_time_to_reroute_ms(self) -> Optional[float]:
        """Return the mean reroute latency over recovered groups."""
        times = [
            record.time_to_reroute_ms for record in self.reroutes if record.rerouted
        ]
        if not times:
            return None
        return sum(times) / len(times)

    def goodput_recovery_ms(self, event_time_ms: float) -> Optional[float]:
        """Return how long goodput stayed depressed after an event.

        The pre-event baseline is the last sample strictly before
        ``event_time_ms`` (a round sharing the event's timestamp runs
        *after* it — the scheduler breaks ties FIFO and events are
        scheduled first); recovery is the first in-band sample (carried
        rate within :data:`RECOVERY_TOLERANCE`, relative, of the baseline) after the
        *last* dip — an in-band sample followed by another dip is a
        transient, not a recovery, so oscillating goodput dates the
        recovery after the oscillation settles.  ``None`` means goodput
        never dipped below the band, or has not recovered by the end of
        the recording.
        """
        baseline = None
        for sample in self.samples:
            if sample.time_ms < event_time_ms:
                baseline = sample.carried_mbps
            else:
                break
        if baseline is None or baseline <= 0.0:
            return None
        floor = baseline * (1.0 - RECOVERY_TOLERANCE)
        dipped = False
        recovered_at = None
        for sample in self.samples:
            if sample.time_ms < event_time_ms:
                continue
            if sample.carried_mbps < floor:
                # A dip voids any earlier recovery candidate: goodput must
                # stay in band for the rest of the recording to count.
                dipped = True
                recovered_at = None
            elif dipped and recovered_at is None:
                recovered_at = sample.time_ms
        if recovered_at is None:
            return None
        return recovered_at - event_time_ms

    def trace_text(self) -> str:
        """Return the deterministic trace as one newline-joined string."""
        return "\n".join(self.trace)

    def trace_digest(self) -> str:
        """Return the SHA-256 of the trace (for digest-pinned tests)."""
        return hashlib.sha256(self.trace_text().encode("utf-8")).hexdigest()

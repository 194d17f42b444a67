"""A deterministic discrete-event scheduler.

The scheduler is intentionally minimal: events are ``(time, callback)``
pairs processed in time order, with a monotonically increasing sequence
number breaking ties so that runs are bit-for-bit reproducible.  The
beaconing driver uses it to deliver PCBs with link delays and to trigger
periodic origination and RAC rounds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from repro.exceptions import SimulationError

#: An event callback receives the current simulated time in milliseconds.
EventCallback = Callable[[float], None]


#: One heap entry, ``[time_ms, sequence, callback]``: a plain list, so heap
#: pushes and pops compare entries in C, and the sequence is unique, so the
#: comparison never reaches the callback.
ScheduledEvent = list


@dataclass
class EventScheduler:
    """Priority-queue based discrete-event scheduler."""

    now_ms: float = field(default=0.0, init=False)
    _queue: List[ScheduledEvent] = field(default_factory=list, init=False)
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(), init=False)
    processed_events: int = field(default=0, init=False)

    def schedule_at(self, time_ms: float, callback: EventCallback) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``time_ms``.

        Raises:
            SimulationError: If the time lies in the past.
        """
        if time_ms < self.now_ms:
            raise SimulationError(
                f"cannot schedule an event at {time_ms} ms; current time is {self.now_ms} ms"
            )
        event = [time_ms, next(self._sequence), callback]
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(self, delay_ms: float, callback: EventCallback) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay_ms`` milliseconds.

        Raises:
            SimulationError: If the delay is negative.
        """
        if delay_ms < 0.0:
            raise SimulationError(f"delay must be non-negative, got {delay_ms}")
        return self.schedule_at(self.now_ms + delay_ms, callback)

    def run_until(self, horizon_ms: float, inclusive: bool = True) -> int:
        """Process events up to and including ``horizon_ms``.

        With ``inclusive=False`` only events *strictly before* the horizon
        are processed — what a timeline barrier needs (the barrier applies
        before anything else scheduled at its time).

        Returns:
            The number of events processed.  The current time advances to
            ``horizon_ms`` even if the queue drains earlier.
        """
        processed = 0
        queue = self._queue
        while queue and (
            queue[0][0] <= horizon_ms if inclusive else queue[0][0] < horizon_ms
        ):
            time_ms, _, callback = heapq.heappop(queue)
            self.now_ms = time_ms
            callback(time_ms)
            processed += 1
            self.processed_events += 1
        self.now_ms = max(self.now_ms, horizon_ms)
        return processed

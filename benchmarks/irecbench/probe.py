"""The benchmark's clock: a fixed interpreter-bound kernel and ``RefClock``.

On the shared 2-core box this benchmark was sized on, a fixed pure-Python
kernel runs anywhere between 1.2x and 2.0x its best time from one second
to the next, and ``process_time`` tracks wall time, so no stock clock
repeats within a tenth.  ``RefClock`` therefore brackets every chunk of
measured work (>= ``MIN_CHUNK_S`` of wall time) with the kernel below and
books the chunk as

    wall * PROBE_REF_S / mean(probe_before, probe_after)

-- *reference seconds*: what the chunk would have cost had the host run
the kernel at its quiet-box speed throughout.  The assumption is that the
measured program slows down by the same factor as the kernel does (both
are single-threaded interpreter work); compare only runs that share
``PROBE_REF_S``.

Stdlib only: the runner imports this module before it imports ``repro``.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Quiet-box time of :func:`probe_kernel` in seconds, measured once by the
#: builder of this benchmark (10th percentile of 2000 back-to-back runs on an
#: idle box, `python3 probe.py`; four repeats read 2.161-2.181 ms) and pinned.
#: Changing it rescales every time-based metric; never change it together
#: with anything else.
PROBE_REF_S = 0.002175

#: A chunk is closed at the first ``tick()`` at least this long after the
#: previous probe.
MIN_CHUNK_S = 0.040

_KERNEL_ITERATIONS = 5000


def probe_kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds.

    Tuples, dict insert + pop, ``str`` formatting and SHA-256 -- the
    operations the measured program spends its time in.  The garbage
    collector is off inside so a collection triggered by the *program's*
    allocations is never billed to the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[Tuple[int, int, str], int] = {}
        sha = hashlib.sha256()
        acc = 0
        for i in range(_KERNEL_ITERATIONS):
            key = (i, i ^ 0x55, "if%d" % (i & 63))
            table[key] = i
            if i & 3 == 3:
                j = i - 2
                acc += table.pop((j, j ^ 0x55, "if%d" % (j & 63)))
            if i & 15 == 0:
                sha.update(str(acc).encode("ascii"))
                sha.update(sha.digest())
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed


def probe() -> float:
    """Mean of three back-to-back kernel runs, in seconds.

    The mean, not the best: a chunk pays for every short stall that falls
    into it, so the probe has to report the stalls that fall into *it* as
    well.  On the box this was sized on the best-of-three clock left a third
    more run-to-run spread (README, *Reference seconds*).
    """
    return (probe_kernel() + probe_kernel() + probe_kernel()) / 3.0


class RefClock:
    """Books wall-clock chunks as probe-normalised reference seconds.

    Usage: ``start(phase)`` once, ``tick()`` wherever a chunk may end,
    ``phase(name)`` at phase boundaries (always closes the open chunk),
    ``stop()`` at the end.  ``timer`` and ``probe_fn`` are injectable for
    tests.
    """

    def __init__(
        self,
        ref_s: float = PROBE_REF_S,
        min_chunk_s: float = MIN_CHUNK_S,
        timer: Callable[[], float] = time.perf_counter,
        probe_fn: Callable[[], float] = probe,
    ) -> None:
        self.ref_s = ref_s
        self.min_chunk_s = min_chunk_s
        self._timer = timer
        self._probe = probe_fn
        self._phase: Optional[str] = None
        self._chunk_start = 0.0
        self._last_probe_s = 0.0
        #: phase -> [reference seconds, raw seconds]
        self._booked: Dict[str, List[float]] = {}
        self.probe_times: List[float] = []
        self.probe_wall_s = 0.0
        #: Observers called as ``(probe_start, probe_end)`` after every
        #: probe; the tracer uses it to keep probe time out of its spans.
        self.probe_listeners: List[Callable[[float, float], None]] = []

    # ------------------------------------------------------------------
    def _run_probe(self) -> float:
        begin = self._timer()
        value = self._probe()
        end = self._timer()
        self.probe_times.append(value)
        self.probe_wall_s += end - begin
        for listener in self.probe_listeners:
            listener(begin, end)
        return value

    def start(self, phase: str, backdate_to: Optional[float] = None) -> None:
        """Open the first chunk of ``phase``.

        ``backdate_to`` is a ``timer`` reading taken before this clock
        could exist (the runner's first statement); the time since then is
        booked into the first chunk.
        """
        self._phase = phase
        begin = self._timer()
        self._last_probe_s = self._run_probe()
        end = self._timer()
        # The probe just run is no part of the backdated chunk's work.
        self._chunk_start = end if backdate_to is None else backdate_to + (end - begin)

    def tick(self) -> None:
        """Close the open chunk if it is at least ``min_chunk_s`` long."""
        if self._timer() - self._chunk_start >= self.min_chunk_s:
            self._close()

    def phase(self, name: str) -> None:
        """Close the open chunk and book what follows under ``name``."""
        self._close()
        self._phase = name

    def stop(self) -> None:
        """Close the open chunk; nothing is booked afterwards."""
        self._close()
        self._phase = None

    def _close(self) -> None:
        if self._phase is None:
            return
        end = self._timer()
        wall = end - self._chunk_start
        after = self._run_probe()
        slowdown = 0.5 * (self._last_probe_s + after) / self.ref_s
        booked = self._booked.setdefault(self._phase, [0.0, 0.0])
        booked[0] += wall / slowdown
        booked[1] += wall
        self._last_probe_s = after
        self._chunk_start = self._timer()

    # ------------------------------------------------------------------
    def ref_s_of(self, phase: str) -> float:
        """Reference seconds booked under ``phase`` so far."""
        return self._booked.get(phase, (0.0, 0.0))[0]

    def raw_s_of(self, phase: str) -> float:
        """Raw wall seconds booked under ``phase`` so far (probes excluded)."""
        return self._booked.get(phase, (0.0, 0.0))[1]

    def scale_of(self, phase: str) -> float:
        """Reference seconds per raw second over ``phase`` (1.0 if empty)."""
        ref, raw = self._booked.get(phase, (0.0, 0.0))
        return ref / raw if raw > 0.0 else 1.0

    def host_stats(self) -> Dict[str, float]:
        """Diagnostics of the host as the probes saw it."""
        slowdowns = sorted(t / self.ref_s for t in self.probe_times)
        raw_total = sum(raw for _ref, raw in self._booked.values())
        p90 = slowdowns[min(len(slowdowns) - 1, int(0.9 * len(slowdowns)))]
        return {
            "slowdown_p50": statistics.median(slowdowns),
            "slowdown_p90": p90,
            "probe_count": len(slowdowns),
            "probe_share": self.probe_wall_s / (self.probe_wall_s + raw_total),
        }


if __name__ == "__main__":
    # `python3 probe.py` re-measures the kernel: the figure to pin as
    # PROBE_REF_S when the kernel itself is ever changed.
    samples = sorted(probe_kernel() for _ in range(2000))
    print(
        "probe_kernel over 2000 runs: best %.6f s, p10 %.6f s, median %.6f s"
        % (samples[0], samples[200], samples[1000])
    )

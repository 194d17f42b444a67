"""Shared process-pool lifecycle.

Both offload users in the repo — the batched crypto pool
(:mod:`repro.crypto.pool`) and the Figure-7 throughput microbenchmark
(:func:`repro.analysis.microbench.measure_throughput`) — need the same
thing: a ``ProcessPoolExecutor`` that exists for the lifetime of the
caller, not one spun up (fork + import + warmup) per call.  A
:class:`WorkerPool` owns exactly one executor, creates it lazily on
first use, grows it when a caller needs more workers than it currently
has, and shuts it down once.  The module-level :func:`shared_pool`
singleton is the default pool everyone shares.

Worker processes are started with the ``fork`` method where available
(Linux): forked children inherit the parent's imported modules, so the
first submit does not pay a fresh interpreter + import of the repo.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.exceptions import ConfigurationError


def _default_context():
    """Return the cheapest available multiprocessing context."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerPool:
    """One lazily created, grow-on-demand :class:`ProcessPoolExecutor`.

    Attributes:
        max_workers: Hard cap on the executor size (``None``: uncapped,
            the executor grows to whatever callers request).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be None or >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._size = 0
        #: Lifecycle counters (observability): how often the executor was
        #: (re)created versus simply reused.
        self.created = 0
        self.grown = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _clamp(self, workers: int) -> int:
        if self.max_workers is not None:
            workers = min(workers, self.max_workers)
        return max(1, workers)

    def executor(self, min_workers: int = 1) -> ProcessPoolExecutor:
        """Return the shared executor, sized for at least ``min_workers``.

        Creates the executor on first call; if a later caller needs more
        workers than the current executor has, it is torn down and
        recreated at the larger size (existing submitted work completes
        first — ``shutdown(wait=True)``).  Repeat callers with the same
        or smaller requirement reuse the executor as-is, which is the
        whole point: one pool lifecycle, no per-call spin-up.
        """
        if min_workers < 1:
            raise ConfigurationError(f"min_workers must be >= 1, got {min_workers}")
        wanted = self._clamp(min_workers)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=wanted, mp_context=_default_context()
            )
            self._size = wanted
            self.created += 1
        elif wanted > self._size:
            self._executor.shutdown(wait=True)
            self._executor = ProcessPoolExecutor(
                max_workers=wanted, mp_context=_default_context()
            )
            self._size = wanted
            self.grown += 1
        return self._executor

    @property
    def workers(self) -> int:
        """Return the current executor size (0 before first use)."""
        return self._size

    def shutdown(self) -> None:
        """Tear the executor down (a later call recreates it lazily)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._size = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # ------------------------------------------------------------------
    # submission helpers
    # ------------------------------------------------------------------
    def submit(self, fn: Callable, *args, min_workers: int = 1) -> Future:
        """Submit one call to the pool."""
        return self.executor(min_workers=min_workers).submit(fn, *args)

    def run_batches(
        self, fn: Callable, batches: Sequence[tuple], min_workers: Optional[int] = None
    ) -> List:
        """Run ``fn(*batch)`` for every batch concurrently; results in order.

        ``min_workers`` defaults to one worker per batch (capped by
        :attr:`max_workers`), matching the historical one-process-per-RAC
        benchmark semantics.
        """
        if not batches:
            return []
        wanted = min_workers if min_workers is not None else len(batches)
        executor = self.executor(min_workers=wanted)
        futures = [executor.submit(fn, *batch) for batch in batches]
        return [future.result() for future in futures]


_shared: Optional[WorkerPool] = None


def shared_pool() -> WorkerPool:
    """Return the process-wide shared :class:`WorkerPool` (created lazily)."""
    global _shared
    if _shared is None:
        _shared = WorkerPool()
    return _shared


def shutdown_shared_pool() -> None:
    """Shut the shared pool down (tests and benchmark teardown)."""
    global _shared
    if _shared is not None:
        _shared.shutdown()
        _shared = None

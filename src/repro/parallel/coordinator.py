"""Conservative-lookahead coordinator for sharded beaconing simulation.

:class:`ShardedBeaconingSimulation` runs the exact experiment
:class:`~repro.simulation.beaconing.BeaconingSimulation` runs, split
across worker processes.  The topology is partitioned by
:func:`repro.parallel.partition.partition_topology`; each worker forks
with one partition and materializes only its shard's control services.
The period structure is not re-implemented here: this class is the fork
provider of :class:`~repro.simulation.beaconing.PeriodDriver`'s
operations — each one a broadcast of the same-named command to every
worker, with ``advance`` split into conservative lookahead windows.

**Why the result is the same.** Per-AS inboxes are the fabric's only
inter-AS seam.  A cross-shard send runs its sender side (metrics,
send-time availability) on the sending shard, is exported with its
precomputed delivery time, and replays its receiver side on the owning
shard via the transport's ``inject_import`` — the identical
:meth:`~repro.simulation.network.SimulatedTransport._deliver` callback a
local send would schedule.  Between barriers, a shard may safely
simulate up to ``t_next + lookahead`` (the global next event time plus
the minimum cross-shard ``link latency + processing delay``): any export
generated at ``u >= t_next`` arrives no earlier than ``u + lookahead``,
i.e. outside the window, so no worker ever receives a message in its
past.  Timeline events are global barriers: the driver advances every
worker to the event time, the event is broadcast (each shard applies the
slice it owns), then the aggregated revocation flush runs.  The
golden-digest tests pin all of this bit-for-bit against the in-process
traces.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.control_service import RoundReport
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError, SimulationError
from repro.parallel.partition import (
    Partition,
    degradable_link_groups,
    partition_topology,
)
from repro.parallel.shard import shard_worker_main
from repro.simulation.beaconing import PeriodDriver
from repro.simulation.collector import MetricsCollector
from repro.simulation.events import RACSwap, TimedEvent, TopologyGrowth
from repro.simulation.scenario import ScenarioConfig
from repro.topology.graph import Topology


class ShardedBeaconingSimulation(PeriodDriver):
    """Drives one scenario over ``workers`` forked shard processes."""

    def __init__(
        self,
        topology: Topology,
        scenario: ScenarioConfig,
        workers: int = 2,
        key_store: Optional[KeyStore] = None,
        partition_seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        for spec in scenario.algorithms:
            if spec.on_demand:
                raise ConfigurationError(
                    "on-demand RACs fetch algorithm payloads synchronously "
                    "across ASes and cannot run sharded; use the "
                    "single-process BeaconingSimulation"
                )
        for timed in scenario.timeline:
            if isinstance(timed.event, RACSwap) and timed.event.spec.on_demand:
                raise ConfigurationError(
                    "a RACSwap to an on-demand RAC cannot run sharded"
                )
        super().__init__(topology, scenario)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ConfigurationError(
                "sharded simulation requires the fork start method"
            ) from exc

        self.workers = workers
        self.key_store = key_store if key_store is not None else KeyStore()
        self.partition: Partition = partition_topology(
            topology,
            workers,
            seed=partition_seed,
            affinity_groups=degradable_link_groups(scenario.timeline),
        )
        self._owner: Dict[int, int] = dict(self.partition.owner)
        self._owned: List[set] = [set(shard) for shard in self.partition.shards]
        self._lookahead_ms = self.partition.lookahead_ms(
            topology, scenario.processing_delay_ms
        )
        if self._lookahead_ms <= 0.0:
            raise ConfigurationError(
                "sharded simulation needs positive cross-shard lookahead; "
                "a zero-latency, zero-processing-delay cross-shard link "
                "leaves no safe window"
            )

        #: The coordinator's clock: the latest time every shard has reached.
        self.now_ms = 0.0

        #: Cross-shard traffic and synchronization telemetry.
        self.cross_shard_messages = 0
        self.cross_shard_bytes = 0
        self.barrier_wait_s = 0.0
        self.worker_busy_s: List[float] = [0.0] * workers
        self._started_at = time.perf_counter()

        self._next_times: List[Optional[float]] = [None] * workers
        self._conns: List = []
        self._procs: List = []
        self._spawn_workers()

    # ------------------------------------------------------------------
    # worker lifecycle & messaging
    # ------------------------------------------------------------------
    def _spawn_workers(self) -> None:
        for index in range(self.workers):
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=shard_worker_main,
                args=(
                    child_conn,
                    self.topology,
                    self.scenario,
                    tuple(sorted(self._owned[index])),
                    self.key_store.deployment_secret,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)
        for index in range(self.workers):
            self._recv(index)  # construction handshake

    def close(self) -> None:
        """Stop and join the worker processes (idempotent)."""
        for index, conn in enumerate(self._conns):
            try:
                conn.send_bytes(pickle.dumps(("stop", None)))
                conn.recv_bytes()
            except (OSError, EOFError, BrokenPipeError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ShardedBeaconingSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _send(self, index: int, command: str, payload) -> None:
        self._conns[index].send_bytes(pickle.dumps((command, payload)))

    def _recv(self, index: int):
        started = time.perf_counter()
        blob = self._conns[index].recv_bytes()
        self.barrier_wait_s += time.perf_counter() - started
        status, payload, exports, next_time, busy_s = pickle.loads(blob)
        if status == "error":
            raise SimulationError(f"shard worker {index} failed:\n{payload}")
        self._next_times[index] = next_time
        self.worker_busy_s[index] = busy_s
        return payload, exports

    def _broadcast(self, command: str, *args) -> List:
        """Send one command with the same arguments to every worker."""
        return self._scatter(command, [args] * self.workers)

    def _scatter(self, command: str, per_worker_args: Sequence[tuple]) -> List:
        """Send one command to every worker in parallel; route exports.

        Returns the per-worker reply payloads.
        """
        for index in range(self.workers):
            self._send(index, command, per_worker_args[index])
        results = []
        exports: List[tuple] = []
        for index in range(self.workers):
            payload, worker_exports = self._recv(index)
            results.append(payload)
            exports.extend(worker_exports)
        if exports:
            self._route_exports(exports)
        return results

    def _route_exports(self, exports: Sequence[tuple]) -> None:
        """Deliver cross-shard exports to the shards owning the receivers."""
        by_shard: Dict[int, List[tuple]] = {}
        for export in exports:
            by_shard.setdefault(self._owner[export[1]], []).append(export)
        self.cross_shard_messages += len(exports)
        for index in sorted(by_shard):
            blob = pickle.dumps(("inject", by_shard[index]))
            self.cross_shard_bytes += len(blob)
            self._conns[index].send_bytes(blob)
        for index in sorted(by_shard):
            _payload, worker_exports = self._recv(index)
            if worker_exports:  # pragma: no cover - injection cannot export
                self._route_exports(worker_exports)

    # ------------------------------------------------------------------
    # the driver's operations, broadcast
    # ------------------------------------------------------------------
    def advance(self, target_ms: float, inclusive: bool = True) -> None:
        """Advance every shard to ``target_ms`` in lookahead windows.

        Repeatedly: find the global next event time across all shards; if
        none lies before the boundary, align every clock at the target
        and stop.  Otherwise run every shard through the window
        ``[now, t_next + lookahead)`` (clamped at the target) and route
        the exports the window produced — which by the lookahead argument
        are all scheduled at or after the window's end, never in any
        shard's past.
        """
        self.now_ms = max(self.now_ms, target_ms)
        while True:
            times = [t for t in self._next_times if t is not None]
            t_next = min(times) if times else None
            if t_next is None or (
                t_next > target_ms if inclusive else t_next >= target_ms
            ):
                self._broadcast("advance", target_ms, inclusive)
                return
            window_end = t_next + self._lookahead_ms
            if inclusive and window_end > target_ms:
                horizon, window_inclusive = target_ms, True
            elif not inclusive and window_end >= target_ms:
                horizon, window_inclusive = target_ms, False
            else:
                horizon, window_inclusive = window_end, False
            self._broadcast("advance", horizon, window_inclusive)

    def originate(self, now_ms: float) -> None:
        """Originate PCBs at every online AS of every shard."""
        self._broadcast("originate", now_ms)

    def rac_round(self, now_ms: float) -> List[RoundReport]:
        """Run one RAC round everywhere; return the reports in AS order —
        the order the in-process provider produces them in."""
        report_lists = self._broadcast("rac_round", now_ms)
        return sorted(
            (report for reports in report_lists for report in reports),
            key=lambda report: report.as_id,
        )

    def apply_event(self, timed: TimedEvent) -> None:
        """Apply one timeline event on every shard.

        Topology growth first assigns the new AS to the lightest shard and
        afterwards tightens the lookahead for its cross-shard attach links.
        """
        event = timed.event
        if not isinstance(event, TopologyGrowth):
            self._broadcast("apply_event", timed)
            return
        owner = min(
            range(self.workers), key=lambda index: (len(self._owned[index]), index)
        )
        self._owned[owner].add(event.new_as)
        self._owner[event.new_as] = owner
        self._send(owner, "adopt", (event.new_as,))
        self._recv(owner)
        self._broadcast("apply_event", timed)
        for neighbor_as in event.attach_to:
            if self._owner[neighbor_as] != owner:
                self._lookahead_ms = min(
                    self._lookahead_ms,
                    event.latency_ms + self.scenario.processing_delay_ms,
                )

    def flush(self, now_ms: float) -> None:
        """Flush every shard's queued revocations."""
        self._broadcast("flush", now_ms)

    def probe(self, pairs: Sequence[Tuple[int, int]], with_times: bool = False):
        """Probe each pair on the shard owning its source AS; sum the totals."""
        pairs_by_shard: List[List[Tuple[int, int]]] = [[] for _ in range(self.workers)]
        for pair in pairs:
            pairs_by_shard[self._owner[pair[0]]].append(pair)
        replies = self._scatter(
            "probe", [(shard_pairs, with_times) for shard_pairs in pairs_by_shard]
        )
        counts: Dict[Tuple[int, int], int] = {}
        registered_at: Optional[Dict[Tuple[int, int], Tuple[float, ...]]] = (
            {} if with_times else None
        )
        messages_total = 0
        overload = [0, 0, 0]
        for shard_counts, shard_times, shard_messages, shard_overload in replies:
            counts.update(shard_counts)
            if with_times:
                registered_at.update(shard_times)
            messages_total += shard_messages
            for slot in range(3):
                overload[slot] += shard_overload[slot]
        return counts, registered_at, messages_total, tuple(overload)

    def gather(self):
        """Merge the shards' collectors and stats; stop the workers."""
        snapshots = self._broadcast("gather")
        collector = MetricsCollector(period_ms=self.scenario.propagation_interval_ms)
        revocation_stats: Dict[int, Tuple[int, int]] = {}
        for shard_collector, _link_state, shard_stats in snapshots:
            collector.merge(shard_collector)
            revocation_stats.update(shard_stats)
        # Every shard applied every link/AS state change: any replica will do.
        link_state = snapshots[0][1]
        self.close()
        return collector, link_state, dict(sorted(revocation_stats.items()))

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def utilization(self) -> List[float]:
        """Return per-worker busy-time fractions since construction."""
        elapsed = max(time.perf_counter() - self._started_at, 1e-9)
        return [busy / elapsed for busy in self.worker_busy_s]

    def counters(self) -> Dict[str, float]:
        """Return the coordinator's synchronization counters."""
        return {
            "workers": float(self.workers),
            "lookahead_ms": self._lookahead_ms,
            "cross_shard_messages": float(self.cross_shard_messages),
            "cross_shard_bytes": float(self.cross_shard_bytes),
            "barrier_wait_s": self.barrier_wait_s,
        }

"""The shard worker: one process driving one partition's control services.

Forked by the coordinator (:mod:`repro.parallel.coordinator`), the worker
builds a :class:`~repro.simulation.beaconing.BeaconingSimulation` in shard
mode — services only for its owned ASes, every cross-shard fabric send
diverted to an export buffer — and then executes coordinator commands off
a pipe until told to stop.

The command loop is strictly synchronous: one request, one reply.  A
command is the name of one of the driver operations the shard simulation
implements (:data:`OPERATIONS`) plus its arguments, so the worker runs
the very methods the in-process driver calls.  Every reply carries (a)
the operation's result, (b) the cross-shard exports it produced, (c) the
shard's next pending event time, so the coordinator's
conservative-lookahead advance never needs a separate poll round trip,
and (d) the worker's accumulated busy time.

Workers are started with the ``fork`` method on purpose: scenario objects
carry callables (algorithm factories, policies) that cannot be pickled,
but a forked child inherits them.  All post-fork state — the simulation,
its services, the RNGs — is built inside the child, so nothing of the
parent's mutable simulation state is shared.
"""

from __future__ import annotations

import pickle
import time
import traceback
from typing import List, Optional

from repro.crypto.keys import KeyStore
from repro.simulation.beaconing import BeaconingSimulation, ShardContext

#: The :class:`~repro.simulation.beaconing.PeriodDriver` operations a
#: worker answers with its shard simulation's own methods.
OPERATIONS = frozenset(
    {"advance", "originate", "rac_round", "apply_event", "flush", "probe", "gather"}
)


class _ShardRuntime:
    """Per-worker state: the shard simulation plus the export buffer."""

    def __init__(
        self,
        topology,
        scenario,
        owned_ases,
        deployment_secret: bytes,
    ) -> None:
        self.exports: List[tuple] = []
        self.shard = ShardContext(
            owned_ases=set(owned_ases), exporter=self.exports.append
        )
        self.sim = BeaconingSimulation(
            topology,
            scenario,
            key_store=KeyStore(deployment_secret=deployment_secret),
            shard=self.shard,
        )
        self.busy_s = 0.0

    def drain_exports(self) -> List[tuple]:
        exports, self.exports[:] = list(self.exports), []
        return exports

    def handle(self, command: str, args: tuple):
        """Execute one coordinator command; return the reply payload."""
        if command in OPERATIONS:
            return getattr(self.sim, command)(*args)
        if command == "inject":
            for item in args:
                self.sim.transport.inject_import(*item)
            return None
        if command == "adopt":
            # The coordinator designated this shard the owner of an AS a
            # TopologyGrowth event is about to create.
            self.shard.owned_ases.update(args)
            return None
        raise ValueError(f"unknown shard command {command!r}")


def shard_worker_main(
    conn,
    topology,
    scenario,
    owned_ases,
    deployment_secret: bytes,
) -> None:
    """Run the worker command loop until a ``stop`` command (or EOF)."""
    runtime: Optional[_ShardRuntime] = None
    try:
        runtime = _ShardRuntime(topology, scenario, owned_ases, deployment_secret)
        conn.send_bytes(pickle.dumps(("ok", None, [], None, 0.0)))
    except Exception:  # noqa: BLE001 - report construction failure to parent
        conn.send_bytes(pickle.dumps(("error", traceback.format_exc(), [], None, 0.0)))
        return
    while True:
        try:
            blob = conn.recv_bytes()
        except EOFError:
            return
        command, payload = pickle.loads(blob)
        if command == "stop":
            conn.send_bytes(pickle.dumps(("ok", None, [], None, runtime.busy_s)))
            return
        started = time.perf_counter()
        try:
            result = runtime.handle(command, payload)
            runtime.busy_s += time.perf_counter() - started
            reply = (
                "ok",
                result,
                runtime.drain_exports(),
                runtime.sim.scheduler.next_event_time(),
                runtime.busy_s,
            )
        except Exception:  # noqa: BLE001 - ship the traceback to the parent
            runtime.busy_s += time.perf_counter() - started
            reply = ("error", traceback.format_exc(), [], None, runtime.busy_s)
        conn.send_bytes(pickle.dumps(reply))

"""Sharded parallel simulation over the message fabric.

The package splits a :class:`~repro.simulation.beaconing.BeaconingSimulation`
across ``multiprocessing`` workers:

* :mod:`repro.parallel.pool` — shared process-pool lifecycle (one
  lazily created, grow-on-demand executor per pool instead of a
  spin-up per call), used by the analysis microbenchmarks.
* :mod:`repro.parallel.partition` — seeded, degree-balanced
  partitioning of the AS set into shards, with affinity constraints
  that keep loss-degradable links inside one shard (the transport's
  loss RNG must see its draws in one process).
* :mod:`repro.parallel.shard` — the per-shard worker process: a
  shard-restricted ``BeaconingSimulation`` answering the period driver's
  operations off a command loop.
* :mod:`repro.parallel.coordinator` — the fork provider of those
  operations: broadcasts plus the conservative-lookahead window protocol
  that keeps a sharded run bit-identical to the in-process golden traces.

See ``docs/parallel.md`` for the protocol and the determinism argument.
"""

from repro.parallel.coordinator import ShardedBeaconingSimulation
from repro.parallel.partition import Partition, partition_topology
from repro.parallel.pool import WorkerPool, shared_pool, shutdown_shared_pool

__all__ = [
    "Partition",
    "ShardedBeaconingSimulation",
    "WorkerPool",
    "partition_topology",
    "shared_pool",
    "shutdown_shared_pool",
]

"""Seeded, degree-balanced topology partitioning for sharded simulation.

The partitioner assigns every AS to exactly one shard.  Per-AS inboxes
are the only inter-AS seam in the message fabric, so a shard can run the
control services of its ASes in isolation as long as sends towards other
shards are exported and replayed there (see
:mod:`repro.parallel.coordinator`).

Balance is by *degree*, not AS count: an AS's simulation cost is
dominated by the messages crossing its interfaces, so the greedy
assignment places the heaviest super-nodes first, each onto the
currently lightest shard.  The seed only breaks ties between
equal-weight super-nodes — any seed yields a valid partition, and the
golden-digest tests exercise several to prove the simulation outcome is
partition-independent.

Affinity groups force sets of ASes onto one shard.  The coordinator
takes one group per timeline event from
:meth:`~repro.simulation.events.ScenarioEvent.affinity`: the endpoints
of every *degradable* link (a flap with loss or a gray failure).  Silent
loss is rolled from the transport's seeded RNG on the receiver's shard,
so co-locating both endpoints of every lossy link keeps all rolls of one
run in a single stream, in delivery order — matching the single-process
sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.topology.graph import Topology


@dataclass(frozen=True)
class Partition:
    """An assignment of every AS to one shard.

    Attributes:
        shards: Per-shard sorted AS-id tuples; index is the shard id.
        owner: AS id → owning shard index (the inverse mapping).
        seed: The tie-break seed the partitioner used.
    """

    shards: Tuple[Tuple[int, ...], ...]
    owner: Dict[int, int]
    seed: int

    def cross_links(self, topology: Topology) -> List:
        """Return the links whose endpoints live on different shards."""
        return [
            link
            for link in topology.links.values()
            if self.owner[link.interface_a[0]] != self.owner[link.interface_b[0]]
        ]

    def lookahead_ms(self, topology: Topology, processing_delay_ms: float) -> float:
        """Return the conservative lookahead of this partition.

        Any message crossing a shard boundary is delayed by at least the
        smallest cross-shard ``link latency + processing delay``, so a
        shard may safely simulate that far past the global next event
        without missing an import.  ``inf`` when nothing crosses (each
        shard is a closed component).
        """
        latencies = [link.latency_ms for link in self.cross_links(topology)]
        if not latencies:
            return float("inf")
        return min(latencies) + processing_delay_ms


def partition_topology(
    topology: Topology,
    shards: int,
    seed: int = 0,
    affinity_groups: Sequence[Iterable[int]] = (),
) -> Partition:
    """Partition ``topology`` into ``shards`` degree-balanced shards.

    Affinity groups are merged into super-nodes first (transitively —
    overlapping groups coalesce), then super-nodes are placed heaviest
    first onto the lightest shard.  With more shards than super-nodes the
    surplus shards stay empty rather than failing, so a caller asking for
    4 workers on a 3-AS topology still gets a working (if lopsided)
    partition.

    Raises:
        ConfigurationError: On a non-positive shard count, an empty
            topology, or an affinity member outside the topology.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shards}")
    as_ids = sorted(info.as_id for info in topology)
    if not as_ids:
        raise ConfigurationError("cannot partition an empty topology")

    parent: Dict[int, int] = {as_id: as_id for as_id in as_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in affinity_groups:
        members = list(group)
        for member in members:
            if member not in parent:
                raise ConfigurationError(
                    f"affinity group member {member} is not in the topology"
                )
        for member in members[1:]:
            root_a, root_b = find(members[0]), find(member)
            if root_a != root_b:
                parent[max(root_a, root_b)] = min(root_a, root_b)

    super_nodes: Dict[int, List[int]] = {}
    for as_id in as_ids:
        super_nodes.setdefault(find(as_id), []).append(as_id)

    rng = random.Random(seed)
    weighted = [
        (sum(topology.degree_of(member) for member in members), root, members)
        for root, members in sorted(super_nodes.items())
    ]
    # Heaviest first; the seed only permutes nodes of equal weight.
    weighted.sort(key=lambda item: (-item[0], rng.random()))

    loads = [0] * shards
    assignment: List[List[int]] = [[] for _ in range(shards)]
    owner: Dict[int, int] = {}
    for weight, _root, members in weighted:
        target = min(range(shards), key=lambda index: (loads[index], index))
        loads[target] += max(weight, 1)
        assignment[target].extend(members)
        for member in members:
            owner[member] = target
    return Partition(
        shards=tuple(tuple(sorted(members)) for members in assignment),
        owner=owner,
        seed=seed,
    )

"""Synthetic candidate-beacon workloads for the micro-benchmarks.

Figures 6 and 7 benchmark RAC processing over candidate sets Φ of sizes 1
to 4096.  The workload generator here builds such sets without running a
full simulation: it constructs a small line of ASes ending at the
benchmarked AS and originates one beacon per candidate, varying the path
length, per-hop latencies and link bandwidths deterministically so that the
selection algorithms have real work to do.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.extensions import ExtensionSet
from repro.core.staticinfo import StaticInfo
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer

#: AS identifier of the AS "executing" the benchmark (never on the path).
BENCHMARK_LOCAL_AS = 999_999


def synthetic_candidate_set(
    size: int,
    origin_as: int = 1,
    seed: int = 7,
    max_hops: int = 6,
    key_store: Optional[KeyStore] = None,
    extensions: Optional[ExtensionSet] = None,
) -> List[CandidateBeacon]:
    """Build ``size`` candidate beacons originating at ``origin_as``.

    Every candidate describes a distinct path from the origin through a few
    intermediate ASes, with deterministic pseudo-random hop latencies and
    bandwidths, and a valid signature chain.

    Args:
        size: Number of candidates (|Φ|).
        origin_as: Origin AS of every candidate (RAC buckets are per origin).
        seed: Seed for the deterministic variation of paths and metrics.
        max_hops: Maximum number of AS entries per beacon.
        key_store: Key store used for signing; a private one is created when
            omitted.
        extensions: Extensions stamped on every beacon (e.g. an algorithm
            extension when benchmarking an on-demand RAC).

    Returns:
        Candidate beacons with ingress interface 1, ready to feed into an
        :class:`~repro.algorithms.base.ExecutionContext` or to insert into
        an :class:`~repro.core.databases.IngressDatabase`.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    rng = random.Random(seed)
    store = key_store or KeyStore()
    candidates: List[CandidateBeacon] = []
    for index in range(size):
        beacon = _synthetic_beacon(
            index=index,
            origin_as=origin_as,
            rng=rng,
            max_hops=max_hops,
            key_store=store,
            extensions=extensions,
        )
        candidates.append(CandidateBeacon(beacon=beacon, ingress_interface=1))
    return candidates


def _synthetic_beacon(
    index: int,
    origin_as: int,
    rng: random.Random,
    max_hops: int,
    key_store: KeyStore,
    extensions: Optional[ExtensionSet],
) -> Beacon:
    """Build one synthetic beacon with a unique path and varied metrics."""
    hop_count = 1 + (index % max_hops)
    builder = BeaconBuilder(as_id=origin_as, signer=Signer(as_id=origin_as, key_store=key_store))
    beacon = builder.originate(
        egress_interface=1 + (index % 4),
        created_at_ms=0.0,
        static_info=StaticInfo(
            link_latency_ms=rng.uniform(1.0, 30.0),
            link_bandwidth_mbps=rng.uniform(100.0, 100_000.0),
        ),
        extensions=extensions,
    )
    # Intermediate ASes get identifiers far away from real topology ranges
    # and unique per candidate so that no two beacons share a path.
    base = 1_000_000 + index * max_hops
    for hop in range(hop_count):
        as_id = base + hop
        hop_builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
        beacon = hop_builder.extend(
            beacon,
            ingress_interface=1,
            egress_interface=2,
            static_info=StaticInfo(
                intra_latency_ms=rng.uniform(0.1, 3.0),
                link_latency_ms=rng.uniform(1.0, 40.0),
                link_bandwidth_mbps=rng.uniform(100.0, 100_000.0),
            ),
        )
    return beacon

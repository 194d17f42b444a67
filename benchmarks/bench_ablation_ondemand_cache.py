"""Ablation — on-demand algorithm caching.

Paper §V-C: "by caching the executable, the RAC only needs to do this once
for all PCBs with the same origin AS and algorithm ID."  This ablation
compares on-demand RAC processing with the payload/algorithm cache enabled
and disabled, measuring the number of remote fetches and the processing
latency over repeated rounds, and additionally quantifies the benefit of
the egress database's hash-based deduplication.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import encode_builtin_payload
from repro.analysis.reporting import format_table
from repro.analysis.workloads import BENCHMARK_LOCAL_AS, synthetic_candidate_set
from repro.core.algorithm_registry import AlgorithmFetcher
from repro.core.databases import EgressDatabase, IngressDatabase
from repro.core.extensions import ExtensionSet
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.rac import RACConfig, RoutingAlgorithmContainer
from repro.crypto.hashing import algorithm_hash

ROUNDS = 5
CANDIDATES = 128


def _build_rac(cache_enabled: bool):
    payload = encode_builtin_payload("20sp")
    fetch_counter = {"count": 0}

    def transport(_origin_as, _algorithm_id):
        fetch_counter["count"] += 1
        return payload

    manager = OnDemandAlgorithmManager(
        fetcher=AlgorithmFetcher(transport=transport, cache_enabled=cache_enabled),
        cache_enabled=cache_enabled,
    )
    rac = RoutingAlgorithmContainer(
        config=RACConfig(rac_id="ablation", on_demand=True),
        on_demand_manager=manager,
    )
    return rac, payload, fetch_counter


def _database(payload):
    extensions = ExtensionSet().with_algorithm("legacy-20sp", algorithm_hash(payload))
    database = IngressDatabase()
    for stored in synthetic_candidate_set(CANDIDATES, extensions=extensions):
        database.insert(stored)
    return database


def _run_rounds(rac, database, rounds=ROUNDS):
    total_ms = 0.0
    for _ in range(rounds):
        _selections, report = rac.process(
            database=database,
            egress_interfaces=(2,),
            intra_latency_ms=lambda a, b: 0.0,
            local_as=BENCHMARK_LOCAL_AS,
        )
        total_ms += report.total_ms
    return total_ms


def test_ablation_cache_report(capsys):
    """Compare fetch counts and latency with and without the cache."""
    rows = []
    fetches = {}
    for cache_enabled in (True, False):
        rac, payload, counter = _build_rac(cache_enabled)
        database = _database(payload)
        total_ms = _run_rounds(rac, database)
        fetches[cache_enabled] = counter["count"]
        rows.append(["enabled" if cache_enabled else "disabled", counter["count"], total_ms])
    with capsys.disabled():
        print("\nAblation — on-demand algorithm cache")
        print(format_table(["cache", "remote fetches", f"total latency over {ROUNDS} rounds (ms)"], rows))

    assert fetches[True] == 1
    assert fetches[False] == ROUNDS


@pytest.mark.parametrize("cache_enabled", (True, False))
def test_ablation_cache_benchmark(benchmark, cache_enabled):
    """Benchmark repeated on-demand rounds with the cache on and off."""
    rac, payload, _counter = _build_rac(cache_enabled)
    database = _database(payload)
    total_ms = benchmark(_run_rounds, rac, database, 2)
    assert total_ms > 0.0


def test_egress_dedup_suppresses_repeat_sends():
    """Quantify hash-based egress deduplication across overlapping RAC outputs."""
    database = EgressDatabase()
    interfaces = list(range(1, 9))
    first = database.filter_new_interfaces("beacon", interfaces, expires_at_ms=1.0)
    # A second RAC selects the same beacon for an overlapping interface set.
    second = database.filter_new_interfaces("beacon", interfaces[:4] + [9], expires_at_ms=1.0)
    assert len(first) == 8
    assert second == [9]

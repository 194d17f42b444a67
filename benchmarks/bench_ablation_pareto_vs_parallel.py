"""Ablation — Sobrinho-style dominant paths vs. IREC's parallel single-criterion RACs.

Related work (§X) achieves multi-criteria optimality by keeping *all*
Pareto-dominant paths under the intersection of the criteria, at the cost
of a beacon set that grows with the number of criteria.  IREC instead runs
one algorithm per criteria set and bounds each one's output.  This ablation
measures, on the same candidate sets, how many beacons each approach
selects for propagation and how long the selection takes.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import ExecutionContext
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.analysis.reporting import format_table
from repro.analysis.workloads import BENCHMARK_LOCAL_AS, synthetic_candidate_set
from repro.core.criteria import highest_bandwidth, latency_bandwidth_pareto

CANDIDATE_SIZES = (64, 256, 1024)

#: The context's path limit; the Pareto side asks for that many, so only the
#: dominant set itself bounds what it selects.
CONTEXT_LIMIT = 1024


def _context(candidates, limit=CONTEXT_LIMIT):
    return ExecutionContext(
        local_as=BENCHMARK_LOCAL_AS,
        candidates=tuple(candidates),
        egress_interfaces=(1,),
        max_paths_per_interface=limit,
        intra_latency_ms=lambda a, b: 0.0,
    )


def _parallel_selected(candidates):
    """Total beacons selected by IREC's three single-criterion algorithms."""
    algorithms = (
        KShortestPathAlgorithm(k=1),
        DelayOptimizationAlgorithm(paths_per_interface=1),
        CriteriaSetAlgorithm(highest_bandwidth()),
    )
    digests = set()
    for algorithm in algorithms:
        result = algorithm.execute(_context(candidates))
        digests.update(beacon.digest() for beacon in result.beacons_for(1))
    return len(digests)


def _pareto_selected(candidates):
    algorithm = CriteriaSetAlgorithm(latency_bandwidth_pareto(), paths_per_interface=CONTEXT_LIMIT)
    result = algorithm.execute(_context(candidates))
    return len(result.beacons_for(1))


def test_ablation_pareto_report(capsys):
    """Compare the propagation load of the two approaches across |Φ|."""
    rows = []
    for size in CANDIDATE_SIZES:
        candidates = synthetic_candidate_set(size)
        parallel = _parallel_selected(candidates)
        pareto = _pareto_selected(candidates)
        rows.append([size, parallel, pareto, pareto / max(1, parallel)])
    with capsys.disabled():
        print("\nAblation — beacons selected: parallel single-criterion RACs vs. dominant paths")
        print(format_table(["|Phi|", "IREC (3 RACs)", "Pareto dominant", "ratio"], rows))

    # IREC's output is bounded by the number of criteria (3 here); the
    # dominant set grows with the candidate set, as the paper argues.
    for size, parallel, pareto, _ratio in rows:
        assert parallel <= 3
        assert pareto >= parallel
    assert rows[-1][2] > rows[0][2]


@pytest.mark.parametrize("size", (64, 256))
def test_pareto_selection_benchmark(benchmark, size):
    """Benchmark dominant-path selection over |Φ| candidates."""
    candidates = synthetic_candidate_set(size)
    count = benchmark(_pareto_selected, candidates)
    assert count >= 1


@pytest.mark.parametrize("size", (64, 256))
def test_parallel_selection_benchmark(benchmark, size):
    """Benchmark IREC's three parallel single-criterion selections."""
    candidates = synthetic_candidate_set(size)
    count = benchmark(_parallel_selected, candidates)
    assert count >= 1

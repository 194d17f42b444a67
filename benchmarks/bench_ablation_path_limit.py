"""Ablation — registration limit (paths per criteria, origin AS and interface group).

The paper fixes the registration limit at 20 paths per (criteria, origin,
interface group) (§VIII-B), which bounds both the path service's memory and
the theoretical maximum TLF.  This ablation sweeps the path service's quota
— :attr:`ScenarioConfig.registration_limit`, which sizes every AS's
``PathService`` — and reports how the number of registered paths and the
achievable disjointness react, confirming that the limit is the binding
constraint for multi-path algorithms but not for 1SP.
"""

from __future__ import annotations

import pytest

from repro.analysis.disjointness_eval import evaluate_disjointness
from repro.analysis.reporting import format_table
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import (
    ScenarioConfig,
    five_shortest_paths_spec,
    heuristic_disjointness_spec,
    one_shortest_path_spec,
)
from repro.topology.generator import generate_topology

from conftest import bench_topology_config, simulation_periods

#: Full multi-period simulations; excluded from the default tier-1 run.
pytestmark = pytest.mark.slow

LIMITS = (1, 5, 20)


def _scenario(limit: int, periods: int) -> ScenarioConfig:
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            heuristic_disjointness_spec(),
        ),
        periods=periods,
        verify_signatures=False,
        registration_limit=limit,
    )


@pytest.fixture(scope="module")
def sweep_results():
    periods = simulation_periods()
    config = bench_topology_config()
    results = {}
    for limit in LIMITS:
        results[limit] = BeaconingSimulation(
            generate_topology(config), _scenario(limit, periods)
        ).run()
    return results


def test_ablation_registration_limit_report(sweep_results, capsys):
    """Print registered-path counts and TLF as the limit grows."""
    rows = []
    registered = {}
    tlf_by_limit = {}
    for limit, result in sweep_results.items():
        as_ids = result.topology.as_ids()
        probe = as_ids[-1]
        registered[limit] = len(result.service(probe).path_service.all_paths())
        pairs = [(as_ids[-1], as_ids[0]), (as_ids[-2], as_ids[1])]
        evaluation = evaluate_disjointness(result, tags=["hd"], as_pairs=pairs)
        tlf = sum(evaluation.tlf["hd"])
        tlf_by_limit[limit] = tlf
        rows.append([limit, registered[limit], tlf])
    with capsys.disabled():
        print("\nAblation — registration limit vs. registered paths and HD disjointness")
        print(format_table(["limit", "registered paths @ probe AS", "sum TLF (HD)"], rows))

    # A larger limit can only help: registered paths and TLF are monotone.
    assert [registered[limit] for limit in LIMITS] == sorted(registered.values())
    assert tlf_by_limit[20] >= tlf_by_limit[1]
    # And the limit binds: one path per key registers fewer than twenty.
    assert registered[1] < registered[20]


def test_ablation_limit_benchmark(benchmark):
    """Benchmark the limit-20 configuration (the paper's setting)."""
    config = bench_topology_config()

    def run():
        return BeaconingSimulation(
            generate_topology(config), _scenario(20, periods=2)
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.collector.total_sent > 0

#!/usr/bin/env python3
"""One-command experiment sweep over scenario × policy × scale grids.

Reads a declarative TOML grid (see ``examples/grids/``), runs one full
beaconing + traffic simulation per cell and appends one JSON line per
cell to a result log (see :mod:`result_logger`).  ``plot_results.py``
turns the log into fig8-style comparison plots.

Usage::

    PYTHONPATH=src python benchmarks/run_experiments.py \\
        --grid examples/grids/adversarial_small.toml

Grid schema
-----------

``[grid]``
    ``name`` (str), ``seed`` (int, base seed), ``periods`` (int),
    ``scenarios`` / ``policies`` / ``scales`` (lists of registry names),
    ``verify_signatures`` (bool, default true — required for the
    Byzantine scenarios to mean anything).
``[scenarios.<name>]``
    Per-scenario parameters (see the ``SCENARIOS`` registry).
``[traffic]``
    ``demand_mbps``, ``flows``, ``max_pairs``, ``rounds_per_period``.

Determinism: every cell derives its seed as ``base seed + cell index``
over the sorted cell list, so re-running the grid — or one cell
standalone with the logged seed — reproduces the logged metrics
bit-for-bit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
import time
import tomllib
from typing import Callable, Dict, List, Optional, Tuple

if __package__ is None or __package__ == "":
    _here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))
    sys.path.insert(0, _here)

from result_logger import SCHEMA_VERSION, ResultLogger

from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import (
    byzantine_attack,
    flapping_links,
    gray_failures,
    growth_churn,
)
from repro.simulation.scenario import ScenarioConfig, dob_scenario, don_scenario
from repro.topology.generator import TopologyConfig, generate_topology, paper_scale_config
from repro.topology.graph import Topology
from repro.traffic.demand import gravity_matrix
from repro.traffic.engine import TrafficEngine

# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------

#: A scenario builder installs timeline events into ``scenario`` and
#: returns run options (currently only ``closed_loop``).
ScenarioBuilder = Callable[[ScenarioConfig, Topology, random.Random, Dict], Dict]


def _build_clean(
    scenario: ScenarioConfig, topology: Topology, rng: random.Random, params: Dict
) -> Dict:
    """Baseline: no adversarial events at all."""
    return {}


def _build_flap(
    scenario: ScenarioConfig, topology: Topology, rng: random.Random, params: Dict
) -> Dict:
    """Flapping links with directional loss; traffic runs closed-loop."""
    interval = scenario.propagation_interval_ms
    scenario.timeline.extend(
        flapping_links(
            topology,
            count=int(params.get("links", 1)),
            rng=rng,
            start_ms=1.5 * interval,
            cycles=int(params.get("cycles", 2)),
            mean_down_ms=float(params.get("mean_down_ms", interval / 4.0)),
            mean_up_ms=float(params.get("mean_up_ms", interval / 2.0)),
            loss_rate=float(params.get("loss_rate", 0.3)),
        )
    )
    return {"closed_loop": True}


def _build_gray(
    scenario: ScenarioConfig, topology: Topology, rng: random.Random, params: Dict
) -> Dict:
    """Silent gray failures — only closed-loop traffic can route around them."""
    interval = scenario.propagation_interval_ms
    duration = params.get("duration_periods", 1.0)
    scenario.timeline.extend(
        gray_failures(
            topology,
            count=int(params.get("links", 1)),
            rng=rng,
            at_ms=1.5 * interval,
            drop_rate=float(params.get("drop_rate", 1.0)),
            duration_ms=None if duration is None else float(duration) * interval,
        )
    )
    return {"closed_loop": True}


def _build_byzantine(
    scenario: ScenarioConfig, topology: Topology, rng: random.Random, params: Dict
) -> Dict:
    """Forged + replayed revocations from one attacker AS.

    ``enabled = false`` turns the attacker off while keeping the rest of
    the cell identical — the digest-equality control used to prove that
    a defeated attack leaves the run bit-for-bit unchanged.
    """
    if not params.get("enabled", True):
        return {}
    interval = scenario.propagation_interval_ms
    links = sorted(topology.link_ids())
    link_id = links[rng.randrange(len(links))]
    (origin_as, _if_a), (other_as, _if_b) = link_id
    attackers = [as_id for as_id in sorted(topology.as_ids()) if as_id not in (origin_as, other_as)]
    attacker_as = attackers[rng.randrange(len(attackers))] if attackers else other_as
    scenario.timeline.extend(
        byzantine_attack(
            attacker_as=attacker_as,
            claimed_origin=origin_as,
            link_id=link_id,
            at_ms=1.5 * interval,
            forgeries=int(params.get("forgeries", 3)),
            replays=int(params.get("replays", 0)),
            suppress=bool(params.get("suppress", False)),
        )
    )
    return {}


def _build_churn(
    scenario: ScenarioConfig, topology: Topology, rng: random.Random, params: Dict
) -> Dict:
    """Join churn: brand-new ASes attach to the running topology."""
    interval = scenario.propagation_interval_ms
    scenario.timeline.extend(
        growth_churn(
            topology,
            count=int(params.get("joins", 1)),
            rng=rng,
            start_ms=1.5 * interval,
            spacing_ms=float(params.get("spacing_ms", interval / 2.0)),
            attach_degree=int(params.get("attach_degree", 2)),
        )
    )
    return {}


SCENARIOS: Dict[str, ScenarioBuilder] = {
    "clean": _build_clean,
    "flap": _build_flap,
    "gray": _build_gray,
    "byzantine": _build_byzantine,
    "churn": _build_churn,
}

POLICIES: Dict[str, Callable[[int, bool], ScenarioConfig]] = {
    "don": lambda periods, verify: don_scenario(periods, verify_signatures=verify),
    "dob300": lambda periods, verify: dob_scenario(300.0, periods, verify_signatures=verify),
    "dob2000": lambda periods, verify: dob_scenario(2000.0, periods, verify_signatures=verify),
}


def scale_topology_config(scale: str, seed: int) -> TopologyConfig:
    """Resolve a grid's scale name to the sweep's topology config.

    The scales are the sweep's own: ``tiny`` is fast enough for 5 × 2
    grids and CI smoke runs, ``paper`` is the 500-AS configuration, and
    any other name reads as ``small``.  The figure scripts
    (``bench_fig*.py``) do not use them — they take
    ``conftest.bench_topology_config``, whose small scale is not this one.
    """
    if scale == "tiny":
        return TopologyConfig(
            num_ases=12,
            num_core=2,
            num_transit=4,
            core_parallel_links=1,
            transit_provider_count=2,
            stub_provider_count=2,
            peering_probability=0.1,
            max_pops_core=3,
            max_pops_transit=2,
            max_pops_stub=1,
            seed=seed,
        )
    if scale == "paper":
        return paper_scale_config(seed=seed)
    if scale == "large":
        return TopologyConfig(
            num_ases=260,
            num_core=8,
            num_transit=64,
            core_parallel_links=2,
            transit_provider_count=3,
            stub_provider_count=2,
            peering_probability=0.08,
            max_pops_core=6,
            max_pops_transit=3,
            max_pops_stub=2,
            seed=seed,
        )
    if scale == "medium":
        return TopologyConfig(
            num_ases=120,
            num_core=6,
            num_transit=30,
            core_parallel_links=2,
            transit_provider_count=3,
            stub_provider_count=2,
            peering_probability=0.1,
            max_pops_core=6,
            max_pops_transit=3,
            max_pops_stub=2,
            seed=seed,
        )
    return TopologyConfig(
        num_ases=30,
        num_core=4,
        num_transit=9,
        core_parallel_links=2,
        transit_provider_count=2,
        stub_provider_count=2,
        peering_probability=0.15,
        max_pops_core=5,
        max_pops_transit=3,
        max_pops_stub=2,
        seed=seed,
    )


# ----------------------------------------------------------------------
# per-cell execution
# ----------------------------------------------------------------------

def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def run_cell(
    grid: Dict,
    scenario_name: str,
    policy_name: str,
    scale_name: str,
    seed: int,
) -> Dict:
    """Run one grid cell; return its metrics dict."""
    grid_table = grid.get("grid", {})
    traffic = grid.get("traffic", {})
    periods = int(grid_table.get("periods", 3))
    verify = bool(grid_table.get("verify_signatures", True))
    params = grid.get("scenarios", {}).get(scenario_name, {})

    started = time.perf_counter()
    topology = generate_topology(scale_topology_config(scale_name, seed))
    scenario = POLICIES[policy_name](periods, verify)
    scenario.loss_seed = seed
    options = SCENARIOS[scenario_name](scenario, topology, random.Random(seed + 1), params)
    scenario.timeline.validate(topology)

    simulation = BeaconingSimulation(topology, scenario)
    as_ids = sorted(topology.as_ids())
    simulation.watch_pair(as_ids[-1], as_ids[0])
    simulation.watch_pair(as_ids[len(as_ids) // 2], as_ids[0])

    matrix = gravity_matrix(
        topology,
        total_demand_mbps=float(traffic.get("demand_mbps", 2_000.0)),
        total_flows=int(traffic.get("flows", 200)),
        max_pairs=int(traffic.get("max_pairs", 12)),
        seed=seed,
    )
    rounds_per_period = int(traffic.get("rounds_per_period", 4))
    round_interval = scenario.propagation_interval_ms / rounds_per_period
    engine = TrafficEngine.for_simulation(
        simulation,
        matrix,
        round_interval_ms=round_interval,
        closed_loop=bool(options.get("closed_loop")),
    )
    # First round one interval in (paths exist after the first beaconing
    # wave); last round strictly before the final period boundary.
    engine.schedule_rounds(round_interval, periods * rounds_per_period - 1)

    result = simulation.run()
    wall_time_s = time.perf_counter() - started

    collector = result.collector
    records = result.convergence.records
    recoveries = [
        record.recovered_at_ms - record.event_time_ms
        for record in records
        if record.recovered_at_ms is not None
    ]
    revocation_counters = {
        "received": 0,
        "duplicates": 0,
        "originated": 0,
        "forwarded": 0,
        "rejected_invalid": 0,
        "reoriginated": 0,
    }
    for service in result.services.values():
        state = service.revocations
        for counter in revocation_counters:
            revocation_counters[counter] += getattr(state, counter)

    convergence_trace = "\n".join(
        [result.convergence.trace_text(), *(record.trace_label() for record in records)]
    )
    samples = engine.collector.samples
    metrics: Dict = {
        "periods_run": result.periods_run,
        "final_time_ms": result.final_time_ms,
        "ases_final": len(result.services),
        "messages_sent": collector.total_sent,
        "messages_dropped": collector.total_dropped,
        "revocation_messages": collector.total_revocations,
        "control_messages": collector.control_messages_total(),
        "gray_dropped": collector.gray_dropped_total(),
        "convergence_records": len(records),
        "convergence_unrecovered": sum(
            1 for record in records if record.recovered_at_ms is None
        ),
        "convergence_mean_recovery_ms": _mean(recoveries),
        "convergence_digest": hashlib.sha256(
            convergence_trace.encode("utf-8")
        ).hexdigest(),
        "traffic_rounds": len(samples),
        "traffic_mean_offered_mbps": _mean([s.offered_mbps for s in samples]),
        "traffic_mean_carried_mbps": _mean([s.carried_mbps for s in samples]),
        "traffic_blackholed_rounds": sum(1 for s in samples if s.blackholed_groups),
        "traffic_reroutes": len(engine.collector.reroutes),
        "traffic_backoffs": sum(
            1 for line in engine.collector.trace if " backoff " in line
        ),
        "traffic_trace_digest": engine.collector.trace_digest(),
        "wall_time_s": round(wall_time_s, 3),
    }
    mean_ttr = engine.collector.mean_time_to_reroute_ms()
    if mean_ttr is not None:
        metrics["traffic_mean_time_to_reroute_ms"] = mean_ttr
    for counter, value in revocation_counters.items():
        metrics[f"revocations_{counter}"] = value
    return metrics


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------

def load_grid(path: str) -> Dict:
    """Parse and sanity-check one TOML grid file."""
    with open(path, "rb") as handle:
        grid = tomllib.load(handle)
    table = grid.get("grid")
    if not isinstance(table, dict):
        raise SystemExit(f"{path}: missing [grid] table")
    for key in ("name", "scenarios", "policies", "scales"):
        if key not in table:
            raise SystemExit(f"{path}: [grid] is missing {key!r}")
    for scenario in table["scenarios"]:
        if scenario not in SCENARIOS:
            raise SystemExit(
                f"{path}: unknown scenario {scenario!r}"
                f" (have: {', '.join(sorted(SCENARIOS))})"
            )
    for policy in table["policies"]:
        if policy not in POLICIES:
            raise SystemExit(
                f"{path}: unknown policy {policy!r}"
                f" (have: {', '.join(sorted(POLICIES))})"
            )
    return grid


def grid_cells(grid: Dict) -> List[Tuple[str, str, str]]:
    """Return the sorted (scenario, policy, scale) cell list of one grid."""
    table = grid["grid"]
    return sorted(
        (scenario, policy, scale)
        for scenario in table["scenarios"]
        for policy in table["policies"]
        for scale in table["scales"]
    )


def run_sweep(grid: Dict, out_path: str, quiet: bool = False) -> int:
    """Run every cell of ``grid``; return the number of records written."""
    table = grid["grid"]
    base_seed = int(table.get("seed", 7))
    cells = grid_cells(grid)
    logger = ResultLogger(out_path)
    for index, (scenario_name, policy_name, scale_name) in enumerate(cells):
        seed = base_seed + index
        if not quiet:
            print(
                f"[{index + 1}/{len(cells)}] {scenario_name} × {policy_name}"
                f" × {scale_name} (seed {seed}) ...",
                flush=True,
            )
        metrics = run_cell(grid, scenario_name, policy_name, scale_name, seed)
        logger.append(
            {
                "schema": SCHEMA_VERSION,
                "grid": table["name"],
                "scenario": scenario_name,
                "policy": policy_name,
                "scale": scale_name,
                "seed": seed,
                "metrics": metrics,
            }
        )
    if not quiet:
        print(f"wrote {logger.records_written} records to {out_path}")
    return logger.records_written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", required=True, help="TOML grid file to sweep")
    parser.add_argument(
        "--out",
        default=None,
        help="JSONL output path (default: results/<grid name>.jsonl)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    grid = load_grid(args.grid)
    out_path = args.out
    if out_path is None:
        out_path = os.path.join("results", f"{grid['grid']['name']}.jsonl")
    run_sweep(grid, out_path, quiet=args.quiet)
    return 0


if __name__ == "__main__":
    sys.exit(main())

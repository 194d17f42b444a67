"""Traffic-engine benchmark — flow-rounds/s and goodput recovery.

Measures the data-plane half of the stack at the configured scale: a
beaconing warm-up populates the path services, then a gravity+hotspot
workload of hundreds of thousands of aggregated end-host flows runs
standalone rounds over the registered paths through the capacity-aware
link model.  Reported numbers:

* **flow-rounds/s** — end-host flows advanced per wall-clock second (the
  PR 3 acceptance target is ≥100k at medium scale), and
* **goodput recovery** — in a second, scenario-coupled run, how long
  aggregate goodput stays depressed after a stub AS is cut off.

Like the other simulation-scale benchmarks this is excluded from tier-1;
run it with ``-m slow`` (``IREC_BENCH_SCALE`` selects the topology size).
"""

from __future__ import annotations

import time

import pytest

from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure, LinkRecovery
from repro.simulation.scenario import don_scenario
from repro.topology.generator import generate_topology
from repro.traffic import (
    CapacityLinkModel,
    EcmpPolicy,
    TrafficEngine,
    hotspot_matrix,
)
from repro.units import minutes

from conftest import bench_topology_config, simulation_periods

#: Full multi-period simulations; excluded from the default tier-1 run.
pytestmark = pytest.mark.slow

PERIOD_MS = minutes(10)
TOTAL_FLOWS = 500_000
MATRIX_PAIRS = 2_000
ROUNDS = 30


def warmed_up_simulation(periods: int = 2):
    """Run a short beaconing simulation to populate the path services."""
    topology = generate_topology(bench_topology_config())
    simulation = BeaconingSimulation(
        topology, don_scenario(periods=periods, verify_signatures=False)
    )
    simulation.run()
    return topology, simulation


def build_standalone_engine(topology, simulation):
    matrix = hotspot_matrix(
        topology,
        total_demand_mbps=1_000_000.0,
        total_flows=TOTAL_FLOWS,
        hotspot_as=topology.as_ids()[0],
        hotspot_fraction=0.3,
        max_pairs=min(MATRIX_PAIRS, topology.num_ases * (topology.num_ases - 1)),
        seed=3,
    )
    return TrafficEngine(
        topology=topology,
        path_services={
            as_id: service.path_service
            for as_id, service in simulation.services.items()
        },
        matrix=matrix,
        link_state=simulation.link_state,
        policy=EcmpPolicy(max_paths=2),
        link_model=CapacityLinkModel(topology, capacity_scale=0.5),
    )


def test_traffic_throughput_report(capsys):
    """Measure sustained flow-rounds/s over the registered paths."""
    topology, simulation = warmed_up_simulation()
    engine = build_standalone_engine(topology, simulation)
    start = time.perf_counter()
    collector = engine.run_rounds(ROUNDS)
    wall_s = time.perf_counter() - start
    flow_rounds = collector.total_flow_rounds
    rate = flow_rounds / wall_s if wall_s > 0 else 0.0
    last = collector.samples[-1]
    with capsys.disabled():
        print(
            f"\nTraffic throughput — {len(engine.matrix)} groups, "
            f"{engine.matrix.total_flows} flows, {topology.num_ases} ASes"
        )
        print(
            f"  {flow_rounds} flow-rounds in {wall_s:.2f}s = {rate:,.0f} flow-rounds/s"
        )
        print(
            f"  offered {last.offered_mbps:,.0f} Mbit/s, carried "
            f"{last.carried_mbps:,.0f}, max link util {last.max_link_utilization:.2f}"
        )
    assert rate >= 100_000, f"flow-round rate regressed: {rate:,.0f}/s"
    assert last.carried_mbps > 0


def test_goodput_recovery_report(capsys):
    """Measure goodput dip and recovery after cutting off a stub AS."""
    topology = generate_topology(bench_topology_config())
    periods = simulation_periods() + 3
    victim_as = topology.as_ids()[-1]
    fail_ms = 2.5 * PERIOD_MS
    scenario = don_scenario(periods=periods, verify_signatures=False)
    for link in topology.links_of(victim_as):
        scenario.timeline.add(fail_ms, LinkFailure(link.key))
        scenario.timeline.add(fail_ms + 1.5 * PERIOD_MS, LinkRecovery(link.key))
    simulation = BeaconingSimulation(topology, scenario)
    matrix = hotspot_matrix(
        topology,
        total_demand_mbps=200_000.0,
        total_flows=100_000,
        hotspot_as=victim_as,
        hotspot_fraction=0.4,
        max_pairs=min(500, topology.num_ases * (topology.num_ases - 1)),
        seed=3,
    )
    engine = TrafficEngine.for_simulation(
        simulation, matrix, policy=EcmpPolicy(max_paths=2),
        round_interval_ms=minutes(1),
    )
    engine.schedule_rounds(
        start_ms=PERIOD_MS + minutes(1), count=(periods - 1) * 10 - 2
    )
    simulation.run()
    collector = engine.collector
    recovery_ms = collector.goodput_recovery_ms(fail_ms)
    mean_ttr = collector.mean_time_to_reroute_ms()
    ttr_text = f"{mean_ttr / 1000.0:.1f}s" if mean_ttr is not None else "n/a"
    recovery_text = (
        f"{recovery_ms / minutes(1):.1f} min" if recovery_ms else "none observed"
    )
    with capsys.disabled():
        print(
            f"\nGoodput recovery — {len(collector.reroutes)} groups broken, "
            f"mean time-to-reroute {ttr_text}"
        )
        print(f"  goodput recovery: {recovery_text}")
    assert collector.reroutes, "the cutoff must break flow groups"
    assert collector.samples

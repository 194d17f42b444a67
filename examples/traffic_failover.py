#!/usr/bin/env python3
"""Flow-level traffic riding discovered paths through a timed link failure.

The dynamic-failover example measures how the *control plane* re-converges
after a failure; this one measures what that convergence is worth to
*traffic*.  A gravity-model workload with a hotspot (hundreds of thousands
of aggregated end-host flows, a third of the demand aimed at one stub AS)
runs over the paths a beaconing simulation registers, through
capacity-limited links with weighted max-min fair sharing.  A
scripted timeline then cuts a stub AS off mid-round — both of its
provider links fail:

1. flow groups riding the links are broken the instant the events fire,
2. the next traffic round re-selects from the (already withdrawn) path
   service — but every path to the stub is gone, so its groups stay
   black-holed while other traffic keeps flowing,
3. the links recover two periods later; the black hole persists until the
   *control plane* re-registers paths in the following beaconing period —
   the goodput recovery is gated by control-plane convergence, not by the
   physical repair, and
4. the goodput curve shows the dip and the recovery, with per-group
   time-to-reroute records quantifying the outage.

The whole run is seeded and deterministic: the traffic collector's trace
digest is pinned by ``tests/test_traffic_engine.py``.

Run it with::

    python examples/traffic_failover.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table, format_timeseries
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure, LinkRecovery
from repro.simulation.scenario import don_scenario
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic import CapacityLinkModel, EcmpPolicy, TrafficEngine, hotspot_matrix
from repro.units import minutes

PERIOD_MS = minutes(10)
ROUND_MS = minutes(1)


def build():
    """Build the pinned deterministic scenario; return (simulation, engine)."""
    topology = generate_topology(
        TopologyConfig(num_ases=24, num_core=4, num_transit=8, seed=13)
    )
    as_ids = topology.as_ids()
    victim_as = as_ids[-1]

    # Gravity-model demand plus a hotspot: 250k end-host flows aggregated
    # into flow groups, a third of the demand destined to the victim stub
    # (the flash crowd the failure will cut off).
    matrix = hotspot_matrix(
        topology,
        total_demand_mbps=40_000.0,
        total_flows=250_000,
        hotspot_as=victim_as,
        hotspot_fraction=0.35,
        max_pairs=150,
        seed=3,
    )

    # Cut the victim stub off mid-round at 2.54 periods (every provider
    # link fails), repair the links two periods later; paths only return
    # once the next beaconing period re-registers them.
    victim_links = [link.key for link in topology.links_of(victim_as)]
    scenario = don_scenario(periods=7, verify_signatures=False)
    for link_id in victim_links:
        scenario.timeline.add(2.54 * PERIOD_MS, LinkFailure(link_id))
        scenario.timeline.add(4.54 * PERIOD_MS, LinkRecovery(link_id))

    simulation = BeaconingSimulation(topology, scenario)
    engine = TrafficEngine.for_simulation(
        simulation,
        matrix,
        policy=EcmpPolicy(max_paths=2),
        round_interval_ms=ROUND_MS,
        link_model=CapacityLinkModel(topology),
    )
    # Traffic starts after the first beaconing period has registered paths.
    engine.schedule_rounds(start_ms=1.0 * PERIOD_MS + ROUND_MS, count=58)
    return simulation, engine


def main() -> None:
    simulation, engine = build()
    matrix = engine.matrix
    print(
        f"Workload: {matrix.total_flows} flows in {len(matrix)} flow groups "
        f"(gravity + hotspot), "
        f"{matrix.total_demand_mbps:.0f} Mbit/s offered over "
        f"{simulation.topology.num_ases} ASes."
    )
    for timed in simulation.scenario.timeline:
        print(f"  t={timed.time_ms / PERIOD_MS:5.2f} periods  {timed.event.trace_label()}")

    result = simulation.run()
    collector = engine.collector

    print(
        f"\nRan {engine.rounds_run} traffic rounds inside {result.periods_run} "
        f"beaconing periods: {collector.total_flow_rounds} flow-rounds simulated."
    )

    failure_ms = min(t.time_ms for t in simulation.scenario.timeline)
    repair_ms = max(t.time_ms for t in simulation.scenario.timeline)
    print("\nGoodput (carried Mbit/s per round, minutes of simulated time):")
    series = collector.goodput_series()
    window = [
        (time, value)
        for time, value in series
        if failure_ms - 3 * ROUND_MS <= time <= failure_ms + 5 * ROUND_MS
        or repair_ms + 9 * ROUND_MS <= time <= repair_ms + 23 * ROUND_MS
    ]
    print(format_timeseries(window, value_label="carried Mbit/s",
                            time_divisor=minutes(1), time_label="t (min)"))

    if collector.reroutes:
        rows = [
            [
                record.group_id,
                record.flows,
                record.cause,
                f"{record.broken_at_ms / minutes(1):.2f}",
                f"{record.time_to_reroute_ms / 1000.0:.1f} s"
                if record.rerouted
                else "black-holed",
            ]
            for record in collector.reroutes[:10]
        ]
        print(
            f"\nFlow groups broken by the failure "
            f"({len(collector.reroutes)} total, first {len(rows)}):"
        )
        print(format_table(["group", "flows", "cause", "broken at (min)", "time to reroute"], rows))
        mean_ttr = collector.mean_time_to_reroute_ms()
        if mean_ttr is not None:
            print(f"\nMean time-to-reroute: {mean_ttr / 1000.0:.1f} s")
    recovery = collector.goodput_recovery_ms(failure_ms)
    if recovery is not None:
        print(f"Goodput recovered {recovery / minutes(1):.1f} min after the failure.")
    else:
        print("Goodput did not dip below tolerance (failover absorbed the failure).")
    print(f"\nTraffic trace digest: {collector.trace_digest()}")


if __name__ == "__main__":
    main()

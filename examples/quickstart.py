#!/usr/bin/env python3
"""Quickstart: generate a topology, run IREC beaconing, query paths.

This example walks through the minimal IREC workflow:

1. generate a small synthetic inter-domain topology (the library's stand-in
   for the CAIDA geo-rel dataset),
2. deploy IREC in every AS with two parallel routing algorithms — shortest
   path and delay optimization,
3. run a few beaconing periods in the discrete-event simulator, and
4. query one AS's path service the way an end host would, showing that the
   two algorithms discovered different optimal paths for their criteria,
   and let an end-host selection policy pick the lowest-latency one.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.criteria import lowest_latency
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import (
    ScenarioConfig,
    delay_optimization_spec,
    one_shortest_path_spec,
)
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic import CriteriaPolicy


def main() -> None:
    # 1. A 20-AS synthetic topology: a meshed core, transit ASes and stubs,
    #    with geo-embedded links whose latency follows great-circle distance.
    topology = generate_topology(
        TopologyConfig(num_ases=20, num_core=3, num_transit=6, seed=42)
    )
    print("Topology:", topology.summary())

    # 2. Every AS runs two parallel RACs: 1SP (shortest path) and DON (delay
    #    optimization on received paths).
    scenario = ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            delay_optimization_spec(extended_paths=False),
        ),
        periods=4,
        verify_signatures=True,
    )

    # 3. Run the beaconing simulation.
    simulation = BeaconingSimulation(topology, scenario)
    result = simulation.run()
    print(
        f"Simulated {result.periods_run} beaconing periods; "
        f"{result.collector.total_sent} PCBs were sent in total."
    )

    # 4. Act as an end host in the highest-numbered AS and ask the local
    #    path service, through its query frontend, for paths towards AS 1
    #    (a core AS).
    source_as = topology.as_ids()[-1]
    destination_as = topology.as_ids()[0]
    paths = result.service(source_as).query_frontend.paths(destination_as)
    rows = [
        [
            "/".join(path.criteria_tags),
            " -> ".join(str(a) for a in path.segment.as_path()),
            path.segment.hop_count,
            path.segment.total_latency_ms(),
        ]
        for path in paths
    ]
    print(f"\nPaths registered at AS {source_as} towards AS {destination_as}:")
    print(format_table(["criteria", "AS path", "hops", "latency (ms)"], rows))

    for best, _share in CriteriaPolicy(lowest_latency())(paths):
        print(
            f"\nLowest-latency choice: {best.segment.as_path()} "
            f"at {best.segment.total_latency_ms():.2f} ms"
        )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Operating IREC: admission policies, disjoint multipath and fast failover.

This example shows the "operations" side of the reproduction, combining
pieces that a network operator would actually deploy:

1. every AS installs **admission policies** at its ingress gateway
   (path-length cap, valley-free enforcement, an avoided AS),
2. a flow group at the source AS splits its traffic over a **maximally
   link-disjoint path set** of the registered paths (``DisjointPolicy``),
3. a ``LinkFailure`` takes down the first link of the primary path, and
4. as soon as the revocation reaches the source, the flow group
   **re-selects** among the disjoint paths that were registered in advance
   and keeps its traffic flowing without waiting for the control plane to
   reconverge — while a packet forced over the failed primary is dropped.

The run is deterministic, so the example runs it twice: a rehearsal
without the failure tells which primary the policy picks, and the real
run fails that primary's first link.

Run it with::

    python examples/failover_and_policies.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.policies import standard_policies
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.path import forwarding_path_from_segment
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure
from repro.simulation.scenario import disjointness_scenario
from repro.topology.generator import TopologyConfig, generate_topology
from repro.traffic import DisjointPolicy, FlowGroup, TrafficEngine, TrafficMatrix
from repro.units import minutes

PERIOD_MS = minutes(10)
ROUND_MS = minutes(1)
#: Traffic starts once two beaconing periods have registered paths.
TRAFFIC_START_MS = 2 * PERIOD_MS + ROUND_MS
FAILURE_MS = 2.54 * PERIOD_MS
DEMAND_MBPS = 100.0


def build(failed_link=None):
    """Build the deterministic scenario; return (simulation, engine, decisions).

    ``decisions`` fills with one ``(time_ms, paths)`` entry per selection
    the flow group's policy makes that finds a path.  With ``failed_link`` set, that link
    fails at ``FAILURE_MS``.
    """
    topology = generate_topology(
        TopologyConfig(num_ases=24, num_core=4, num_transit=8, seed=13)
    )
    as_ids = topology.as_ids()
    source_as, destination_as = as_ids[-1], as_ids[0]
    avoided_as = as_ids[len(as_ids) // 2]

    scenario = disjointness_scenario(periods=3, verify_signatures=False)
    if failed_link is not None:
        scenario.timeline.add(FAILURE_MS, LinkFailure(failed_link))
    simulation = BeaconingSimulation(topology, scenario)
    for service in simulation.services.values():
        policy = standard_policies(max_hops=8, avoided_ases=[avoided_as])
        service.ingress.policies.append(policy)

    # A selection policy is one callable; this one records what it picks.
    disjoint = DisjointPolicy(max_paths=3)
    decisions = []

    def policy(candidates):
        decision = disjoint(candidates)
        if decision:
            decisions.append((simulation.now_ms, [path for path, _share in decision]))
        return decision

    matrix = TrafficMatrix(
        groups=(FlowGroup(0, source_as, destination_as, demand_mbps=DEMAND_MBPS),)
    )
    engine = TrafficEngine.for_simulation(
        simulation, matrix, policy=policy, round_interval_ms=ROUND_MS
    )
    engine.schedule_rounds(start_ms=TRAFFIC_START_MS, count=9)
    return simulation, engine, decisions


def carried_at(engine, time_ms):
    """Return the carried rate of the first round at or after ``time_ms``."""
    return next(s.carried_mbps for s in engine.collector.samples if s.time_ms >= time_ms)


def main() -> None:
    # 1. The rehearsal: the flow group's first choice names the primary.
    rehearsal, _engine, rehearsed = build()
    rehearsal.run()
    if not rehearsed:
        print("no paths registered — increase the number of simulated periods")
        return
    victim = rehearsed[0][1][0].segment.links()[0]

    # 2. The real run: the primary's first link fails mid-run.
    simulation, engine, decisions = build(failed_link=victim)
    group = engine.matrix.groups[0]
    result = simulation.run()

    rejected = sum(s.ingress.stats.rejected_policy for s in simulation.services.values())
    print(
        f"Admission policies rejected {rejected} PCBs network-wide "
        f"(paths longer than 8 hops or crossing the avoided AS).\n"
    )

    selected_at, disjoint = decisions[0]
    primary = disjoint[0]
    rows = [
        [
            index,
            " -> ".join(str(a) for a in path.segment.as_path()),
            "/".join(path.criteria_tags),
            f"{path.segment.total_latency_ms():.1f}",
        ]
        for index, path in enumerate(disjoint)
    ]
    print(
        f"Disjoint path set from AS {group.source_as} to AS {group.destination_as} "
        f"(path 0 is the primary):"
    )
    print(format_table(["#", "AS path", "criteria", "latency (ms)"], rows))

    # 3. What the flow group rode before and after the failure.
    reselected_at, survivors = decisions[-1]
    print(f"\nTraffic before and after failing the primary path's first link {victim}:")
    print(
        format_table(
            ["phase", "carried (Mbit/s)", "paths used", "primary used", "latency (ms)"],
            [
                [
                    phase,
                    f"{carried_at(engine, at_ms):.1f}",
                    len(paths),
                    primary in paths,
                    " / ".join(f"{p.segment.total_latency_ms():.1f}" for p in paths),
                ]
                for phase, at_ms, paths in (
                    ("before failure", selected_at, disjoint),
                    ("after failure", reselected_at, survivors),
                )
            ],
        )
    )
    for record in engine.collector.reroutes:
        outcome = (
            f"re-selected {record.time_to_reroute_ms / 1000.0:.1f} s later, "
            f"at its next traffic round"
            if record.rerouted
            else "found no path since"
        )
        print(
            f"\nThe flow group broke at t={record.broken_at_ms / minutes(1):.2f} min "
            f"({record.cause}) and {outcome}."
        )
    if reselected_at > FAILURE_MS and primary not in survivors:
        print(
            "The flow group switched to the link-disjoint paths registered in advance "
            "without any control-plane reconvergence."
        )

    # 4. The packet walk reads the same link state: the primary is down.
    network = DataPlaneNetwork(topology=result.topology, link_state=simulation.link_state)
    forced = network.deliver(forwarding_path_from_segment(primary.segment))
    print(f"A packet forced over the failed primary path: {forced.failure_reason}.")


if __name__ == "__main__":
    main()

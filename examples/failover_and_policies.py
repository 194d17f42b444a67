#!/usr/bin/env python3
"""Operating IREC: admission policies, disjoint multipath and fast failover.

This example shows the "operations" side of the reproduction, combining
pieces that a network operator would actually deploy:

1. every AS installs **admission policies** at its ingress gateway
   (path-length cap, valley-free enforcement, an avoided AS),
2. the source AS selects a **maximally link-disjoint path set** from the
   registered paths,
3. a link fails in the data plane's :class:`LinkState`, and
4. the **failover forwarder** keeps delivering packets over the surviving
   disjoint path without waiting for the control plane to reconverge —
   exactly the benefit of registering disjoint paths in advance — while a
   packet forced over the failed primary is dropped.

Run it with::

    python examples/failover_and_policies.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.policies import standard_policies
from repro.dataplane.multipath import FailoverForwarder, MultipathSelector
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.path import forwarding_path_from_segment
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import disjointness_scenario
from repro.topology.generator import TopologyConfig, generate_topology


def main() -> None:
    topology = generate_topology(
        TopologyConfig(num_ases=24, num_core=4, num_transit=8, seed=13)
    )
    as_ids = topology.as_ids()
    source_as, destination_as = as_ids[-1], as_ids[0]
    avoided_as = as_ids[len(as_ids) // 2]

    # 1. Build the simulation and install admission policies at every AS.
    scenario = disjointness_scenario(periods=3, verify_signatures=False)
    simulation = BeaconingSimulation(topology, scenario)
    for service in simulation.services.values():
        policy = standard_policies(max_hops=8, avoided_ases=[avoided_as])
        service.ingress.policies.append(policy)
    result = simulation.run()

    rejected = sum(s.ingress.stats.rejected_policy for s in simulation.services.values())
    print(
        f"Admission policies rejected {rejected} PCBs network-wide "
        f"(paths longer than 8 hops or crossing AS {avoided_as}).\n"
    )

    # 2. Select a disjoint path set at the source.
    path_service = result.service(source_as).path_service
    selector = MultipathSelector(path_service=path_service)
    disjoint = selector.disjoint_paths(destination_as, max_paths=3)
    rows = [
        [
            index,
            " -> ".join(str(a) for a in path.segment.as_path()),
            "/".join(path.criteria_tags),
            f"{path.segment.total_latency_ms():.1f}",
        ]
        for index, path in enumerate(disjoint)
    ]
    print(f"Disjoint path set from AS {source_as} to AS {destination_as}:")
    print(format_table(["#", "AS path", "criteria", "latency (ms)"], rows))
    if not disjoint:
        print("no paths registered — increase the number of simulated periods")
        return

    # 3. Fail the primary path's first inter-domain link.  The forwarder
    #    skips what the network's link state reports down, and the network
    #    drops what crosses it: one failure model for both.
    network = DataPlaneNetwork(topology=topology)
    forwarder = FailoverForwarder(network=network, paths=disjoint)

    before = forwarder.deliver()
    victim = disjoint[0].segment.links()[0]
    network.link_state.fail_link(victim)
    after = forwarder.deliver()
    forced = network.deliver(Packet(path=forwarding_path_from_segment(disjoint[0].segment)))

    print("\nDelivery before and after failing the primary path's first link:")
    print(
        format_table(
            ["phase", "delivered", "path used", "latency (ms)", "usable disjoint paths"],
            [
                [
                    "before failure",
                    before.delivered,
                    before.used_path_index,
                    f"{before.delivery.latency_ms:.1f}" if before.delivery else "-",
                    len(disjoint),
                ],
                [
                    "after failure",
                    after.delivered,
                    after.used_path_index,
                    f"{after.delivery.latency_ms:.1f}" if after.delivery else "-",
                    forwarder.usable_path_count(),
                ],
            ],
        )
    )
    if after.delivered and after.used_path_index != before.used_path_index:
        print(
            "\nThe failover forwarder switched to a link-disjoint backup path without "
            "any control-plane reconvergence."
        )
    print(f"A packet forced over the failed primary path: {forced.failure_reason}.")


if __name__ == "__main__":
    main()

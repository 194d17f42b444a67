#!/usr/bin/env python3
"""Dynamic scenarios: timed failures, churn and convergence metrics.

The static examples stop at "inject a failure, check which paths survive".
This one drives the full dynamic loop the paper's Figure-8b argument is
about: events fire *while beaconing runs*, in-flight PCBs on a failed link
are lost, every AS withdraws the poisoned state, and the next beaconing
periods re-converge.

The scripted timeline:

1. a core link fails mid-period (PCBs on it are dropped, paths over it are
   withdrawn network-wide),
2. the link recovers two periods later (paths re-propagate), and
3. one stub AS churns — leaves and rejoins — under a seeded RNG.

A :class:`ConvergenceCollector` watches a stub-to-core AS pair and reports
paths lost, time-to-recovery and the control-message overhead spent
re-converging.  The run is fully deterministic: re-running prints the same
report.

Run it with::

    python examples/dynamic_failover.py
"""

from __future__ import annotations

import random

from repro.analysis.reporting import format_table
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure, LinkRecovery, random_churn
from repro.simulation.scenario import don_scenario
from repro.topology.generator import TopologyConfig, generate_topology
from repro.units import minutes

PERIOD_MS = minutes(10)


def main() -> None:
    topology = generate_topology(
        TopologyConfig(num_ases=24, num_core=4, num_transit=8, seed=13)
    )
    as_ids = topology.as_ids()
    source_as, origin_as = as_ids[-1], as_ids[0]

    # The victim: one of the parallel links inside the fully meshed core.
    core_link = topology.links_between(as_ids[0], as_ids[1])[0].key

    scenario = don_scenario(periods=8, verify_signatures=False)
    # 1. + 2. — fail the core link mid-period 3, recover it two periods later.
    scenario.timeline.add(3.5 * PERIOD_MS, LinkFailure(core_link))
    scenario.timeline.add(5.5 * PERIOD_MS, LinkRecovery(core_link))
    # 3. — churn one stub AS (leave, rejoin one period later), seeded.
    stub_candidates = [a for a in as_ids if a not in (source_as, origin_as)][-8:]
    scenario.timeline.extend(
        random_churn(
            topology,
            count=1,
            rng=random.Random(2025),
            start_ms=4.5 * PERIOD_MS,
            spacing_ms=PERIOD_MS,
            downtime_ms=PERIOD_MS,
            candidates=stub_candidates,
        )
    )

    print("Scripted timeline:")
    for timed in scenario.timeline:
        print(f"  t={timed.time_ms / PERIOD_MS:4.1f} periods  {timed.event.trace_label()}")

    simulation = BeaconingSimulation(topology, scenario)
    simulation.watch_pair(source_as, origin_as)
    result = simulation.run()

    print(
        f"\nSimulated {result.periods_run} periods over {topology.num_ases} ASes: "
        f"{result.collector.total_sent} PCBs sent, "
        f"{result.collector.total_dropped} lost on failed links, "
        f"{result.collector.total_revocations} revocation messages "
        f"({result.collector.revocations_dropped} lost in flight).\n"
    )

    records = result.convergence.records
    if not records:
        print(f"Watched pair AS {source_as} -> AS {origin_as} was never disrupted.")
    else:
        rows = [
            [
                record.event_label,
                f"{record.event_time_ms / PERIOD_MS:.1f}",
                record.paths_lost,
                record.paths_regained,
                f"{record.time_to_recovery_ms / PERIOD_MS:.1f}"
                if record.recovered
                else "not recovered",
                record.control_message_overhead
                if record.control_message_overhead is not None
                else "-",
            ]
            for record in records
        ]
        print(f"Disruptions of the watched pair AS {source_as} -> AS {origin_as}:")
        print(
            format_table(
                ["event", "at (periods)", "lost", "regained",
                 "time to recovery (periods)", "msg overhead"],
                rows,
            )
        )

    outage = result.convergence.current_outage_ms(source_as, origin_as, result.final_time_ms)
    print(f"\nOutage at the end of the run: {outage:.0f} ms (0 means fully recovered).")


if __name__ == "__main__":
    main()

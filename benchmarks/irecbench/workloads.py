"""The four irecbench workloads: seeded inputs for one ``BeaconingSimulation``.

Each builder turns a seed into generated inputs -- a topology, a scenario
(with its timeline), watched pairs, pull requests and a query mix.  The
program under test sees only these inputs, never the seed or the workload
name.

The *shape* of every topology (which ASes and links exist, which links the
churn timeline fails) is pinned per workload; the seed draws what hangs on
that shape: every link's latency and bandwidth, the instants of the timeline
events inside a period, the watched pairs, the pull request's endpoints and
the query mix.  Runs with different seeds therefore do different work of the
same volume, which is what lets ten seeds of one workload be compared.

Beacon validity is fixed at six simulated hours by the program, so the
beaconing interval chosen here decides how many periods a beacon lives
(``validity_periods``).  The paper's 10-minute interval would keep every
beacon for 36 periods, and the ingress databases -- with them the cost of a
period -- would grow for the whole run; the workloads stretch the interval so
expiry sets in after a handful of periods and a steady state exists that a
run can reach within its set-up budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.beacon import DEFAULT_VALIDITY_MS
from repro.core.interface_groups import GeographicGroupingPolicy
from repro.core.query import PathQuery
from repro.simulation.events import LinkFailure, LinkFlap, LinkRecovery, ScenarioTimeline
from repro.simulation.scenario import (
    AlgorithmSpec,
    ScenarioConfig,
    don_scenario,
    paper_algorithm_suite,
)
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology

@dataclass(frozen=True)
class Plan:
    """How often each measured phase repeats."""

    periods: int
    rac_passes: int
    query_passes: int


#: The plan of every workload at toy sizes (``test_irecbench.py`` only).
TOY_PLAN = Plan(periods=2, rac_passes=2, query_passes=1)
#: Warm-up periods at toy sizes: one more than the prefix the output check compares.
TOY_WARMUP = 3


@dataclass
class Inputs:
    """Everything one run feeds the program."""

    topology: Topology
    scenario: ScenarioConfig
    #: Periods run before measuring starts.
    warmup_periods: int
    watched_pairs: List[Tuple[int, int]] = field(default_factory=list)
    #: ``(origin_as, target_as, desired_paths)`` pull-based disjointness runs.
    pull_requests: List[Tuple[int, int, int]] = field(default_factory=list)
    #: AS -> the lookups one query pass issues at that AS's frontend, grouped
    #: by origin (all lookups of a group target the same origin).
    query_groups: Dict[int, List[List[PathQuery]]] = field(default_factory=dict)
    #: Whether every query group is preceded by one invalidating write.
    query_writes: bool = False


@dataclass(frozen=True)
class Workload:
    """A named input generator and the reason it exists."""

    name: str
    why: str
    build: Callable[[int, bool], Inputs]
    #: Repeat counts of the measured phases, sized so that the phases take
    #: about ``run_seconds`` (BENCHMARK.json) reference seconds together.
    plan: Plan
    #: Set-ups per run; ``setup_s`` is their median.  More than one where a
    #: set-up is too short -- a handful of clock chunks -- to be steady alone.
    setups: int = 1


#: Factor range of the seeded link-weight rescaling.
WEIGHT_RANGE = (0.8, 1.25)

#: ``origins_per_as`` for "every other AS".
ALL_ORIGINS = 10**6

#: Seed of every pinned topology shape (the legacy harness's seed).
SHAPE_SEED = 7

#: Depth of the ``beacon_long`` tree.  The last beacon arrives after
#: ``2 * TREE_DEPTH`` periods, which caps that workload's period count.
TREE_DEPTH = 6


def _interval_for(validity_periods: int) -> float:
    return DEFAULT_VALIDITY_MS / validity_periods


def seeded_topology(config: TopologyConfig, rng: random.Random) -> Topology:
    """The topology ``config`` pins, with link weights drawn from ``rng``.

    ASes, interfaces and links are those of ``generate_topology(config)``;
    each link's latency and bandwidth are rescaled by independent factors
    in ``WEIGHT_RANGE``.
    """
    pinned = generate_topology(config)
    topology = Topology()
    for as_info in pinned:
        copy = ASInfo(as_id=as_info.as_id, name=as_info.name)
        for interface in as_info:
            copy.add_interface(interface)
        topology.add_as(copy)
    for link_id in sorted(pinned.link_ids()):
        link = pinned.links[link_id]
        topology.add_link(
            Link(
                interface_a=link.interface_a,
                interface_b=link.interface_b,
                latency_ms=round(link.latency_ms * rng.uniform(*WEIGHT_RANGE), 3),
                bandwidth_mbps=round(link.bandwidth_mbps * rng.uniform(*WEIGHT_RANGE), 1),
                relationship=link.relationship,
            )
        )
    return topology


def _grouped_shortest_path() -> AlgorithmSpec:
    """1SP, bucketed per interface group (there is only one group).

    The stock 1SP spec merges groups, and a group-merging RAC rescans every
    bucket key for every bucket -- with a hundred known origins that alone
    would turn a workload meant to bypass the RAC into a RAC workload.
    """
    return AlgorithmSpec(
        rac_id="1sp", factory=lambda: KShortestPathAlgorithm(k=1), use_interface_groups=True
    )


def _until_steady(validity_periods: int, toy: bool) -> int:
    """Warm-up of a workload measured in its expiry-driven steady state.

    Expiry sets in after ``validity_periods``; three periods of refreshes
    later per-period PCB counts stay level within a few percent (what is
    left is reported as ``setup.steady_gap``).  A fixed count, not "until
    level": some workloads oscillate with the validity period and would
    stop at a seed-dependent period, which makes set-up times incomparable.
    """
    return TOY_WARMUP if toy else validity_periods + 3


def _query_mix(
    topology: Topology,
    rng: random.Random,
    origins_per_as: int,
    tags: Tuple[str, ...],
) -> Dict[int, List[List[PathQuery]]]:
    """Four lookups per (AS, origin): plain, tagged, latency-capped, limited.

    Every AS asks about ``origins_per_as`` origins, all other ASes where
    that many do not exist; which ones, in which order, and each lookup's
    policy parameters are drawn from ``rng``.
    """
    as_ids = list(topology.as_ids())
    groups: Dict[int, List[List[PathQuery]]] = {}
    for as_id in as_ids:
        others = [other for other in as_ids if other != as_id]
        chosen = rng.sample(others, k=min(origins_per_as, len(others)))
        per_as = []
        for origin in chosen:
            tag = tags[rng.randrange(len(tags))]
            per_as.append(
                [
                    PathQuery(origin_as=origin),
                    PathQuery(origin_as=origin, required_tags=(tag,)),
                    PathQuery(origin_as=origin, max_latency_ms=rng.choice((40.0, 80.0, 160.0))),
                    PathQuery(origin_as=origin, min_bandwidth_mbps=1000.0, limit=3),
                ]
            )
        groups[as_id] = per_as
    return groups


# ----------------------------------------------------------------------
# beacon_wide
# ----------------------------------------------------------------------
def _beacon_wide(seed: int, toy: bool) -> Inputs:
    config = TopologyConfig(
        num_ases=8 if toy else 14,
        num_core=3 if toy else 4,
        num_transit=3 if toy else 5,
        core_parallel_links=2 if toy else 3,
        transit_provider_count=3,
        stub_provider_count=3,
        peering_probability=0.5,
        max_pops_core=4,
        max_pops_transit=3,
        max_pops_stub=2,
        seed=SHAPE_SEED,
    )
    rng = random.Random(seed * 7919 + 1)
    topology = seeded_topology(config, rng)
    validity = 4
    scenario = don_scenario(verify_signatures=True)
    scenario.propagation_interval_ms = _interval_for(validity)
    return Inputs(
        topology=topology,
        scenario=scenario,
        warmup_periods=_until_steady(validity, toy),
        query_groups=_query_mix(topology, rng, ALL_ORIGINS, ("1sp", "5sp", "don")),
    )


# ----------------------------------------------------------------------
# beacon_long
# ----------------------------------------------------------------------
def binary_tree_topology(seed: int, depth: int) -> Topology:
    """A complete binary tree of ASes: deep, degree <= 3, one path per pair.

    AS ``i`` links to its parent ``i // 2``.  The seed draws link latencies
    and bandwidths; the shape is fixed.
    """
    rng = random.Random(seed * 104729 + 3)
    topology = Topology()
    count = 2 ** (depth + 1) - 1
    next_interface: Dict[int, int] = {}
    for as_id in range(1, count + 1):
        topology.add_as(ASInfo(as_id=as_id, name=f"tree-{as_id}"))
        next_interface[as_id] = 1
    for child in range(2, count + 1):
        level = child.bit_length() - 1
        location = GeoCoordinate(latitude=5.0 * level, longitude=-170.0 + 340.0 * child / count)
        endpoints = []
        for member in (child // 2, child):
            interface = Interface(
                as_id=member, interface_id=next_interface[member], location=location
            )
            next_interface[member] += 1
            topology.as_info(member).add_interface(interface)
            endpoints.append(interface.key)
        topology.add_link(
            Link(
                interface_a=endpoints[0],
                interface_b=endpoints[1],
                latency_ms=round(rng.uniform(1.0, 12.0), 3),
                bandwidth_mbps=round(rng.uniform(1000.0, 40000.0), 1),
                relationship=Relationship.CUSTOMER_PROVIDER,
            )
        )
    return topology


def _beacon_long(seed: int, toy: bool) -> Inputs:
    # The one workload measured inside the propagation wave instead of the
    # expiry-driven steady state: long signature chains only exist while
    # beacons still travel, because once every origin is known a fresh
    # beacon ties with its stored predecessor and is not propagated again.
    # The paper's own 10-minute interval keeps expiry (36 periods) out of it.
    topology = binary_tree_topology(seed, 3 if toy else TREE_DEPTH)
    # Down-segment registration sends every registered path back along its
    # segment hop by hop: the fabric's heaviest customer, and long segments
    # make it heavier.
    scenario = ScenarioConfig(
        algorithms=(_grouped_shortest_path(),), verify_signatures=True, register_down_segments=True
    )
    rng = random.Random(seed * 7919 + 2)
    return Inputs(
        topology=topology,
        scenario=scenario,
        warmup_periods=TOY_WARMUP if toy else 2,
        query_groups=_query_mix(topology, rng, 4, ("1sp",)),
    )


# ----------------------------------------------------------------------
# beacon_churn
# ----------------------------------------------------------------------
def periodic_churn_timeline(
    topology: Topology, rng: random.Random, interval_ms: float, failing: int, periods: int
) -> ScenarioTimeline:
    """The same failures, recoveries and one flap in every period.

    Links fail shortly after origination (their PCBs are in flight or just
    stored), recover after the period's RAC round and before the next
    period starts; one further link flaps down and up again before the
    round.  Repeating the same events every period keeps periods
    comparable, which a one-shot failure would not.  Which links fail is
    pinned (a core link and a stub link are not the same amount of churn);
    ``rng`` draws when, within its window of the period, each one does.
    """
    link_ids = sorted(topology.link_ids())
    chosen = random.Random(SHAPE_SEED).sample(link_ids, k=min(failing + 1, len(link_ids)))
    flapping, failed = chosen[0], chosen[1:]
    fail_at = [rng.uniform(0.08, 0.28) for _ in failed]
    recover_at = [rng.uniform(0.68, 0.88) for _ in failed]
    flap_at = rng.uniform(0.30, 0.40)
    timeline = ScenarioTimeline()
    for period in range(periods):
        start = period * interval_ms
        for index, link_id in enumerate(failed):
            timeline.add(start + fail_at[index] * interval_ms, LinkFailure(link_id=link_id))
            timeline.add(start + recover_at[index] * interval_ms, LinkRecovery(link_id=link_id))
        timeline.add(
            start + flap_at * interval_ms,
            LinkFlap(link_id=flapping, schedule=(0.0, 0.05 * interval_ms)),
        )
    return timeline


#: The churn timeline is generated for exactly the periods this plan runs.
CHURN_PLAN = Plan(periods=12, rac_passes=100, query_passes=250)


def _beacon_churn(seed: int, toy: bool) -> Inputs:
    config = TopologyConfig(
        num_ases=8 if toy else 36,
        num_core=2 if toy else 4,
        num_transit=3 if toy else 12,
        core_parallel_links=2,
        transit_provider_count=2,
        stub_provider_count=2,
        peering_probability=0.2,
        max_pops_core=4,
        max_pops_transit=3,
        max_pops_stub=2,
        seed=SHAPE_SEED,
    )
    rng = random.Random(seed * 7919 + 3)
    topology = seeded_topology(config, rng)
    validity = 4
    # One cheap RAC and no signatures, so that what churn costs -- revocation
    # floods, withdrawals, the driver's convergence probe -- is a quarter of
    # a period and not lost in selection work (see DOMINANCE in tracing.py).
    scenario = ScenarioConfig(
        algorithms=(_grouped_shortest_path(),),
        verify_signatures=False,
        propagation_interval_ms=_interval_for(validity),
    )
    warmup = _until_steady(validity, toy)
    scenario.timeline = periodic_churn_timeline(
        topology,
        rng,
        scenario.propagation_interval_ms,
        failing=2 if toy else 34,
        periods=warmup + (TOY_PLAN if toy else CHURN_PLAN).periods,
    )
    as_ids = list(topology.as_ids())
    pairs: List[Tuple[int, int]] = []
    while len(pairs) < (6 if toy else 320):
        pair = (rng.choice(as_ids), rng.choice(as_ids))
        if pair[0] != pair[1] and pair not in pairs:
            pairs.append(pair)
    return Inputs(
        topology=topology,
        scenario=scenario,
        warmup_periods=warmup,
        watched_pairs=pairs,
        query_groups=_query_mix(topology, rng, ALL_ORIGINS, ("1sp",)),
        query_writes=True,
    )


# ----------------------------------------------------------------------
# rac_grid
# ----------------------------------------------------------------------
def _rac_grid(seed: int, toy: bool) -> Inputs:
    config = TopologyConfig(
        num_ases=8 if toy else 14,
        num_core=2 if toy else 3,
        num_transit=3 if toy else 4,
        core_parallel_links=2,
        transit_provider_count=3,
        stub_provider_count=3,
        peering_probability=0.25,
        max_pops_core=5,
        max_pops_transit=3,
        max_pops_stub=2,
        seed=SHAPE_SEED,
    )
    rng = random.Random(seed * 7919 + 4)
    topology = seeded_topology(config, rng)
    # Beacons live six periods: buckets hold six periods of candidates while
    # the number of selections stays bounded, which is what makes selection
    # -- not extending and registering what was selected -- the main cost.
    validity = 6
    scenario = ScenarioConfig(
        algorithms=paper_algorithm_suite(),
        grouping_policy=GeographicGroupingPolicy(radius_km=2000.0),
        verify_signatures=False,
        propagation_interval_ms=_interval_for(validity),
    )
    as_ids = list(topology.as_ids())
    origin, target = rng.sample(as_ids, k=2)
    return Inputs(
        topology=topology,
        scenario=scenario,
        warmup_periods=_until_steady(validity, toy),
        pull_requests=[(origin, target, 4)],
        query_groups=_query_mix(topology, rng, ALL_ORIGINS, ("1sp", "5sp", "hd", "don")),
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "beacon_wide",
        "dense high-degree topology, signatures on: large candidate buckets and many egress "
        "interfaces, so core.rac/algorithms/core.egress/core.databases do the work; paths are short",
        _beacon_wide,
        Plan(periods=10, rac_passes=12, query_passes=3600),
    ),
    Workload(
        "beacon_long",
        "binary tree of depth 6, signatures on, one 1SP RAC, down-segment registration: long chains, "
        "one-path buckets, so core.beacon/crypto/core.ingress/fabric dominate; RAC work reads flat",
        _beacon_long,
        Plan(periods=TREE_DEPTH, rac_passes=12, query_passes=1200),
        setups=5,
    ),
    Workload(
        "beacon_churn",
        "medium topology, signatures off, one 1SP RAC, the same 34 link failures/recoveries and a flap "
        "every period, 320 watched pairs, one invalidating write per 4 lookups: writes beside reads",
        _beacon_churn,
        CHURN_PLAN,
    ),
    Workload(
        "rac_grid",
        "moderate topology, signatures off, the paper's five RACs per AS with geographic groups and "
        "a pull request: core.rac/core.ipc/core.sandbox/algorithms dominate; crypto reads flat",
        _rac_grid,
        Plan(periods=9, rac_passes=10, query_passes=4000),
    ),
)


def workload_named(name: str) -> Workload:
    """Return the workload called ``name`` (``KeyError`` if there is none)."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)

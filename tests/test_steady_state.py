"""Steady state is bounded: every per-AS store is level one validity apart.

In a run whose inputs repeat every period, nothing a control service keeps
may grow with the run's length.  Once beacons expire, every per-AS store
has the same size at period *k* and at period *k* + one beacon validity:
the ingress database and the terminated segments its records keep, the
verified-prefix cache, the egress database and its shared expiry floats,
the path service, HD's served digests, the revocation dedup store and
negative caches, and the query frontend's caches -- and so is the entry
count of every index over them, so an index list that keeps a removed
member fails as surely as a store that does.  So is the number of
distinct beacons the stores keep alive: a beacon holds its parent, so a
``parent`` chain that outlives its stores fails too; and so is the number
of distinct headers they hold, one per origination.  The period driver
keeps no history either: none of its sized attributes grows from period
*k* to *k* + one validity.  Two signed scenarios
cover them: a fixed topology registering down-segments, and a
periodic-churn scenario (every period fails and recovers the same links,
so revocations flood every period).  Both are trees, where every pair has
one path and a period's selections repeat exactly.

``RevocationState.applied_at`` is the one store exempt: it is the per-AS
ledger of withdrawal times and grows by one entry per applied revocation,
about 16 bytes each in its flat arrays (docs/observability.md).
"""

from repro.core.beacon import DEFAULT_VALIDITY_MS
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.events import LinkFailure, LinkRecovery, ScenarioTimeline
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.simulation.scenario import (
    ScenarioConfig,
    five_shortest_paths_spec,
    heuristic_disjointness_spec,
    one_shortest_path_spec,
)
from repro.topology.entities import Relationship

from tests.conftest import build_topology, terminated_segments

#: Beacon validity in periods, and the periods compared at both ends.
#: HD forgets a served digest the round after its beacon left the ingress
#: database, and its first round serves more than a steady one, so the
#: stores are compared from one validity plus two periods in.
VALIDITY = 4
INTERVAL_MS = DEFAULT_VALIDITY_MS / VALIDITY
SETTLED = VALIDITY + 1
PERIODS = SETTLED + VALIDITY + 4


def tree_topology(count):
    """ASes 1..count as a binary tree, AS ``i`` under ``i // 2``: one path
    per pair, so a period's selections do not hang on digest tie-breaks."""
    interfaces = {as_id: {} for as_id in range(1, count + 1)}
    links = []
    for child in range(2, count + 1):
        endpoints = []
        for member in (child // 2, child):
            interface_id = len(interfaces[member]) + 1
            interfaces[member][interface_id] = (10.0, member + 0.1 * interface_id)
            endpoints.append((member, interface_id))
        links.append((*endpoints, 10.0, 1000.0, Relationship.CUSTOMER_PROVIDER))
    return build_topology(interfaces, links)


def _entries(index):
    """The members of a key -> members index, all keys together."""
    return sum(len(members) for members in index.values())


def store_sizes(simulation):
    """AS -> the size of every per-AS store (``applied_at`` aside), and the
    entry count of every index over one, so a list that never shrinks
    shows."""
    sizes = {}
    for as_id, service in simulation.services.items():
        frontend = service.query_frontend
        revocations = service.revocations
        ingress = service.ingress.database
        paths = service.path_service
        sizes[as_id] = {
            "ingress": len(ingress),
            "verified_prefixes": len(service.ingress.verified_prefixes),
            "egress": len(service.egress.database),
            "egress_expiries": len(service.egress.database._expiries),
            "terminated": len(terminated_segments(service)),
            "path_service": len(paths),
            "ingress_index": _entries(ingress._by_link) + _entries(ingress._buckets),
            "path_index": _entries(paths._by_link) + _entries(paths._by_origin),
            "egress_interfaces": sum(
                len(record.egress_interfaces)
                for record in service.egress.database._records.values()
            ),
            "dedup": len(revocations._seen),
            "revoked": len(revocations.revoked_links) + len(revocations.revoked_ases),
            "query_cache": len(frontend._cache),
            "query_index": _entries(frontend._keys_by_origin),
            "hd_served": sum(
                len(state.served_digests)
                + sum(len(served.digests) for served in state.served_by_bucket.values())
                for rac in service.racs
                if isinstance(rac.algorithm, HeuristicDisjointnessAlgorithm)
                for state in rac.algorithm._state.values()
            ),
        }
    return sizes


def reachable_beacons(simulation):
    """The numbers of distinct beacons and of distinct headers reachable
    from every AS's stores, following ``parent`` from the ingress
    databases, the terminated segments their records keep, path services
    and returned pull beacons."""
    pending = []
    for service in simulation.services.values():
        pending += [stored.beacon for stored in service.ingress.database.all_beacons()]
        pending += [path.segment for path in service.path_service.all_paths()]
        pending += terminated_segments(service)
        pending += [beacon for beacon, _at_ms in service.pull_results]
    seen = set()
    headers = set()
    while pending:
        beacon = pending.pop()
        if beacon is not None and id(beacon) not in seen:
            seen.add(id(beacon))
            headers.add(id(beacon.header))
            pending.append(beacon.parent)
    return len(seen), len(headers)


def driver_sizes(simulation):
    """Attribute -> length, for every sized attribute of the driver itself."""
    sizes = {}
    for name, value in vars(simulation).items():
        try:
            sizes[name] = len(value)
        except TypeError:
            continue
    return sizes


def sizes_by_period(simulation):
    """Run ``PERIODS`` periods; after each, query every origin and record
    the store sizes, the numbers of reachable beacons and headers and the
    driver's attribute sizes."""
    by_period = []
    for _period in range(PERIODS):
        simulation.run_period()
        for as_id, service in simulation.services.items():
            for origin in simulation.services:
                if origin != as_id:
                    service.query_frontend.paths(origin)
        by_period.append(
            (store_sizes(simulation), reachable_beacons(simulation), driver_sizes(simulation))
        )
    return by_period


def assert_level_one_validity_apart(by_period, stores):
    for k in range(SETTLED, SETTLED + 4):
        assert by_period[k][:2] == by_period[k + VALIDITY][:2], f"period {k + 1}"
        # The timeline's barriers are consumed as the run goes: the driver
        # may shrink, never grow.
        before, after = by_period[k][2], by_period[k + VALIDITY][2]
        grown = {name for name, size in after.items() if size > before.get(name, 0)}
        assert not grown, f"period {k + 1}: the driver grows {sorted(grown)}"
    last, (beacons, headers), _driver = by_period[-1]
    assert 0 < headers < beacons
    for store in stores:
        assert any(sizes[store] > 0 for sizes in last.values()), f"{store} is never used"


def _scenario(**kwargs):
    # 5SP keeps every period's beacon of a pair, so selections and with
    # them the stores repeat exactly once the first beacons expire.  HD
    # serves every new one-hop beacon (it crosses no link), so its served
    # digests are level only if the expired ones are forgotten.
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            five_shortest_paths_spec(),
            heuristic_disjointness_spec(),
        ),
        periods=PERIODS,
        propagation_interval_ms=INTERVAL_MS,
        **kwargs,
    )


def signed_fixed_topology():
    scenario = _scenario(verify_signatures=True, register_down_segments=True)
    return BeaconingSimulation(tree_topology(7), scenario)


def periodic_churn():
    """The same three links fail and recover in every period."""
    topology = tree_topology(15)
    timeline = ScenarioTimeline()
    for period in range(PERIODS):
        start = period * INTERVAL_MS
        for offset, link in enumerate(sorted(topology.link_ids())[-3:]):
            timeline.add(start + (0.1 + 0.05 * offset) * INTERVAL_MS, LinkFailure(link))
            timeline.add(start + (0.7 + 0.05 * offset) * INTERVAL_MS, LinkRecovery(link))
    scenario = _scenario(verify_signatures=True, timeline=timeline)
    return BeaconingSimulation(topology, scenario)


class TestStoresAreLevelOneValidityApart:
    def test_signed_fixed_topology(self):
        by_period = sizes_by_period(signed_fixed_topology())
        assert_level_one_validity_apart(
            by_period,
            (
                "ingress",
                "ingress_index",
                "verified_prefixes",
                "egress",
                "egress_expiries",
                "egress_interfaces",
                "terminated",
                "path_service",
                "path_index",
                "query_cache",
                "hd_served",
            ),
        )

    def test_periodic_churn(self):
        simulation = periodic_churn()
        by_period = sizes_by_period(simulation)
        assert_level_one_validity_apart(
            by_period,
            (
                "ingress",
                "ingress_index",
                "verified_prefixes",
                "terminated",
                "path_service",
                "path_index",
                "dedup",
                "hd_served",
            ),
        )
        # The exemption: the withdrawal ledger keeps one entry per applied
        # revocation of the whole run, the dedup store those of one window.
        for service in simulation.services.values():
            revocations = service.revocations
            assert len(revocations.applied_at) >= PERIODS * len(revocations._seen) > 0

"""Sharded parallel simulation: partitioner, coordinator, worker pool.

The centerpiece is determinism: a sharded run — any worker count, any
partition seed — must reproduce the single-process golden traces
bit-for-bit.  The golden-digest tests here pass a coordinator factory
through the exact scenario constructions of ``tests/test_golden_trace.py``
and compare against the same pinned digests.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, UnknownASError
from repro.parallel import (
    ShardedBeaconingSimulation,
    WorkerPool,
    partition_topology,
)
from repro.parallel.partition import degradable_link_groups
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import don_scenario
from repro.units import minutes

from tests.conftest import line_topology
from tests.test_golden_trace import (
    FAMILY_DIGESTS,
    GOLDEN_DIGEST,
    MIXED_DIGEST,
    run_family_scenario,
    run_mixed_scenario,
    run_scenario,
)


# ---------------------------------------------------------------------------
# Partitioner
# ---------------------------------------------------------------------------


class TestPartitioner:
    def test_partition_covers_every_as_exactly_once(self):
        topology = line_topology(7)
        partition = partition_topology(topology, 3)
        assigned = [as_id for shard in partition.shards for as_id in shard]
        assert sorted(assigned) == sorted(info.as_id for info in topology)
        assert partition.owner == {
            as_id: index
            for index, shard in enumerate(partition.shards)
            for as_id in shard
        }

    def test_partition_is_deterministic_per_seed(self):
        topology = line_topology(9)
        assert partition_topology(topology, 3, seed=5) == partition_topology(
            topology, 3, seed=5
        )

    def test_affinity_groups_stay_on_one_shard(self):
        topology = line_topology(8)
        partition = partition_topology(
            topology, 4, affinity_groups=[(2, 3), (3, 4), (6, 7)]
        )
        # (2,3) and (3,4) coalesce transitively into one super-node.
        assert len({partition.owner[2], partition.owner[3], partition.owner[4]}) == 1
        assert partition.owner[6] == partition.owner[7]

    def test_more_shards_than_ases_leaves_empty_shards(self):
        topology = line_topology(3)
        partition = partition_topology(topology, 5)
        assert partition.shard_count == 5
        assert sum(len(shard) for shard in partition.shards) == 3

    def test_rejections(self):
        topology = line_topology(3)
        with pytest.raises(ConfigurationError):
            partition_topology(topology, 0)
        with pytest.raises(ConfigurationError):
            partition_topology(topology, 2, affinity_groups=[(1, 99)])

    def test_lookahead_is_min_cross_latency_plus_processing(self):
        topology = line_topology(5)
        partition = partition_topology(topology, 2)
        cross = partition.cross_links(topology)
        assert cross, "a 2-shard line must cut at least one link"
        expected = min(link.latency_ms for link in cross) + 1.0
        assert partition.lookahead_ms(topology, 1.0) == pytest.approx(expected)

    def test_single_shard_lookahead_is_infinite(self):
        topology = line_topology(4)
        partition = partition_topology(topology, 1)
        assert partition.lookahead_ms(topology, 1.0) == float("inf")

    def test_degradable_link_groups_cover_lossy_links_only(self):
        topology = line_topology(5)
        scenario = don_scenario(periods=2, verify_signatures=False)
        links = topology.link_ids()
        scenario.at(minutes(5)).flap_link(links[0], schedule=(0.0, 1.0))  # lossless
        scenario.at(minutes(6)).flap_link(links[1], schedule=(0.0, 1.0), loss_ab=0.5)
        scenario.at(minutes(7)).gray_fail(links[2], drop_rate=0.9)
        groups = degradable_link_groups(scenario.timeline)
        lossy = {
            tuple(sorted((links[1][0][0], links[1][1][0]))),
            tuple(sorted((links[2][0][0], links[2][1][0]))),
        }
        assert set(groups) == lossy

    @settings(max_examples=30, deadline=None)
    @given(
        num_ases=st.integers(min_value=2, max_value=12),
        shards=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_partition_properties(self, num_ases, shards, seed):
        """Any (topology size, shard count, seed): a valid, stable partition."""
        topology = line_topology(num_ases)
        partition = partition_topology(topology, shards, seed=seed)
        assigned = sorted(a for shard in partition.shards for a in shard)
        assert assigned == sorted(info.as_id for info in topology)
        assert partition == partition_topology(topology, shards, seed=seed)
        # Degree balance: no shard exceeds the heaviest super-node plus a
        # fair share (greedy heaviest-first bound).
        loads = [
            sum(topology.degree_of(a) for a in shard) for shard in partition.shards
        ]
        if shards > 1 and num_ases >= shards:
            heaviest = max(topology.degree_of(info.as_id) for info in topology)
            fair = sum(loads) / shards
            assert max(loads) <= fair + heaviest


# ---------------------------------------------------------------------------
# Coordinator: construction contract
# ---------------------------------------------------------------------------


class TestCoordinatorContract:
    def test_rejects_on_demand_algorithms(self):
        topology = line_topology(3)
        scenario = don_scenario(periods=1, verify_signatures=False)
        scenario.algorithms = tuple(
            dataclasses.replace(spec, on_demand=True) for spec in scenario.algorithms
        )
        with pytest.raises(ConfigurationError, match="on-demand"):
            ShardedBeaconingSimulation(topology, scenario, workers=2)

    def test_rejects_nonpositive_workers(self):
        topology = line_topology(3)
        with pytest.raises(ConfigurationError):
            ShardedBeaconingSimulation(
                topology, don_scenario(periods=1, verify_signatures=False), workers=0
            )

    @pytest.mark.parametrize(
        "factory", [BeaconingSimulation, ShardedBeaconingSimulation], ids=["in_process", "sharded"]
    )
    def test_watch_pair_validates_as_ids(self, factory):
        topology = line_topology(3)
        simulation = factory(topology, don_scenario(periods=1, verify_signatures=False))
        try:
            with pytest.raises(UnknownASError):
                simulation.watch_pair(1, 99)
        finally:
            if factory is ShardedBeaconingSimulation:
                simulation.close()  # stop the forked workers

    def test_counters_and_utilization_shapes(self):
        topology = line_topology(4)
        simulation = ShardedBeaconingSimulation(
            topology, don_scenario(periods=1, verify_signatures=False), workers=2
        )
        result = simulation.run()
        counters = simulation.counters()
        assert counters["workers"] == 2.0
        assert counters["cross_shard_messages"] > 0
        assert counters["cross_shard_bytes"] > 0
        assert counters["barrier_wait_s"] >= 0.0
        assert len(simulation.utilization()) == 2
        assert result.periods_run == 1
        assert result.service_count == 4

    def test_sync_counters_are_the_coordinators_attributes(self):
        topology = line_topology(4)
        simulation = ShardedBeaconingSimulation(
            topology, don_scenario(periods=1, verify_signatures=False), workers=2
        )
        simulation.run()
        counters = simulation.counters()
        assert simulation.workers == counters["workers"] == 2
        assert simulation.cross_shard_messages == counters["cross_shard_messages"] > 0
        assert simulation.cross_shard_bytes == counters["cross_shard_bytes"] > 0
        assert simulation.barrier_wait_s == counters["barrier_wait_s"]
        assert len(simulation.worker_busy_s) == 2


# ---------------------------------------------------------------------------
# Coordinator: golden-digest equivalence (the tentpole's success criterion)
# ---------------------------------------------------------------------------


def _sharded_factory(workers, seed):
    def build(topology, scenario):
        return ShardedBeaconingSimulation(
            topology, scenario, workers=workers, partition_seed=seed
        )

    return build


class TestShardedGoldenTraces:
    @pytest.mark.parametrize(
        "workers,seed", [(2, 0), (2, 7), (4, 0)], ids=["w2s0", "w2s7", "w4s0"]
    )
    def test_sharded_run_matches_clean_golden_digest(self, workers, seed):
        """Event ordering and traces are bit-identical to single-process —
        independent of how many workers run it and how ASes are placed."""
        trace = run_scenario(factory=_sharded_factory(workers, seed))
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST, (
            f"sharded run (workers={workers}, seed={seed}) diverged from the "
            f"single-process golden trace; got {digest!r}:\n{trace}"
        )

    def test_sharded_run_matches_mixed_deployment_digest(self):
        """Legacy ASes shard like IREC ones: the 2-worker mixed run
        reproduces the in-process trace and fabric counters."""
        trace, _segments = run_mixed_scenario(factory=_sharded_factory(2, 0))
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == MIXED_DIGEST, (
            f"sharded mixed-deployment run diverged; got {digest!r}:\n{trace}"
        )

    def test_sharded_result_equals_in_process_where_digests_do_not_look(self):
        """One driver, one result type: the fields the golden digest does
        not cover agree between the in-process and the 2-worker run."""
        results = []

        def capture(simulation):
            run = simulation.run

            def run_and_keep():
                results.append(run())
                return results[-1]

            simulation.run = run_and_keep

        run_scenario(instrument=capture)
        run_scenario(instrument=capture, factory=_sharded_factory(2, 0))
        single, sharded = results
        assert type(sharded) is type(single)
        assert sharded.periods_run == single.periods_run > 0
        assert sharded.final_time_ms == single.final_time_ms
        assert [r.as_id for r in sharded.round_reports] == [
            r.as_id for r in single.round_reports
        ]
        assert sharded.revocation_stats == single.revocation_stats
        assert sharded.service_count == len(single.services)

    @pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
    def test_sharded_run_matches_family_digests(self, family):
        """Loss dice, signature rejection, flap toggles and topology growth
        all reproduce the adversarial-family golden traces across shards."""
        trace = run_family_scenario(family, factory=_sharded_factory(2, 0))
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == FAMILY_DIGESTS[family], (
            f"sharded {family} run diverged from the pinned digest; "
            f"got {digest!r}:\n{trace}"
        )


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_executor_is_reused_and_grows(self):
        with WorkerPool() as pool:
            first = pool.executor(min_workers=1)
            again = pool.executor(min_workers=1)
            assert first is again
            assert pool.created == 1 and pool.grown == 0
            grown = pool.executor(min_workers=2)
            assert grown is not first
            assert pool.grown == 1 and pool.workers == 2

    def test_run_batches_preserves_order(self):
        with WorkerPool(max_workers=2) as pool:
            results = pool.run_batches(pow, [(2, i) for i in range(6)])
            assert results == [2**i for i in range(6)]

    def test_rejections(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(max_workers=0)
        with pytest.raises(ConfigurationError):
            WorkerPool().executor(min_workers=0)

"""Tests for the IREC control service and a deployment on the message fabric."""

import pytest

from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.registry import encode_builtin_payload
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.control_service import ControlServiceConfig
from repro.core.interface_groups import GeographicGroupingPolicy
from repro.exceptions import ConfigurationError, UnknownAlgorithmError

from tests.conftest import build_services, figure1_topology, line_topology, run_all

ONE_SP = {"1sp": lambda: KShortestPathAlgorithm(k=1)}


def run_rounds(scheduler, services, rounds=3, originate=True):
    """Run beaconing rounds, delivering what is in flight before each step."""
    for round_index in range(rounds):
        now = float(round_index * 1000)
        scheduler.run_until(now)
        if originate:
            for service in services.values():
                service.originate(now_ms=now)
        scheduler.run_until(now + 500.0)
        for service in services.values():
            service.run_round(now_ms=now + 500.0)
    run_all(scheduler)


class TestControlServiceBasics:
    def test_origination_carries_interface_groups(self, key_store):
        topology = figure1_topology()
        _scheduler, _transport, services = build_services(
            topology,
            key_store,
            verify_signatures=True,
            grouping_policy=GeographicGroupingPolicy(radius_km=300.0),
            racs=ONE_SP,
        )
        originated = services[1].originate(now_ms=0.0)
        assert len(originated) == 2
        assert all(beacon.interface_group_id is not None for beacon in originated)

    def test_origination_without_groups(self, key_store):
        topology = figure1_topology()
        _scheduler, _transport, services = build_services(
            topology,
            key_store,
            config=ControlServiceConfig(originate_with_groups=False),
            racs=ONE_SP,
        )
        originated = services[1].originate(now_ms=0.0)
        assert all(beacon.interface_group_id is None for beacon in originated)

    def test_publish_and_serve_algorithm(self, key_store):
        topology = figure1_topology()
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        payload = encode_builtin_payload("1sp")
        digest = services[1].publish_algorithm("my-algo", payload)
        assert services[1].serve_algorithm("my-algo") == payload
        assert len(digest) == 64
        with pytest.raises(UnknownAlgorithmError):
            services[1].serve_algorithm("unknown")

    def test_returned_beacon_must_belong_to_origin(self, key_store, beacon_factory):
        topology = figure1_topology()
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        foreign = beacon_factory([(2, None, 1), (3, 1, None)])
        with pytest.raises(ConfigurationError):
            services[1].receive_returned_beacon(foreign, now_ms=0.0)

    def test_pull_origination_requires_published_algorithm(self, key_store):
        topology = figure1_topology()
        _scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        with pytest.raises(UnknownAlgorithmError):
            services[1].originate_pull(target_as=3, now_ms=0.0, algorithm_id="missing")


class TestFabricBeaconing:
    def test_paths_propagate_across_the_network(self, key_store):
        topology = line_topology(4)
        scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        run_rounds(scheduler, services, rounds=4)
        # AS 4 must know a path back to AS 1 (three hops away).
        paths = services[4].path_service.paths_to(1)
        assert paths
        assert paths[0].segment.as_path() == (1, 2, 3, 4)

    def test_round_report_counts(self, key_store):
        topology = line_topology(3)
        scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        for service in services.values():
            service.originate(now_ms=0.0)
        run_all(scheduler)
        report = services[2].run_round(now_ms=scheduler.now_ms)
        assert report.as_id == 2
        assert len(report.rac_reports) == 1
        assert services[2].egress.stats.propagated >= 1
        assert services[2].egress.stats.registered >= 1

    def test_multiple_parallel_racs_register_distinct_tags(self, key_store):
        topology = figure1_topology()
        algorithms = {
            "1sp": lambda: KShortestPathAlgorithm(k=1),
            "don": lambda: DelayOptimizationAlgorithm(paths_per_interface=2),
        }
        scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=algorithms
        )
        run_rounds(scheduler, services, rounds=4)
        paths = services[3].path_service.paths_to(1)
        tags = {tag for path in paths for tag in path.criteria_tags}
        assert {"1sp", "don"} <= tags

    def test_figure1_multi_criteria_paths_discovered(self, key_store):
        """The control plane discovers both the 20 ms and the wide path of Figure 1."""
        from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
        from repro.core.criteria import highest_bandwidth

        topology = figure1_topology()
        algorithms = {
            "1sp": lambda: KShortestPathAlgorithm(k=1),
            "widest": lambda: CriteriaSetAlgorithm(highest_bandwidth(), paths_per_interface=2),
        }
        scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=algorithms
        )
        run_rounds(scheduler, services, rounds=5)
        # Evaluated at the source AS 1: paths towards the destination AS 3.
        paths = services[1].path_service.paths_to(3)
        assert paths
        latencies = [p.segment.total_latency_ms() for p in paths]
        bandwidths = [p.segment.bottleneck_bandwidth_mbps() for p in paths]
        # Small intra-AS latencies at the transit ASes add fractions of a ms.
        assert min(latencies) == pytest.approx(20.0, abs=0.5)
        assert max(bandwidths) == pytest.approx(10_000.0)

    def test_pull_based_beacon_returned_to_origin(self, key_store):
        topology = line_topology(3)
        scheduler, _transport, services = build_services(
            topology, key_store, verify_signatures=True, racs=ONE_SP
        )
        # Pull + on-demand beacons are only processed by on-demand RACs.
        for service in services.values():
            service.add_on_demand_rac(rac_id="on-demand")
        payload = encode_builtin_payload("1sp")
        services[1].publish_algorithm("pd-0", payload)
        services[1].originate_pull(target_as=3, now_ms=0.0, algorithm_id="pd-0")
        # Let the network propagate and process for a few rounds.
        run_rounds(scheduler, services, rounds=3, originate=False)
        results = services[1].pull_results_for("pd-0")
        assert results
        beacon, _at = results[0]
        assert beacon.origin_as == 1
        assert beacon.is_terminated
        assert beacon.as_path() == (1, 2, 3)

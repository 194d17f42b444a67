"""Integration tests spanning control plane, data plane and simulation.

These tests reproduce, at small scale, the qualitative results of the
paper: multi-criteria optimization (Figures 1 and 2), interface groups and
extended paths (Figures 3 and 4), on-demand + pull-based routing used
together (P4), backward compatibility with legacy SCION ASes (§VII-B), and
the TLF ordering of Figure 8b.
"""

import pytest

from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.registry import encode_criteria_payload
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import (
    highest_bandwidth,
    lowest_latency,
    shortest_widest,
    widest_with_latency_bound,
)
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.path import forwarding_path_from_segment
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import (
    AlgorithmSpec,
    ScenarioConfig,
    disjointness_scenario,
    one_shortest_path_spec,
)
from repro.analysis.disjointness_eval import evaluate_disjointness
from repro.topology.generator import generate_topology
from repro.traffic import CriteriaPolicy

from tests.conftest import figure1_topology, line_topology, small_test_config
from tests.test_golden_trace import MIXED_LEGACY_ASES, _run_golden


def figure1_scenario(periods=4):
    """1SP + widest + latency-bounded widest, the Figure-1 application mix."""
    return ScenarioConfig(
        algorithms=(
            one_shortest_path_spec(),
            AlgorithmSpec(
                rac_id="widest",
                factory=lambda: CriteriaSetAlgorithm(highest_bandwidth(), paths_per_interface=2),
                use_interface_groups=False,
            ),
            AlgorithmSpec(
                rac_id="live-video",
                factory=lambda: CriteriaSetAlgorithm(
                    widest_with_latency_bound(30.0), paths_per_interface=2
                ),
                use_interface_groups=False,
            ),
        ),
        periods=periods,
        verify_signatures=True,
    )


class TestFigure1MultiCriteria:
    """Example #1 and #2 of the paper: three applications, three different paths."""

    @pytest.fixture(scope="class")
    def result(self):
        return BeaconingSimulation(figure1_topology(), figure1_scenario()).run()

    @staticmethod
    def _choice(result, criteria_set):
        """The path an application at AS 1 picks towards AS 3."""
        candidates = result.service(1).query_frontend.paths(3)
        [(path, share)] = CriteriaPolicy(criteria_set)(candidates)
        assert share == 1.0
        return path.segment

    def test_voip_gets_the_low_latency_path(self, result):
        segment = self._choice(result, lowest_latency())
        assert segment.total_latency_ms() == pytest.approx(20.0, abs=0.5)

    def test_file_transfer_gets_the_wide_path(self, result):
        segment = self._choice(result, shortest_widest())
        assert segment.bottleneck_bandwidth_mbps() == pytest.approx(10_000.0)
        assert segment.total_latency_ms() == pytest.approx(40.0, abs=0.5)

    def test_live_video_gets_the_bounded_path(self, result):
        segment = self._choice(result, widest_with_latency_bound(30.5))
        assert segment.total_latency_ms() <= 30.5
        assert segment.bottleneck_bandwidth_mbps() == pytest.approx(1_000.0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: BeaconingSimulation(figure1_topology(), figure1_scenario()).run(),
        _run_golden,
        lambda: _run_golden(legacy_ases=MIXED_LEGACY_ASES),
    ],
    ids=["figure1", "golden", "golden-mixed"],
)
def test_every_registered_path_forwards_at_its_beacon_latency(run):
    """The packet walk is the soundness oracle of the control plane: every
    path any AS registered forwards over the run's final link state, and
    the latency the walk accumulates, hop by hop from the topology, is the
    one the beacon carries (usability, paper §II-C)."""
    result = run()
    network = DataPlaneNetwork(topology=result.topology, link_state=result.link_state)
    segments = [
        registered.segment
        for _as_id, service in sorted(result.services.items())
        for registered in service.path_service.all_paths()
    ]
    assert len(segments) > 50
    for segment in segments:
        report = network.deliver(forwarding_path_from_segment(segment))
        assert report.delivered, report.failure_reason
        assert report.latency_ms == pytest.approx(segment.total_latency_ms())


class TestOnDemandSourceCriteria:
    """P4: a source AS expresses its criteria via on-demand + pull-based routing."""

    def test_source_receives_paths_optimized_for_its_criterion(self, key_store):
        topology = figure1_topology()
        scenario = ScenarioConfig(
            algorithms=(
                one_shortest_path_spec(),
                AlgorithmSpec(rac_id="on-demand", on_demand=True),
            ),
            periods=5,
            verify_signatures=True,
        )
        simulation = BeaconingSimulation(topology, scenario)
        source = simulation.services[1]
        payload = encode_criteria_payload(shortest_widest(), paths_per_interface=2)
        source.publish_algorithm("shortest-widest", payload)
        source.originate_pull(target_as=3, now_ms=0.0, algorithm_id="shortest-widest")
        simulation.run()
        returned = source.pull_results_for("shortest-widest")
        assert returned
        best_bandwidth = max(b.bottleneck_bandwidth_mbps() for b, _t in returned)
        assert best_bandwidth == pytest.approx(10_000.0)


class TestBackwardCompatibility:
    """§VII-B: IREC ASes interoperate with legacy SCION ASes."""

    def test_mixed_deployment_keeps_connectivity(self):
        topology = generate_topology(small_test_config())
        legacy = tuple(topology.as_ids()[::3])  # every third AS runs legacy SCION
        scenario = ScenarioConfig(
            algorithms=(one_shortest_path_spec(),),
            periods=3,
            verify_signatures=False,
            legacy_ases=legacy,
        )
        result = BeaconingSimulation(topology, scenario).run()
        # Every AS (legacy or IREC) ends up with paths to at least half of
        # the other ASes, i.e. connectivity is not interrupted.
        as_ids = topology.as_ids()
        for as_id in as_ids:
            service = result.service(as_id)
            reachable = {
                path.segment.origin_as for path in service.path_service.all_paths()
            }
            assert len(reachable) >= (len(as_ids) - 1) // 2

    def test_pure_irec_and_mixed_reach_the_same_origins(self):
        topology = generate_topology(small_test_config())
        pure = BeaconingSimulation(
            topology,
            ScenarioConfig(
                algorithms=(one_shortest_path_spec(),), periods=3, verify_signatures=False
            ),
        ).run()
        mixed = BeaconingSimulation(
            generate_topology(small_test_config()),
            ScenarioConfig(
                algorithms=(one_shortest_path_spec(),),
                periods=3,
                verify_signatures=False,
                legacy_ases=(topology.as_ids()[1],),
            ),
        ).run()
        probe = topology.as_ids()[-1]
        pure_origins = {p.segment.origin_as for p in pure.service(probe).path_service.all_paths()}
        mixed_origins = {p.segment.origin_as for p in mixed.service(probe).path_service.all_paths()}
        assert pure_origins == mixed_origins


class TestDisjointnessOrdering:
    """Figure 8b's qualitative ordering: 1SP <= 5SP <= HD on tolerable link failures."""

    def test_tlf_ordering_holds_on_generated_topology(self):
        topology = generate_topology(small_test_config())
        result = BeaconingSimulation(
            topology, disjointness_scenario(periods=3, verify_signatures=False)
        ).run()
        as_ids = topology.as_ids()
        pairs = [(as_ids[-1], as_ids[0]), (as_ids[-2], as_ids[0]), (as_ids[-3], as_ids[1])]
        evaluation = evaluate_disjointness(result, tags=["1sp", "5sp", "hd"], as_pairs=pairs)
        for index in range(len(pairs)):
            one = evaluation.tlf["1sp"][index]
            five = evaluation.tlf["5sp"][index]
            assert one <= five
        # HD achieves at least the mean disjointness of 5SP across the pairs.
        assert sum(evaluation.tlf["hd"]) >= sum(evaluation.tlf["1sp"])


class TestInterfaceGroupGranularity:
    """Figure 3: finer interface groups expose more distinct paths per origin."""

    def test_finer_groups_register_more_paths(self):
        from repro.simulation.scenario import dob_scenario

        topology = generate_topology(small_test_config())
        fine = BeaconingSimulation(
            topology, dob_scenario(radius_km=300.0, periods=3)
        ).run()
        coarse = BeaconingSimulation(
            generate_topology(small_test_config()), dob_scenario(radius_km=20_000.0, periods=3)
        ).run()
        probe = topology.as_ids()[-1]
        fine_paths = len(fine.service(probe).path_service.all_paths())
        coarse_paths = len(coarse.service(probe).path_service.all_paths())
        assert fine_paths >= coarse_paths

    def test_finer_groups_send_at_least_as_many_pcbs(self):
        from repro.simulation.scenario import dob_scenario

        fine = BeaconingSimulation(
            generate_topology(small_test_config()), dob_scenario(radius_km=300.0, periods=2)
        ).run()
        coarse = BeaconingSimulation(
            generate_topology(small_test_config()), dob_scenario(radius_km=20_000.0, periods=2)
        ).run()
        assert fine.collector.total_sent >= coarse.collector.total_sent

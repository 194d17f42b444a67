"""Tests for the analysis package: CDFs, workloads, micro-benchmarks, evaluations."""

import pytest

from repro.analysis.cdf import EmpiricalCDF, relative_to_baseline
from repro.analysis.delay_eval import evaluate_delay
from repro.analysis.disjointness_eval import (
    evaluate_disjointness,
    tolerable_link_failures,
)
from repro.analysis.microbench import (
    latency_series,
    measure_legacy_latency,
    measure_rac_latency,
    measure_throughput,
    modelled_costs_ms,
    throughput_series,
)
from repro.analysis.overhead_eval import evaluate_overhead
from repro.analysis.reporting import format_cdf_table, format_table
from repro.analysis.workloads import (
    BENCHMARK_LOCAL_AS,
    SYNTHETIC_ORIGIN_AS,
    synthetic_candidate_set,
)
from repro.core.databases import IngressDatabase
from repro.simulation.beaconing import BeaconingSimulation
from repro.simulation.scenario import don_scenario
from repro.topology.generator import generate_topology

from tests.conftest import small_test_config


class TestEmpiricalCDF:
    def test_basic_statistics(self):
        cdf = EmpiricalCDF.from_samples([3.0, 1.0, 2.0, 4.0])
        assert cdf.sample_count == 4
        assert cdf.median == pytest.approx(2.5)
        assert cdf.mean == pytest.approx(2.5)
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 4.0

    def test_unsorted_construction_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(values=(3.0, 1.0))

    def test_empty_cdf(self):
        cdf = EmpiricalCDF.from_samples([])
        assert cdf.sample_count == 0
        with pytest.raises(ValueError):
            cdf.quantile(0.5)
        with pytest.raises(ValueError):
            _ = cdf.mean

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF.from_samples([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_relative_to_baseline(self):
        ratios = relative_to_baseline([2.0, None, 6.0, 4.0], [1.0, 2.0, 3.0, 0.0])
        assert ratios == [2.0, 2.0]


class TestWorkloads:
    def test_sizes_and_determinism(self):
        a = synthetic_candidate_set(16, seed=3)
        b = synthetic_candidate_set(16, seed=3)
        assert len(a) == 16
        assert [x.beacon.digest() for x in a] == [y.beacon.digest() for y in b]

    def test_unique_paths(self):
        candidates = synthetic_candidate_set(64)
        digests = {c.beacon.digest() for c in candidates}
        assert len(digests) == 64

    def test_all_same_origin(self):
        candidates = synthetic_candidate_set(8)
        assert all(c.beacon.origin_as == SYNTHETIC_ORIGIN_AS for c in candidates)

    def test_stored_variant(self):
        """The candidates are the records an ingress database stores."""
        candidates = synthetic_candidate_set(4)
        database = IngressDatabase(local_as=BENCHMARK_LOCAL_AS)
        for candidate in candidates:
            assert database.insert(candidate)
        assert database.all_beacons() == candidates
        assert all(c.ingress_interface == 1 and c.received_at_ms == 0.0 for c in candidates)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_candidate_set(-1)


class TestMicrobench:
    def test_rac_latency_breakdown(self):
        breakdown = measure_rac_latency(32, modelled_setup_ms=1.0, modelled_ipc_call_ms=0.5)
        assert breakdown.candidate_set_size == 32
        assert breakdown.setup_ms > 1.0
        assert breakdown.ipc_ms > 2 * 0.5
        assert breakdown.execution_ms > 0.0
        assert breakdown.irec_total_ms == pytest.approx(
            breakdown.setup_ms + breakdown.ipc_ms + breakdown.execution_ms
        )

    def test_legacy_latency_positive_and_smaller(self):
        legacy = measure_legacy_latency(32)
        irec = measure_rac_latency(32, modelled_setup_ms=1.0, modelled_ipc_call_ms=0.5)
        assert legacy > 0.0
        assert irec.irec_total_ms > legacy

    def test_latency_series_shape(self):
        series = latency_series([8, 64], 7, *modelled_costs_ms())
        assert [point.candidate_set_size for point in series] == [8, 64]
        assert all(point.slowdown_vs_legacy is not None for point in series)
        assert all(point.slowdown_vs_legacy > 1.0 for point in series)
        # Execution time grows with the candidate set.  Wall-clock timing is
        # noisy on a loaded machine, so compare the best of three runs per
        # size instead of single measurements.
        best_small = min(measure_rac_latency(8, seed=s).execution_ms for s in (1, 2, 3))
        best_large = min(measure_rac_latency(256, seed=s).execution_ms for s in (1, 2, 3))
        assert best_large > best_small

    def test_throughput_scales_with_rac_count(self):
        one = measure_throughput(rac_count=1, candidate_set_size=64)
        four = measure_throughput(rac_count=4, candidate_set_size=64)
        assert one.pcbs_per_second > 0.0
        assert four.pcbs_per_second > 2.0 * one.pcbs_per_second

    def test_throughput_series_grid(self):
        series = throughput_series(rac_counts=[1, 2], candidate_set_sizes=[16, 64])
        assert len(series) == 4

    def test_invalid_rac_count(self):
        with pytest.raises(ValueError):
            measure_throughput(rac_count=0, candidate_set_size=16)


class TestTolerableLinkFailures:
    def test_empty_set(self):
        assert tolerable_link_failures([], 1, 2) == 0

    def test_single_path(self):
        path = [((1, 1), (2, 1)), ((2, 2), (3, 1))]
        assert tolerable_link_failures([path], 1, 3) == 1

    def test_two_disjoint_paths(self):
        path_a = [((1, 1), (2, 1)), ((2, 2), (4, 1))]
        path_b = [((1, 2), (3, 1)), ((3, 2), (4, 2))]
        assert tolerable_link_failures([path_a, path_b], 1, 4) == 2

    def test_shared_bottleneck_link(self):
        shared = ((1, 1), (2, 1))
        path_a = [shared, ((2, 2), (4, 1))]
        path_b = [shared, ((2, 3), (4, 2))]
        assert tolerable_link_failures([path_a, path_b], 1, 4) == 1

    def test_disconnected_paths(self):
        stray = [((5, 1), (6, 1))]
        assert tolerable_link_failures([stray], 1, 2) == 0


@pytest.fixture(scope="module")
def small_simulation_result():
    topology = generate_topology(small_test_config())
    scenario = don_scenario(periods=3, verify_signatures=False)
    return BeaconingSimulation(topology, scenario).run()


class TestSimulationEvaluations:
    def test_delay_evaluation(self, small_simulation_result):
        as_ids = small_simulation_result.topology.as_ids()
        pairs = [(as_ids[-1], as_ids[0]), (as_ids[-2], as_ids[1])]
        evaluation = evaluate_delay(
            small_simulation_result, tags=["5sp", "don"], baseline_tag="1sp", as_pairs=pairs
        )
        assert set(evaluation.delays_ms) == {"1sp", "5sp", "don"}
        assert any(delay is not None for delay in evaluation.delays_ms["1sp"])
        cdf = evaluation.cdf_relative_to_baseline("don")
        assert cdf.sample_count > 0
        # Delay optimization can never be worse than the baseline by more
        # than a small margin on the pairs it covers, and its median ratio
        # must be at most 1.
        assert evaluation.median_ratio("don") <= 1.0 + 1e-9

    def test_disjointness_evaluation(self, small_simulation_result):
        as_ids = small_simulation_result.topology.as_ids()
        pairs = [(as_ids[-1], as_ids[0])]
        evaluation = evaluate_disjointness(
            small_simulation_result, tags=["1sp", "5sp"], as_pairs=pairs
        )
        assert evaluation.tlf["1sp"][0] >= 0
        assert evaluation.tlf["5sp"][0] >= evaluation.tlf["1sp"][0]

    def test_overhead_evaluation(self, small_simulation_result):
        evaluation = evaluate_overhead([("don-run", small_simulation_result)])
        assert evaluation.labels() == ("don-run",)
        assert evaluation.total("don-run") == small_simulation_result.collector.total_sent
        assert evaluation.mean_per_interface_period("don-run") > 0.0
        assert evaluation.cdf("don-run").sample_count > 0

    def test_disjointness_with_extra_paths(self, key_store, small_simulation_result):
        from tests.conftest import make_beacon

        as_ids = small_simulation_result.topology.as_ids()
        source, destination = as_ids[-1], as_ids[0]
        extra_segment = make_beacon(
            key_store, [(destination, None, 90), (900, 1, 2), (source, 1, None)]
        )
        evaluation = evaluate_disjointness(
            small_simulation_result,
            tags=["pd"],
            as_pairs=[(source, destination)],
            extra_paths={(source, destination): {"pd": [extra_segment]}},
        )
        assert evaluation.tlf["pd"][0] >= 1


class TestReporting:
    def test_format_table(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["bb", 7]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.235" in text
        assert len(lines) == 4

    def test_format_cdf_table(self):
        cdfs = {
            "x": EmpiricalCDF.from_samples([1.0, 2.0, 3.0]),
            "empty": EmpiricalCDF.from_samples([]),
        }
        text = format_cdf_table(cdfs)
        assert "x" in text
        assert "empty" in text
        assert "p50" in text

"""Tests of the benchmark itself, at toy sizes (collected by the tier-1 run)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import aa  # noqa: E402
import harness  # noqa: E402
import run as runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import RefClock  # noqa: E402

from repro.core.beacon import Beacon, BeaconBuilder  # noqa: E402
from repro.crypto.signer import Signer, Verifier  # noqa: E402

WORKLOAD_NAMES = [workload.name for workload in workloads.WORKLOADS]


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="ascii") as handle:
        return json.load(handle)


def _fake_clock() -> RefClock:
    """A clock that never probes the host: tests need no timing."""
    return RefClock(probe_fn=lambda: 1.0, ref_s=1.0)


def _traced_toy_run(name: str, seed: int):
    workload = workloads.workload_named(name)
    clock = _fake_clock()
    clock.start("import")
    tracer = tracing.Tracer()
    try:
        result = harness.execute(workload, seed, True, clock, tracer)
    finally:
        tracer.restore()
    metrics, _table = runner.per_layer_metrics(result, tracer)
    return result, metrics


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tick_wrappers_are_digest_neutral(name):
    workload = workloads.workload_named(name)
    plain = harness.build_simulation(workload.build(5, True))
    hooked = harness.build_simulation(workload.build(5, True))
    ticks = []
    harness.install_ticks(hooked, lambda: ticks.append(1))
    for _ in range(3):
        plain.run_period()
        hooked.run_period()
    assert ticks, "the wrappers never ran"
    assert harness.simulation_digest(hooked) == harness.simulation_digest(plain)
    harness.remove_ticks(hooked)
    assert all("run_round" not in vars(service) for service in hooked.services.values())


def test_tracer_restores_every_patch():
    classes = [BeaconBuilder, Beacon, Signer, Verifier] + tracing._algorithm_classes()
    before = {cls: dict(vars(cls)) for cls in classes}
    sim = harness.build_simulation(workloads.workload_named("rac_grid").build(5, True))
    tracer = tracing.Tracer()
    tracer.install(sim)
    assert vars(BeaconBuilder)["extend"] is not before[BeaconBuilder]["extend"]
    assert "run_round" in vars(next(iter(sim.services.values())))
    tracer.restore()
    for cls in classes:
        assert dict(vars(cls)) == before[cls], cls
    for service in sim.services.values():
        for patched in (service, service.ingress, service.ingress.database, service.egress):
            assert not any(callable(value) for value in vars(patched).values() if hasattr(value, "__wrapped__"))
    sim.run_period()  # still runs unhooked


@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_printed_once_with_its_unit(trace):
    benchmark = _benchmark()
    declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "beacon_churn",
         "--seed", "5", "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=120, check=True,
    )  # fmt: skip
    seen = []

    def pairs(items):
        seen.extend(key for key, _value in items)
        return dict(items)

    result = json.loads(finished.stdout.strip().splitlines()[-1], object_pairs_hook=pairs)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(entry["name"] for entry in declared)
    for entry in declared:
        assert seen.count(entry["name"]) == 1
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", entry["name"])
        assert entry["better"] in ("higher", "lower")


def test_seeds_change_inputs_and_equal_seeds_repeat_exact_counts():
    for workload in workloads.WORKLOADS:
        first, again, other = (workload.build(seed, True) for seed in (5, 5, 6))
        weights = [
            sorted((key, link.latency_ms) for key, link in inputs.topology.links.items())
            for inputs in (first, again, other)
        ]
        assert weights[0] == weights[1]
        assert weights[0] != weights[2]
        assert sorted(first.topology.links) == sorted(other.topology.links)  # same shape

    result_a, metrics_a = _traced_toy_run("beacon_churn", 5)
    result_b, metrics_b = _traced_toy_run("beacon_churn", 5)
    assert result_a.correct and result_a.digest == result_b.digest
    counts = [
        name
        for name, value in metrics_a.items()
        if value["unit"] == "count" and not name.startswith("host.")
    ]
    assert len(counts) >= 40
    for name in counts:
        assert metrics_a[name]["value"] == metrics_b[name]["value"], name
    assert metrics_a["core.revocation.messages"]["value"] > 0
    assert metrics_a["core.databases.withdrawn"]["value"] > 0


def test_hooked_run_matches_its_unhooked_twin_and_sets_up_as_often_as_declared():
    workload = workloads.workload_named("beacon_long")
    clock = _fake_clock()
    clock.start("import")
    result = harness.execute(workload, 5, True, clock)
    assert result.correct and result.failed == 0
    assert result.prefix_digest == harness.unhooked_prefix_digest(workload, 5, True)
    assert workload.setups > 1 and len(result.setups) == workload.setups
    assert clock.ref_s_of("setup") == pytest.approx(sum(ref for ref, _raw in result.setups))
    assert result.peak_rss_mb > 0.0


def test_only_the_declared_run_length_is_accepted():
    assert runner.RUN_SECONDS == _benchmark()["run_seconds"]
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "beacon_churn",
         "--seed", "5", "--seconds", str(runner.RUN_SECONDS + 1), "--trace", "0", "--toy"],
        capture_output=True, text=True, timeout=120, check=False,
    )  # fmt: skip
    assert finished.returncode == 2 and not finished.stdout


def test_churn_query_mix_is_one_write_and_four_misses_per_group():
    inputs = workloads.workload_named("beacon_churn").build(5, True)
    sim = harness.build_simulation(inputs)
    for _ in range(inputs.warmup_periods):
        sim.run_period()
    mix = harness.query_mix(sim, inputs)
    groups = sum(len(pairs) for pairs in mix.values())
    assert 0 < groups <= sum(len(per_as) for per_as in inputs.query_groups.values())
    registered = {a: len(s.path_service.all_paths()) for a, s in sim.services.items()}
    harness.query_pass(sim, mix, lambda: None, [0])  # fills the caches
    before = harness.read_ledgers(sim)
    lookups, _sizes, wrong, written = harness.query_pass(sim, mix, lambda: None, [0])
    delta = harness.ledger_delta(harness.read_ledgers(sim), before)
    assert wrong == 0 and written == groups and lookups == 4 * groups
    assert delta["query.misses"] == lookups and delta["query.hits"] == 0
    assert registered == {a: len(s.path_service.all_paths()) for a, s in sim.services.items()}


def test_refclock_books_wall_times_probe_ratio():
    now = [0.0]
    step = 1.0 / 64.0  # exact in binary, so chunk boundaries are exact too

    # The host runs the kernel at half its reference speed throughout.
    clock = RefClock(ref_s=0.002, min_chunk_s=4 * step, timer=lambda: now[0], probe_fn=lambda: 0.004)
    clock.start("work")
    for _ in range(128):
        now[0] += step
        clock.tick()
    clock.phase("other")
    now[0] += 0.5
    clock.stop()
    assert clock.raw_s_of("work") == pytest.approx(2.0)
    assert clock.ref_s_of("work") == pytest.approx(1.0)
    assert clock.ref_s_of("other") == pytest.approx(0.25)
    assert clock.scale_of("work") == pytest.approx(0.5)
    assert clock.host_stats()["slowdown_p50"] == pytest.approx(2.0)
    # One probe at start, one per closed 4-step chunk, one per phase change.
    assert clock.host_stats()["probe_count"] == 1 + 32 + 2


def test_refclock_backdates_the_first_chunk_without_its_own_probe():
    now = [10.0]

    def probe_taking_a_second():
        now[0] += 1.0
        return 0.002

    clock = RefClock(ref_s=0.002, timer=lambda: now[0], probe_fn=probe_taking_a_second)
    clock.start("import", backdate_to=7.0)  # three seconds before the clock existed
    now[0] += 0.5
    clock.stop()
    assert clock.raw_s_of("import") == pytest.approx(3.5)


def test_bounds_are_three_worst_spreads_and_setup_takes_the_largest(tmp_path, monkeypatch):
    monkeypatch.setattr(aa, "BENCHMARK_JSON", str(tmp_path / "BENCHMARK.json"))
    monkeypatch.setattr(aa, "RESULTS", str(tmp_path / "results"))

    def row(delta, iqr_a, iqr_b):
        return {
            "median_A": 1.0, "median_B": 1.0 + delta, "delta_medians": delta,
            "iqr_over_median_A": iqr_a, "iqr_over_median_B": iqr_b,
        }  # fmt: skip

    names = ("setup_s", "pcbs_per_s", "peak_rss_mb", "noisy_per_s")
    benchmark = {"end_to_end": [{"name": name, "bound": 0.0} for name in names]}
    report = {
        "wall_s": [1.0],
        "workloads": {
            "one": {
                "setup_s": row(0.01, 0.12, 0.05),
                "pcbs_per_s": row(0.04, 0.02, 0.01),
                "peak_rss_mb": row(0.0, 0.004, 0.002),
                "noisy_per_s": row(0.0, 0.09, 0.03),
            },
            "two": {
                "setup_s": row(0.0, 0.03, 0.03),
                "pcbs_per_s": row(0.0, 0.06, 0.05),
                "peak_rss_mb": row(0.0, 0.001, 0.001),
                "noisy_per_s": row(0.0, 0.02, 0.02),
            },
        },
    }
    assert aa.write_bounds(benchmark, report) == 1  # noisy_per_s: 3 x 9 % is beyond 25 %
    assert [item["metric"] for item in report["cannot_be_gated"]] == ["noisy_per_s"]
    bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    assert bounds["pcbs_per_s"] == pytest.approx(0.18)  # 3 x the worst spread beats 2 x delta
    assert bounds["peak_rss_mb"] == pytest.approx(0.02)  # its floor
    assert bounds["setup_s"] == pytest.approx(0.18)  # the largest other bound beats its own 12 %
    assert report["needed"]["pcbs_per_s"] == pytest.approx(0.08)  # the issue's rule: 2 x delta
    assert report["above_issue_target"] == ["setup_s", "pcbs_per_s"]

"""A/A runs of irecbench: generate the regression bounds, check dominance.

    python3 benchmarks/irecbench/aa.py --runs 10
        two interleaved sets (A, B) of 10 untraced runs per workload of this
        checkout; run i of either set uses seed i, so the sets differ by the
        host alone.  Writes results/aa.json and the ``bound`` of every
        end-to-end metric in BENCHMARK.json.

    python3 benchmarks/irecbench/aa.py --check-dominance
        two traced runs per workload with one seed; asserts the workload-
        dominance table, ``trace.coverage`` and that every exact count
        repeats; writes results/dominance.json.

Bounds are generated here, never written by hand.  Over all workloads,

    needed = max(floor, 2 x |median A - median B| / median A, worst IQR/median)
    bound  = max(needed, 3 x worst IQR/median)

rounded up to a thousandth, floor 5 % (2 % for ``peak_rss_mb``).  ``needed``
is the issue's rule, and the issue wants it at 10 % or less.  The second line
is the builder's contract: its driver repeats this experiment and refuses a
benchmark whose spread then exceeds the bound, so every spread seen here has
to stay below a third of the bound.  Metrics whose bound comes out above the
issue's 10 % are listed under ``above_issue_target`` and named in the README.
A metric whose bound would exceed the contract's limit of 25 % cannot be
gated at all: it is listed under ``cannot_be_gated``, this program exits
non-zero and the metric is to be demoted to a per-layer metric by hand.
``setup_s`` is treated as the contract treats it -- required, exempt from
the driver's spread test, and to have the largest bound: ``needed`` or the
largest of the other bounds, whichever is larger.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUNNER = os.path.join(HERE, "run.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(HERE, "results")

FLOORS = {"peak_rss_mb": 0.02}
DEFAULT_FLOOR = 0.05
#: The widest bound the issue wants to see on a gate.
ISSUE_TARGET = 0.10
#: The widest bound the builder's contract allows.
LIMIT = 0.25
#: Spreads of headroom the builder's contract asks for.
HEADROOM = 3.0
#: The end-to-end metric the contract requires and exempts from its spread test.
SETUP = "setup_s"


def run_once(workload, seed, seconds, trace):
    """Run the benchmark once; return (result object, host line, wall s, stdout)."""
    command = [
        sys.executable,
        RUNNER,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    begin = time.perf_counter()
    finished = subprocess.run(command, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - begin
    if finished.returncode != 0:
        sys.stderr.write(finished.stdout[-2000:] + finished.stderr[-2000:])
        raise SystemExit("irecbench run failed: %s" % " ".join(command))
    lines = finished.stdout.strip().splitlines()
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    return json.loads(lines[-1]), host, wall, finished.stdout


def spread(values):
    """Inter-quartile range as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def load_benchmark():
    with open(BENCHMARK_JSON, "r", encoding="ascii") as handle:
        return json.load(handle)


def aa(runs):
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    metric_names = [entry["name"] for entry in benchmark["end_to_end"]]
    # samples[workload][set][metric] -> values; raw[workload][set][metric] -> wall-clock values
    samples = {w: {s: {m: [] for m in metric_names} for s in "AB"} for w in workloads}
    raw = {w: {s: {} for s in "AB"} for w in workloads}
    walls = []
    for index in range(runs):
        seed = 1 + index
        for workload in workloads:
            # Alternate which set goes first, so neither always runs on a warm host.
            for label in ("AB", "BA")[index % 2]:
                result, host, wall, _out = run_once(workload, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    raise SystemExit("%s seed %d: incorrect or failed operations" % (workload, seed))
                walls.append(wall)
                for name in metric_names:
                    samples[workload][label][name].append(result["metrics"][name]["value"])
                for key, value in host.get("raw", {}).items():
                    raw[workload][label].setdefault(key, []).append(value)
                print(
                    "%-13s %s seed %3d  %5.1f s  %s"
                    % (
                        workload,
                        label,
                        seed,
                        wall,
                        "  ".join("%s=%.5g" % (n, result["metrics"][n]["value"]) for n in metric_names),
                    ),
                    flush=True,
                )

    report = {"runs_per_set": runs, "seconds": seconds, "wall_s": walls, "workloads": {}}
    for workload in workloads:
        rows = report["workloads"][workload] = {}
        for name in metric_names:
            a, b = samples[workload]["A"][name], samples[workload]["B"][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows[name] = {
                "A": a,
                "B": b,
                "median_A": median_a,
                "median_B": median_b,
                "delta_medians": abs(median_a - median_b) / median_a,
                "iqr_over_median_A": spread(a),
                "iqr_over_median_B": spread(b),
            }
            raw_a = raw[workload]["A"].get(name)
            if raw_a:
                raw_b = raw[workload]["B"][name]
                rows[name]["raw_A"] = raw_a
                rows[name]["raw_B"] = raw_b
                rows[name]["raw_iqr_over_median_A"] = spread(raw_a)
                rows[name]["raw_iqr_over_median_B"] = spread(raw_b)
    return write_bounds(benchmark, report)


def ceil_thousandth(value):
    return math.ceil(value * 1000.0 - 1e-9) / 1000.0


def write_bounds(benchmark, report):
    """Derive every bound from ``report``; write results/aa.json and BENCHMARK.json."""
    cannot_be_gated = []
    not_halved = []
    needed_by_metric = {}
    for entry in benchmark["end_to_end"]:
        name = entry["name"]
        needed = FLOORS.get(name, DEFAULT_FLOOR)
        worst = 0.0
        for workload, rows in report["workloads"].items():
            row = rows[name]
            here = max(row["iqr_over_median_A"], row["iqr_over_median_B"])
            worst = max(worst, here)
            needed = max(needed, 2.0 * row["delta_medians"], here)
            if "raw_iqr_over_median_A" in row:
                raw_here = max(row["raw_iqr_over_median_A"], row["raw_iqr_over_median_B"])
                if here > 0.5 * raw_here:
                    not_halved.append(
                        {"workload": workload, "metric": name, "iqr": here, "raw_iqr": raw_here}
                    )
        needed_by_metric[name] = needed
        if name == SETUP:
            continue
        wanted = max(needed, HEADROOM * worst)
        if wanted > LIMIT:
            cannot_be_gated.append({"metric": name, "wanted": wanted})
        else:
            entry["bound"] = ceil_thousandth(wanted)
    for entry in benchmark["end_to_end"]:
        if entry["name"] == SETUP:
            others = [other["bound"] for other in benchmark["end_to_end"] if other is not entry]
            entry["bound"] = min(LIMIT, max([ceil_thousandth(needed_by_metric[SETUP])] + others))
    report["needed"] = needed_by_metric
    report["bounds"] = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
    report["above_issue_target"] = [
        name for name, bound in report["bounds"].items() if bound > ISSUE_TARGET
    ]
    report["cannot_be_gated"] = cannot_be_gated
    report["normalised_spread_not_half_of_raw"] = not_halved

    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "aa.json"), "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    with open(BENCHMARK_JSON, "w", encoding="ascii") as handle:
        json.dump(benchmark, handle, indent=2)
        handle.write("\n")

    print(
        "\n%-13s %-16s %10s %10s %8s %8s %8s %8s"
        % ("workload", "metric", "median A", "median B", "delta", "IQR A", "IQR B", "raw IQR")
    )
    for workload, rows in report["workloads"].items():
        for name, row in rows.items():
            raw_iqr = max(row.get("raw_iqr_over_median_A", 0.0), row.get("raw_iqr_over_median_B", 0.0))
            print(
                "%-13s %-16s %10.5g %10.5g %7.2f%% %7.2f%% %7.2f%% %8s"
                % (
                    workload,
                    name,
                    row["median_A"],
                    row["median_B"],
                    100 * row["delta_medians"],
                    100 * row["iqr_over_median_A"],
                    100 * row["iqr_over_median_B"],
                    "%7.2f%%" % (100 * raw_iqr) if raw_iqr else "--",
                )
            )
    print("needed (the issue's rule):", {name: round(value, 4) for name, value in needed_by_metric.items()})
    print("bounds:", report["bounds"])
    walls = report["wall_s"]
    print("run wall: median %.1f s, max %.1f s" % (statistics.median(walls), max(walls)))
    for item in not_halved:
        print(
            "normalised spread above half the raw one: %(workload)s %(metric)s "
            "%(iqr).3f against %(raw_iqr).3f" % item
        )
    for name in report["above_issue_target"]:
        print("above the issue's 10 %% target: %s at %.3f" % (name, report["bounds"][name]))
    for item in cannot_be_gated:
        print("cannot be gated, demote it: %(metric)s wants %(wanted).3f" % item)
    return 1 if cannot_be_gated else 0


def check_dominance(seed):
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    report = {"seconds": seconds, "seed": seed, "workloads": {}}
    failures = []
    for entry in benchmark["workloads"]:
        workload = entry["name"]
        first, _host, _wall, output = run_once(workload, seed, seconds, 1)
        second, _host, _wall, _output = run_once(workload, seed, seconds, 1)
        with open(os.path.join(HERE, "out", "trace.json"), "r", encoding="ascii") as handle:
            rows = json.load(handle)["dominance"]
        changed = [
            name
            for name, value in first["metrics"].items()
            if value["unit"] == "count"
            and not name.startswith("host.")
            and second["metrics"][name]["value"] != value["value"]
        ]
        coverage = first["metrics"]["trace.coverage"]["value"]
        report["workloads"][workload] = {
            "dominance": rows,
            "counts_changed_between_runs": changed,
            "trace.coverage": coverage,
            "trace.overhead_ratio": first["metrics"]["trace.overhead_ratio"]["value"],
        }
        print("\n".join(line for line in output.splitlines() if line.startswith("#   ") or "dominance" in line))
        failures.extend("%s: %s" % (workload, row["what"]) for row in rows if not row["holds"])
        failures.extend("%s: count %s does not repeat" % (workload, name) for name in changed)
        if coverage < 0.90:
            failures.append("%s: trace.coverage %.3f < 0.90" % (workload, coverage))
    report["failures"] = failures
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "dominance.json"), "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for failure in failures:
        print("FAILS:", failure)
    print("dominance, coverage and exact counts: %s" % ("hold" if not failures else "DO NOT HOLD"))
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 8)")
    parser.add_argument("--check-dominance", action="store_true")
    parser.add_argument("--seed", type=int, default=1, help="seed of the --check-dominance runs")
    arguments = parser.parse_args(argv)
    if arguments.check_dominance:
        return check_dominance(arguments.seed)
    if arguments.runs < 8:
        parser.error("--runs must be at least 8")
    return aa(arguments.runs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

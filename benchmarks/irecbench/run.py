"""irecbench: one workload, one seed, one process.

    python3 benchmarks/irecbench/run.py --workload beacon_wide --seed 1 --seconds 10 --trace 0

prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` (which also prints the layer and dominance tables and writes
``out/trace.json``).  See README.md next to this file.
"""

import time

_FIRST_STATEMENT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
_T0_VARIABLE = "IRECBENCH_T0"

#: ``run_seconds`` of BENCHMARK.json and the only ``--seconds`` accepted: the
#: repeat counts in workloads.py are sized for it and the digests in
#: expected.json pinned at it.
RUN_SECONDS = 10


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="must be %d" % RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="pin this run's output digest in expected.json"
    )
    parser.add_argument(
        "--toy", action="store_true", help="toy sizes, for test_irecbench.py only"
    )
    return parser.parse_args(argv)


def settle_process() -> None:
    """Re-exec with a fixed hash seed, then pin to one CPU.

    ``PYTHONHASHSEED=0`` makes set and dict orders -- and with them the
    output digest and the work done -- the same in every run.  The time of
    the runner's first statement travels through the environment so the
    import phase is still counted from there (``perf_counter`` is system-wide).
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        environment = dict(os.environ, PYTHONHASHSEED="0")
        environment[_T0_VARIABLE] = repr(_FIRST_STATEMENT)
        sys.stdout.flush()
        command = [sys.executable, os.path.abspath(__file__)] + sys.argv[1:]
        os.execve(sys.executable, command, environment)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(result):
    clock = result.clock
    return {
        "setup_s": metric(statistics.median(ref for ref, _raw in result.setups), "s"),
        "pcbs_per_s": metric(result.pcbs_sent / clock.ref_s_of("beaconing"), "1/s"),
        "peak_rss_mb": metric(result.peak_rss_mb, "MiB"),
        "rac_pcbs_per_s": metric(result.rac_candidates / clock.ref_s_of("rac"), "1/s"),
    }


def per_layer_metrics(result, tracer):
    """Every per-layer metric of BENCHMARK.json, from spans and ledgers.

    Span times are raw seconds scaled by the phase's reference-per-raw
    ratio; unless a name says otherwise they cover phase 2 (beaconing).
    """
    clock = result.clock
    table = tracer.aggregate()
    beaconing, rac, query = table["beaconing"], table["rac"], table["query"]
    ledger = result.ledgers["beaconing"]
    query_ledger = result.ledgers["query"]
    scale = {name: clock.scale_of(name) for name in ("beaconing", "rac", "query")}
    metrics = {}

    def row(phase_table, name):
        return phase_table.get(name, {"calls": 0, "cum_s": 0.0, "self_s": 0.0})

    def seconds(key, span, field="cum_s", phase_table=beaconing, phase="beaconing"):
        metrics[key] = metric(row(phase_table, span)[field] * scale[phase], "s")

    def count(key, value):
        metrics[key] = metric(value, "count")

    def ratio(key, numerator, denominator):
        metrics[key] = metric(numerator / denominator if denominator else 0.0, "ratio")

    setup_scale = clock.scale_of("setup")
    metrics["setup.import_s"] = metric(clock.ref_s_of("import"), "s")
    metrics["topology.generate_s"] = metric(result.timers["topology.generate_s"] * setup_scale, "s")
    metrics["simulation.beaconing.construct_s"] = metric(
        result.timers["simulation.beaconing.construct_s"] * setup_scale, "s"
    )
    metrics["setup.warmup_s"] = metric(result.timers["setup.warmup_ref_s"], "s")
    count("setup.warmup_periods", result.warmup_periods)
    metrics["setup.steady_gap"] = metric(result.steady_gap, "ratio")

    count("crypto.sign_calls", ledger["crypto.signature_sign"])
    count("crypto.verify_calls", ledger["crypto.signature_verify"])
    count("crypto.digest_calls", ledger["crypto.beacon_digest"])
    count("crypto.encode_calls", ledger["crypto.beacon_encode"])
    seconds("crypto.sign_cum_s", "crypto.sign")
    seconds("crypto.verify_cum_s", "crypto.verify")

    count("core.beacon.extend_calls", row(beaconing, "core.beacon.extend")["calls"])
    seconds("core.beacon.extend_cum_s", "core.beacon.extend")
    metrics["core.beacon.bytes_per_pcb"] = metric(tracer.pcb_bytes / max(1, tracer.pcb_count), "B")

    count("core.ingress.receive_calls", row(beaconing, "core.ingress.receive")["calls"])
    seconds("core.ingress.receive_cum_s", "core.ingress.receive")
    seconds("core.ingress.receive_self_s", "core.ingress.receive", "self_s")
    count("core.ingress.accepted", ledger["ingress.accepted"])
    count("core.ingress.rejected_expired", ledger["ingress.rejected_expired"])
    count("core.ingress.full_verifications", ledger["ingress.full_verifications"])
    count("core.ingress.incremental_verifications", ledger["ingress.incremental_verifications"])
    ratio("core.ingress.accept_ratio", ledger["ingress.accepted"], ledger["ingress.received"])

    for key, span in (
        ("insert", "core.databases.insert"),
        ("fetch", "core.databases.fetch"),
        ("path_register", "core.databases.path_register"),
        ("withdraw", "core.databases.withdraw"),
    ):
        count("core.databases.%s_calls" % key, row(beaconing, span)["calls"])
        seconds("core.databases.%s_cum_s" % key, span)
    count("core.databases.expired", tracer.summed("beaconing", "core.databases.expire"))
    count("core.databases.withdrawn", tracer.summed("beaconing", "core.databases.withdraw"))

    reports = result.rac_reports
    count("core.rac.process_calls", row(beaconing, "core.rac.process")["calls"])
    seconds("core.rac.process_cum_s", "core.rac.process")
    seconds("core.rac.process_self_s", "core.rac.process", "self_s")
    count("core.rac.candidates", sum(report.candidates for report in reports))
    count("core.rac.buckets", sum(report.buckets for report in reports))
    count("core.rac.selections", sum(report.selections for report in reports))
    for part in ("setup", "ipc", "execution"):
        metrics["core.rac.report_%s_ms" % part] = metric(
            sum(getattr(report, part + "_ms") for report in reports) * scale["beaconing"], "ms"
        )
    count("core.ipc.marshal_calls", row(beaconing, "core.ipc.marshal")["calls"])
    seconds("core.ipc.marshal_cum_s", "core.ipc.marshal")
    count("core.ipc.marshal_bytes", tracer.marshal_bytes)
    seconds("core.sandbox.setup_cum_s", "core.sandbox.setup")
    count("algorithms.execute_calls", row(beaconing, "algorithms.execute")["calls"])
    seconds("algorithms.execute_cum_s", "algorithms.execute")

    for part in ("propagate", "register", "originate"):
        seconds("core.egress.%s_cum_s" % part, "core.egress." + part)
    count("core.egress.propagated", ledger["egress.propagated"])
    count("core.egress.registered", ledger["egress.registered"])
    count("core.egress.suppressed_duplicates", ledger["egress.suppressed_duplicates"])
    ratio(
        "core.egress.useful_ratio",
        ledger["egress.propagated"],
        sum(report.selections for report in reports),
    )

    seconds("core.control_service.run_round_cum_s", "core.control_service.run_round")
    seconds("core.control_service.run_round_self_s", "core.control_service.run_round", "self_s")
    seconds("core.control_service.dispatch_cum_s", "core.control_service.dispatch")
    seconds("core.control_service.dispatch_self_s", "core.control_service.dispatch", "self_s")

    drains = row(beaconing, "core.control_service.dispatch")["calls"]
    count("simulation.network.send_calls", row(beaconing, "simulation.network.send")["calls"])
    seconds("simulation.network.send_cum_s", "simulation.network.send")
    count("simulation.network.drain_calls", drains)
    ratio("simulation.network.batch_mean", tracer.batch_entries, drains)
    count("simulation.network.dropped", ledger["net.dropped"])
    count("simulation.engine.events", ledger["engine.events"])
    seconds("simulation.engine.run_until_cum_s", "simulation.engine.run_until")
    seconds("simulation.engine.run_until_self_s", "simulation.engine.run_until", "self_s")

    count("core.revocation.messages", ledger["net.revocations"])
    count("core.revocation.duplicates", ledger["revocation.duplicates"])
    count("core.revocation.withdrawals", ledger["revocation.applied"])
    seconds("core.revocation.on_revocation_cum_s", "core.revocation.on_revocation")

    count("simulation.beaconing.probe_calls", row(beaconing, "simulation.beaconing.probe")["calls"])
    seconds("simulation.beaconing.probe_cum_s", "simulation.beaconing.probe")
    seconds("simulation.beaconing.driver_self_s", "simulation.beaconing.run_period", "self_s")

    # An end-to-end metric until the A/A runs showed it cannot be gated (README).
    metrics["core.query.lookups_per_s"] = metric(result.lookups / clock.ref_s_of("query"), "1/s")
    seconds("core.query.query_cum_s", "core.query.query", "cum_s", query, "query")
    count("core.query.hits", query_ledger["query.hits"])
    count("core.query.misses", query_ledger["query.misses"])
    count("core.query.invalidations", query_ledger["query.invalidations"])
    ratio("core.query.hit_ratio", query_ledger["query.hits"], query_ledger["query.lookups"])
    count("core.query.writes", result.query_writes)
    seconds("core.query.write_cum_s", "core.databases.withdraw", "cum_s", query, "query")

    # Phase 3 decomposed the way the paper's Fig. 6 decomposes one RAC.
    count("rac_pass.candidates", result.rac_candidates)
    for key, span, field in (
        ("process_cum_s", "core.rac.process", "cum_s"),
        ("process_self_s", "core.rac.process", "self_s"),
        ("fetch_cum_s", "core.databases.fetch", "cum_s"),
        ("marshal_cum_s", "core.ipc.marshal", "cum_s"),
        ("sandbox_setup_cum_s", "core.sandbox.setup", "cum_s"),
        ("execute_cum_s", "algorithms.execute", "cum_s"),
    ):
        seconds("rac_pass." + key, span, field, rac, "rac")

    for phase in ("setup", "beaconing", "rac"):
        metrics["mem.rss_after_%s_mb" % phase] = metric(result.rss_after[phase], "MiB")

    host = clock.host_stats()
    metrics["host.slowdown_p50"] = metric(host["slowdown_p50"], "ratio")
    metrics["host.slowdown_p90"] = metric(host["slowdown_p90"], "ratio")
    count("host.probe_count", host["probe_count"])
    metrics["host.probe_share"] = metric(host["probe_share"], "ratio")
    for phase in ("setup", "beaconing", "rac", "query"):
        metrics["host.raw_%s_s" % phase] = metric(clock.raw_s_of(phase), "s")

    # Estimated, not compared with an untraced twin: spans recorded in phase
    # 2 times the calibrated cost of recording one (aa.py has the real ratio).
    spans = sum(entry["calls"] for entry in beaconing.values())
    raw_beaconing = clock.raw_s_of("beaconing")
    metrics["trace.overhead_ratio"] = metric(
        raw_beaconing / max(1e-9, raw_beaconing - spans * result.span_cost_s), "ratio"
    )
    # ``run_period`` encloses the whole phase, so its self time -- driver code
    # that runs under none of the layer boundaries -- is as uncovered as the
    # phase's own.  (Without the span on ``usable_path_count`` the driver's
    # convergence probe would sit there: a fifth of ``beacon_churn``.)
    uncovered = (
        beaconing["phase"]["self_s"]
        + row(beaconing, "simulation.beaconing.run_period")["self_s"]
    )
    metrics["trace.coverage"] = metric(1.0 - uncovered / beaconing["phase"]["cum_s"], "ratio")
    return metrics, table


def print_tables(workload, table, tracing):
    """The layer table of each phase and the workload's dominance rows."""
    for phase in ("beaconing", "rac", "query"):
        shares = tracing.layer_shares(table[phase])
        print("# %s: share of traced wall by layer (self time)" % phase)
        for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
            print("#   %-28s %6.2f %%" % (layer, 100.0 * share))
    print("# dominance on %s (phase 2 self time)" % workload)
    rows = tracing.dominance_rows(workload, table["beaconing"])
    for entry in rows:
        shown = (
            "%d calls" % entry["value"]
            if entry["comparison"] == "calls=="
            else "%.1f %%" % (100.0 * entry["value"])
        )
        print(
            "#   %-34s %10s  %s %s  %s"
            % (
                entry["what"],
                shown,
                entry["comparison"],
                entry["threshold"],
                "holds" if entry["holds"] else "FAILS",
            )
        )
    return rows


def main(argv) -> int:
    arguments = parse_arguments(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("irecbench: no program to measure at %s" % SOURCE, file=sys.stderr)
        return 2
    if arguments.seconds != RUN_SECONDS:
        print("irecbench: runs are sized for --seconds %d only" % RUN_SECONDS, file=sys.stderr)
        return 2
    settle_process()
    first_statement = float(os.environ.get(_T0_VARIABLE, _FIRST_STATEMENT))

    sys.path.insert(0, HERE)
    sys.path.insert(0, SOURCE)
    from probe import PROBE_REF_S, RefClock

    clock = RefClock()
    clock.start("import", backdate_to=first_statement)
    import harness
    import workloads

    try:
        workload = workloads.workload_named(arguments.workload)
    except KeyError:
        print("irecbench: unknown workload %r" % arguments.workload, file=sys.stderr)
        return 2

    tracer = None
    if arguments.trace:
        import tracing

        tracer = tracing.Tracer()
    try:
        result = harness.execute(workload, arguments.seed, arguments.toy, clock, tracer)
    finally:
        if tracer is not None:
            tracer.restore()

    # -- output check ------------------------------------------------------
    with open(EXPECTED_PATH, "r", encoding="ascii") as handle:
        expected = json.load(handle)
    key = "%s seed=%d%s" % (workload.name, arguments.seed, " toy" if arguments.toy else "")
    pinned = expected.get(key)
    digest_ok = True
    if arguments.record or pinned is None:
        twin = harness.unhooked_prefix_digest(workload, arguments.seed, arguments.toy)
        digest_ok = twin == result.prefix_digest
        check = "hooked == unhooked after %d periods" % harness.PREFIX_PERIODS
    else:
        digest_ok = pinned == result.digest
        check = "pinned digest"
    if arguments.record and digest_ok:
        expected[key] = result.digest
        with open(EXPECTED_PATH, "w", encoding="ascii") as handle:
            json.dump(expected, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not digest_ok:
        for phase in result.phases.values():
            phase.fail_all()

    print("# irecbench %s (PROBE_REF_S = %.6f s)" % (key, PROBE_REF_S))
    print(
        "# plan: %d warm-up + %d measured periods, %d RAC passes, %d query passes"
        % (
            result.warmup_periods,
            result.plan.periods,
            result.plan.rac_passes,
            result.plan.query_passes,
        )
    )
    print(
        "# import %.3f reference s; set-ups (reference s): %s"
        % (clock.ref_s_of("import"), " ".join("%.3f" % ref for ref, _raw in result.setups))
    )
    verdict = "ok" if digest_ok else "MISMATCH"
    print("# output check (%s): %s  digest %s" % (check, verdict, result.digest))
    for name, phase in result.phases.items():
        print(
            "# phase %-9s %9d operations, %d failed, %.3f reference s, %.3f raw s"
            % (name, phase.attempted, phase.failed, clock.ref_s_of(name), clock.raw_s_of(name))
        )

    print(
        "# host "
        + json.dumps(
            {
                "slowdown_p50": clock.host_stats()["slowdown_p50"],
                # Each time-based end-to-end metric (and the demoted lookup
                # rate), had it been read off the wall clock.
                "raw": {
                    "setup_s": statistics.median(raw for _ref, raw in result.setups),
                    "pcbs_per_s": result.pcbs_sent / clock.raw_s_of("beaconing"),
                    "rac_pcbs_per_s": result.rac_candidates / clock.raw_s_of("rac"),
                    "lookups_per_s": result.lookups / clock.raw_s_of("query"),
                },
            }
        )
    )
    if tracer is None:
        metrics = end_to_end_metrics(result)
        print(
            "# lookups per reference second, untraced (not gated: per-layer core.query.lookups_per_s): %.1f"
            % (result.lookups / clock.ref_s_of("query"))
        )
    else:
        metrics, table = per_layer_metrics(result, tracer)
        rows = print_tables(workload.name, table, tracing)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(
            os.path.join(OUT_DIR, "trace.json"),
            {"run": key, "probe_ref_s": PROBE_REF_S, "dominance": rows, "phases": table},
        )
    for name in sorted(metrics):
        print("# %-44s %18.6f %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Figure 6 — PCB processing latency: IREC on-demand RAC vs. legacy control service.

The paper reports, for candidate sets Φ from 1 to 4096 PCBs, the latency of
(1) sandbox (Wasmtime) setup, (2) gRPC calls and (3) algorithm execution in
an on-demand RAC, compared with (4) the legacy SCION control service running
the same 20-shortest-paths selection.  The headline observation: for
|Φ| = 64 IREC is two to three orders of magnitude slower than the legacy
service, but both are negligible compared to the beaconing interval; at
large |Φ| execution dominates and the two converge.

This module reproduces the series and prints the same rows (one per |Φ|)
with the per-stage decomposition and the IREC/legacy ratio.  Set-up and
per-call IPC are modelled relative to the execution measured at |Φ| = 256
(``repro.analysis.microbench.CALIBRATION_SET_SIZE``), and every row holds
medians of ``REPEATS`` series, so the shape checks hold however fast the
algorithm or the host is.
"""

from __future__ import annotations

from statistics import median

import pytest

from repro.analysis.microbench import (
    LatencyBreakdown,
    latency_series,
    measure_legacy_latency,
    measure_rac_latency,
    modelled_costs_ms,
)
from repro.analysis.reporting import format_table

#: Candidate-set sizes of the figure; trimmed relative to the paper's 4096
#: maximum to keep the default benchmark run short (raise freely).
CANDIDATE_SET_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Sizes exercised through pytest-benchmark for statistically robust timing.
BENCHMARKED_SIZES = (16, 64, 256)

#: Series whose per-|Φ| medians the report prints and checks.
REPEATS = 5


@pytest.mark.parametrize("size", BENCHMARKED_SIZES)
def test_rac_processing_latency(benchmark, size):
    """Benchmark one on-demand-RAC round over |Φ| = ``size`` candidates."""
    result = benchmark(measure_rac_latency, size)
    assert result.execution_ms > 0.0


@pytest.mark.parametrize("size", BENCHMARKED_SIZES)
def test_legacy_processing_latency(benchmark, size):
    """Benchmark the legacy control service over |Φ| = ``size`` candidates."""
    elapsed_ms = benchmark(measure_legacy_latency, size)
    assert elapsed_ms > 0.0


def test_figure6_series_report(capsys):
    """Regenerate and print the full Figure-6 series."""
    costs = modelled_costs_ms()
    runs = [latency_series(CANDIDATE_SET_SIZES, 7 + i, *costs) for i in range(REPEATS)]
    series = [
        LatencyBreakdown(
            candidate_set_size=points[0].candidate_set_size,
            setup_ms=median(point.setup_ms for point in points),
            ipc_ms=median(point.ipc_ms for point in points),
            execution_ms=median(point.execution_ms for point in points),
            legacy_ms=median(point.legacy_ms for point in points),
        )
        for points in zip(*runs)
    ]
    rows = []
    for point in series:
        rows.append(
            [
                point.candidate_set_size,
                point.setup_ms,
                point.ipc_ms,
                point.execution_ms,
                point.irec_total_ms,
                point.legacy_ms,
                point.slowdown_vs_legacy,
            ]
        )
    table = format_table(
        ["|Phi|", "setup_ms", "ipc_ms", "exec_ms", "irec_total_ms", "legacy_ms", "irec/legacy"],
        rows,
    )
    with capsys.disabled():
        print("\nFigure 6 — RAC processing latency vs. legacy control service")
        print(table)

    # Shape checks mirroring the paper's observations, on medians.
    by_size = {point.candidate_set_size: point for point in series}
    # (i) IREC is markedly slower than legacy at |Φ| = 64 ...
    assert by_size[64].slowdown_vs_legacy > 5.0
    # (ii) ... but still negligible versus the 10-minute propagation interval.
    assert by_size[64].irec_total_ms < 10_000.0
    # (iii) execution time grows with |Φ| and eventually dominates setup.
    assert by_size[512].execution_ms > by_size[16].execution_ms
    assert by_size[512].execution_ms > by_size[512].setup_ms
    # (iv) the gap narrows as |Φ| grows.
    assert by_size[512].slowdown_vs_legacy < by_size[16].slowdown_vs_legacy

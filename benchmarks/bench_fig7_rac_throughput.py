"""Figure 7 — PCB processing throughput for a growing number of RACs.

The paper measures the aggregate PCB/s throughput of 1 to 32 RACs for
candidate sets Φ of 16 to 4096 PCBs and observes (i) near-linear scaling
with the number of RACs (they are independent processes) and (ii)
sub-linear growth with |Φ| — larger batches amortize the per-execution
setup and IPC overhead, so the per-beacon cost drops.

This module regenerates the (RAC count, |Φ|) grid ``REPEATS`` times, then
prints and checks the per-point medians, not one shot each: the RAC counts
of one |Φ| are measured back to back, so a slow moment of the host hits
all of them.
"""

from __future__ import annotations

from statistics import median

import pytest

from repro.analysis.microbench import measure_throughput, throughput_series
from repro.analysis.reporting import format_table

RAC_COUNTS = (1, 2, 4, 8, 16)
CANDIDATE_SET_SIZES = (16, 64, 256)

#: Grids whose per-(|Φ|, RAC count) medians the report prints and checks.
REPEATS = 5


@pytest.mark.parametrize("rac_count", (1, 4, 16))
def test_throughput_measurement(benchmark, rac_count):
    """Benchmark aggregate throughput measurement for ``rac_count`` RACs."""
    point = benchmark(measure_throughput, rac_count, 64)
    assert point.pcbs_per_second > 0.0


def test_figure7_series_report(capsys):
    """Regenerate and print the full Figure-7 grid."""
    runs = [
        throughput_series(RAC_COUNTS, CANDIDATE_SET_SIZES, seed=7 + i) for i in range(REPEATS)
    ]
    medians = {
        (points[0].candidate_set_size, points[0].rac_count): median(
            point.pcbs_per_second for point in points
        )
        for points in zip(*runs)
    }
    rows = [[size, count, pcbs_per_second] for (size, count), pcbs_per_second in medians.items()]
    table = format_table(["|Phi|", "RACs", "PCB/s"], rows)
    with capsys.disabled():
        print("\nFigure 7 — PCB processing throughput vs. number of RACs")
        print(table)

    # (i) Throughput scales close to linearly with the RAC count.
    for size in CANDIDATE_SET_SIZES:
        assert medians[(size, 16)] > 8.0 * medians[(size, 1)]
    # (ii) Larger candidate sets achieve higher per-RAC throughput
    #      (per-beacon overhead decreases), at least from 16 to 256.
    assert medians[(256, 1)] > medians[(16, 1)]

"""Plain-text rendering of tables and CDF series.

The benchmark harness prints the same rows and series the paper's figures
show; these helpers format them as aligned text tables so that benchmark
output is readable in a terminal and diffable in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.cdf import EmpiricalCDF

#: Character width of :func:`format_timeseries`'s full-scale bar.
BAR_WIDTH = 40

#: The quantiles :func:`format_cdf_table` shows.
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned text table.

    Args:
        headers: Column headers.
        rows: Row cell values; floats are rendered with four significant
            digits, everything else with ``str``.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    rendered_rows = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [format_row(list(headers)), format_row(["-" * w for w in widths])]
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)


def format_timeseries(
    series: Sequence[Tuple[float, float]],
    value_label: str = "value",
    time_divisor: float = 1.0,
    time_label: str = "t",
) -> str:
    """Render a (time, value) series as an aligned table with bar gauges.

    The traffic engine's goodput dip-and-recovery curves are printed with
    this: one row per sample, a ``#``-bar scaled to the series maximum, so
    a dip and its recovery are visible in plain terminal output.

    Args:
        series: ``(time, value)`` samples in time order.
        value_label: Header of the value column.
        time_divisor: Divide times by this for display (e.g. 60 000.0 to
            show minutes when times are in milliseconds).
        time_label: Header of the time column.

    The full-scale bar is :data:`BAR_WIDTH` characters wide.
    """
    if not series:
        return "(empty series)"
    peak = max(value for _time, value in series)
    rows = []
    for time, value in series:
        bar = "#" * int(round(BAR_WIDTH * value / peak)) if peak > 0 else ""
        rows.append([time / time_divisor, value, bar])
    return format_table([time_label, value_label, ""], rows)


def format_cdf_table(cdfs: Dict[str, EmpiricalCDF]) -> str:
    """Render the :data:`QUANTILES` of several CDFs side by side."""
    quantiles = QUANTILES
    headers = ["series", "samples"] + [f"p{int(q * 100)}" for q in quantiles]
    rows: List[List[object]] = []
    for label in sorted(cdfs):
        cdf = cdfs[label]
        if cdf.sample_count == 0:
            rows.append([label, 0] + ["-"] * len(quantiles))
            continue
        rows.append([label, cdf.sample_count] + [cdf.quantile(q) for q in quantiles])
    return format_table(headers, rows)

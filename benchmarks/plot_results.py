#!/usr/bin/env python3
"""Fig8-style comparison plots from an experiment-sweep JSONL log.

Reads the log written by ``run_experiments.py`` and renders one grouped
bar chart per metric: scenarios on the x-axis, one bar per policy —
the layout of the paper's Figure 8 comparisons (policy families side by
side across conditions).

Rendering backends:

* **matplotlib** when importable (PNG by default).
* A dependency-free **SVG fallback** otherwise — hand-rolled grouped
  bars, enough for CI artifacts and quick eyeballing.  The container
  this repo targets does not ship matplotlib, so the fallback is the
  path that normally runs; pass ``--format svg`` to force it.

Usage::

    PYTHONPATH=src python benchmarks/plot_results.py \\
        --results results/adversarial-small.jsonl --out-dir results/plots
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ is None or __package__ == "":
    _here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))
    sys.path.insert(0, _here)

from result_logger import load_results

#: Metrics plotted by default — the sweep's headline comparisons.
DEFAULT_METRICS = (
    "revocation_messages",
    "revocations_rejected_invalid",
    "gray_dropped",
    "traffic_mean_carried_mbps",
    "traffic_backoffs",
    "convergence_mean_recovery_ms",
)

_PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")


def group_metric(
    records: Sequence[Dict], metric: str
) -> Tuple[List[str], List[str], Dict[Tuple[str, str], float]]:
    """Aggregate one metric by (scenario, policy), averaging over scales/seeds."""
    sums: Dict[Tuple[str, str], float] = {}
    counts: Dict[Tuple[str, str], int] = {}
    scenarios: List[str] = []
    policies: List[str] = []
    for record in records:
        value = record["metrics"].get(metric)
        if not isinstance(value, (int, float)):
            continue
        key = (record["scenario"], record["policy"])
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
        if record["scenario"] not in scenarios:
            scenarios.append(record["scenario"])
        if record["policy"] not in policies:
            policies.append(record["policy"])
    values = {key: sums[key] / counts[key] for key in sums}
    return scenarios, policies, values


# ----------------------------------------------------------------------
# SVG fallback backend
# ----------------------------------------------------------------------

def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


def render_svg(
    metric: str,
    scenarios: Sequence[str],
    policies: Sequence[str],
    values: Dict[Tuple[str, str], float],
    path: str,
) -> None:
    """Write one grouped bar chart as a standalone SVG file."""
    width, height = 760, 420
    margin_left, margin_right, margin_top, margin_bottom = 70, 20, 50, 60
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    peak = max(values.values(), default=0.0)
    scale = plot_h / peak if peak > 0 else 0.0

    group_w = plot_w / max(1, len(scenarios))
    bar_w = group_w * 0.8 / max(1, len(policies))

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle"'
        f' font-family="sans-serif" font-size="16">{metric}</text>',
        # axes
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}"'
        f' y2="{margin_top + plot_h}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}"'
        f' x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="black"/>',
        f'<text x="14" y="{margin_top - 8}" font-family="sans-serif"'
        f' font-size="11">{_format_value(peak)}</text>',
    ]
    for s_index, scenario in enumerate(scenarios):
        group_x = margin_left + s_index * group_w + group_w * 0.1
        for p_index, policy in enumerate(policies):
            value = values.get((scenario, policy), 0.0)
            bar_h = value * scale
            x = group_x + p_index * bar_w
            y = margin_top + plot_h - bar_h
            color = _PALETTE[p_index % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}"'
                f' height="{bar_h:.1f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w * 0.45:.1f}" y="{y - 4:.1f}" text-anchor="middle"'
                f' font-family="sans-serif" font-size="9">{_format_value(value)}</text>'
            )
        parts.append(
            f'<text x="{group_x + group_w * 0.4:.1f}" y="{margin_top + plot_h + 18}"'
            f' text-anchor="middle" font-family="sans-serif"'
            f' font-size="12">{scenario}</text>'
        )
    legend_x = margin_left
    legend_y = height - 22
    for p_index, policy in enumerate(policies):
        color = _PALETTE[p_index % len(_PALETTE)]
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y - 10}" width="12" height="12"'
            f' fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 16}" y="{legend_y}" font-family="sans-serif"'
            f' font-size="12">{policy}</text>'
        )
        legend_x += 16 + 8 * len(policy) + 24
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")


# ----------------------------------------------------------------------
# matplotlib backend
# ----------------------------------------------------------------------

def render_matplotlib(
    metric: str,
    scenarios: Sequence[str],
    policies: Sequence[str],
    values: Dict[Tuple[str, str], float],
    path: str,
) -> None:
    """Write one grouped bar chart with matplotlib (headless backend)."""
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    figure, axes = plt.subplots(figsize=(7.6, 4.2))
    group_positions = range(len(scenarios))
    bar_w = 0.8 / max(1, len(policies))
    for p_index, policy in enumerate(policies):
        heights = [values.get((scenario, policy), 0.0) for scenario in scenarios]
        positions = [g + p_index * bar_w for g in group_positions]
        axes.bar(
            positions,
            heights,
            width=bar_w * 0.9,
            label=policy,
            color=_PALETTE[p_index % len(_PALETTE)],
        )
    axes.set_xticks([g + 0.4 - bar_w / 2 for g in group_positions])
    axes.set_xticklabels(scenarios)
    axes.set_title(metric)
    axes.legend()
    figure.tight_layout()
    figure.savefig(path)
    plt.close(figure)


def _pick_backend(fmt: Optional[str]):
    """Return (render function, extension) for the requested format."""
    if fmt != "svg":
        try:
            import matplotlib  # noqa: F401

            return render_matplotlib, fmt or "png"
        except ImportError:
            if fmt is not None:
                raise SystemExit(
                    f"format {fmt!r} needs matplotlib, which is not installed;"
                    " use --format svg"
                )
    return render_svg, "svg"


def plot_all(
    results_path: str,
    out_dir: str,
    metrics: Sequence[str] = DEFAULT_METRICS,
    fmt: Optional[str] = None,
) -> List[str]:
    """Render one plot per metric; return the written file paths."""
    records = load_results(results_path)
    if not records:
        raise SystemExit(f"{results_path}: no records to plot")
    render, extension = _pick_backend(fmt)
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    for metric in metrics:
        scenarios, policies, values = group_metric(records, metric)
        if not values:
            print(f"skipping {metric}: not present in any record")
            continue
        path = os.path.join(out_dir, f"{metric}.{extension}")
        render(metric, scenarios, policies, values, path)
        written.append(path)
    return written


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", required=True, help="JSONL result log to plot")
    parser.add_argument("--out-dir", default="results/plots", help="plot output directory")
    parser.add_argument(
        "--metrics",
        default=None,
        help=f"comma-separated metric names (default: {','.join(DEFAULT_METRICS)})",
    )
    parser.add_argument(
        "--format",
        default=None,
        choices=("png", "pdf", "svg"),
        help="output format (default: png via matplotlib, else svg fallback)",
    )
    args = parser.parse_args(argv)
    metrics = args.metrics.split(",") if args.metrics else DEFAULT_METRICS
    written = plot_all(args.results, args.out_dir, metrics, args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Evaluation and analysis tools.

This package turns simulation and benchmark output into the quantities the
paper reports:

* :mod:`repro.analysis.cdf` — empirical CDFs and summary statistics,
* :mod:`repro.analysis.delay_eval` — per-PoP-pair minimum propagation delay
  relative to 1SP (Figure 8a),
* :mod:`repro.analysis.disjointness_eval` — tolerable link failures of the
  registered path sets (Figure 8b),
* :mod:`repro.analysis.overhead_eval` — PCBs per interface per period
  (Figure 8c),
* :mod:`repro.analysis.workloads` — synthetic candidate-beacon workloads for
  the micro-benchmarks,
* :mod:`repro.analysis.microbench` — the RAC-versus-legacy latency and
  throughput measurements (Figures 6 and 7), and
* :mod:`repro.analysis.reporting` — plain-text rendering of tables and CDF
  series.
"""

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.delay_eval import DelayEvaluation, evaluate_delay
from repro.analysis.disjointness_eval import (
    DisjointnessEvaluation,
    evaluate_disjointness,
    tolerable_link_failures,
)
from repro.analysis.microbench import (
    LatencyBreakdown,
    ThroughputPoint,
    measure_legacy_latency,
    measure_rac_latency,
    measure_throughput,
)
from repro.analysis.overhead_eval import OverheadEvaluation, evaluate_overhead
from repro.analysis.reporting import format_cdf_table, format_table
from repro.analysis.workloads import synthetic_candidate_set

__all__ = [
    "DelayEvaluation",
    "DisjointnessEvaluation",
    "EmpiricalCDF",
    "LatencyBreakdown",
    "OverheadEvaluation",
    "ThroughputPoint",
    "evaluate_delay",
    "evaluate_disjointness",
    "evaluate_overhead",
    "format_cdf_table",
    "format_table",
    "measure_legacy_latency",
    "measure_rac_latency",
    "measure_throughput",
    "synthetic_candidate_set",
    "tolerable_link_failures",
]

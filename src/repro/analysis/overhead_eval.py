"""Beaconing-overhead evaluation (Figure 8c).

The number of PCBs an algorithm sends per interface and beaconing period is
the paper's measure of message complexity.  The simulation's
:class:`~repro.simulation.collector.MetricsCollector` records every
transmission; this module turns those records into the per-configuration
CDFs of Figure 8c and into summary statistics used by the ablation
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.cdf import EmpiricalCDF
from repro.simulation.beaconing import SimulationResult
from repro.simulation.collector import MetricsCollector


@dataclass
class OverheadEvaluation:
    """Per-configuration PCB-overhead distributions.

    Attributes:
        samples: Configuration label -> per-(interface, period) PCB counts.
    """

    samples: Dict[str, List[int]] = field(default_factory=dict, init=False)

    def add(self, label: str, collector: MetricsCollector) -> None:
        """Record the overhead distribution of one simulation run."""
        self.samples[label] = collector.pcbs_per_interface_per_period()

    def add_result(self, label: str, result: SimulationResult) -> None:
        """Convenience wrapper of :meth:`add` for a finished simulation."""
        self.add(label, result.collector)

    def cdf(self, label: str) -> EmpiricalCDF:
        """Return the CDF of PCBs per interface per period for ``label``."""
        return EmpiricalCDF.from_samples(self.samples.get(label, []))

    def total(self, label: str) -> int:
        """Return the total number of PCBs sent in configuration ``label``."""
        return sum(self.samples.get(label, []))

    def mean_per_interface_period(self, label: str) -> float:
        """Return the mean PCB count per (interface, period) for ``label``."""
        values = self.samples.get(label, [])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def labels(self) -> Tuple[str, ...]:
        """Return the recorded configuration labels."""
        return tuple(sorted(self.samples))


def evaluate_overhead(
    results: Sequence[Tuple[str, SimulationResult]]
) -> OverheadEvaluation:
    """Build an :class:`OverheadEvaluation` from labelled simulation results."""
    evaluation = OverheadEvaluation()
    for label, result in results:
        evaluation.add_result(label, result)
    return evaluation

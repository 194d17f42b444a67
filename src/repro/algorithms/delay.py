"""Delay optimization (DO), with and without extended-path awareness.

The DO algorithm optimizes "the propagation delay of paths calculated by
accumulating the estimated great-circle delays of all on-path AS hops"
(paper §VIII-B).  Two variants are evaluated:

* **DON** — plain delay optimization on *received* paths: the intra-AS
  latency between the interface the beacon arrived on and the egress
  interface it would leave on is ignored, and
* **DOB** — delay optimization on *extended* paths (paper §IV-E): the
  intra-AS latency to each candidate egress interface is added before
  comparison, so the algorithm may prefer a slightly longer inter-domain
  path that enters the AS closer to the egress interface (Figure 4).

DOB is evaluated jointly with interface groups (DOB300 / DOB2000); the
grouping itself happens in the RAC bucketing and beacon origination, not in
this algorithm, so a single class covers all DO variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.exceptions import AlgorithmError


def _latency(candidate: CandidateBeacon) -> Tuple[float]:
    return (candidate.beacon.total_latency_ms(),)


@dataclass
class DelayOptimizationAlgorithm(RoutingAlgorithm):
    """Select the lowest-latency beacons per egress interface.

    Attributes:
        paths_per_interface: Number of beacons selected per egress
            interface (capped by the RAC's limit).
        use_extended_paths: Whether to add the intra-AS latency between the
            beacon's ingress interface and the candidate egress interface
            before comparing (the DOB behaviour of §IV-E).
    """

    paths_per_interface: int = 1
    use_extended_paths: bool = False

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )
        self.name = "dob" if self.use_extended_paths else "don"

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the lowest-delay beacons for every egress interface.

        DON's key ignores the egress interface, so it ranks once; DOB adds
        the intra-AS term to the same per-candidate base.
        """
        term = None
        if self.use_extended_paths:
            intra_latency_ms = context.intra_latency_ms

            def term(candidate: CandidateBeacon, key: Tuple, egress_interface: int) -> Tuple:
                if candidate.ingress_interface is None:
                    return key
                return (key[0] + intra_latency_ms(candidate.ingress_interface, egress_interface),)

        return select_per_interface(context, self.paths_per_interface, _latency, term)

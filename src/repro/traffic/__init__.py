"""Flow-level traffic simulation over discovered paths.

The packages below this one answer "which paths does the control plane
find?"; this package answers the north-star question "what happens when
millions of end-host flows actually use them?":

* :mod:`repro.traffic.demand` — traffic-matrix generators (gravity,
  hotspot, uniform, seeded random) with flow aggregation, so matrices can
  represent millions of flows through a few thousand flow groups,
* :mod:`repro.traffic.links` — the capacity-aware link model: finite
  per-link bandwidth and weighted max-min fair allocation per round,
* :mod:`repro.traffic.selection` — end-host path-selection policies, the
  one place an end host chooses paths (latency-greedy, criteria-ranked,
  ECMP splitting, disjoint multipath),
* :mod:`repro.traffic.engine` — the :class:`TrafficEngine` that advances
  flows in rounds on the discrete-event scheduler and couples to the
  dynamic-scenario engine (failures break flows, rounds re-select), with
  optional closed-loop back-off under observed loss, and
* :mod:`repro.traffic.collector` — goodput curves, loss accounting and
  time-to-reroute records, digest-pinnable like the golden trace.
"""

from repro.traffic.collector import RerouteRecord, RoundSample, TrafficCollector
from repro.traffic.demand import (
    FlowGroup,
    TrafficMatrix,
    gravity_matrix,
    hotspot_matrix,
)
from repro.traffic.engine import TrafficEngine
from repro.traffic.links import AllocationResult, CapacityLinkModel, PathLoad
from repro.traffic.selection import (
    CriteriaPolicy,
    DisjointPolicy,
    EcmpPolicy,
    LatencyGreedyPolicy,
    PathPolicy,
    prefer_clean,
)

__all__ = [
    "AllocationResult",
    "CapacityLinkModel",
    "CriteriaPolicy",
    "DisjointPolicy",
    "EcmpPolicy",
    "FlowGroup",
    "LatencyGreedyPolicy",
    "PathLoad",
    "PathPolicy",
    "RerouteRecord",
    "RoundSample",
    "TrafficCollector",
    "TrafficEngine",
    "TrafficMatrix",
    "gravity_matrix",
    "hotspot_matrix",
    "prefer_clean",
]

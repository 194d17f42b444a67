"""Routing algorithms executed inside RACs.

Every algorithm implements the standardized RAC ↔ algorithm interface of
:mod:`repro.algorithms.base` (paper §V-C, §VI): it receives a bucket of
candidate beacons (all for the same origin AS, interface group and target),
a handle onto local intra-AS topology information, the list of egress
interfaces to optimize for and a per-interface path limit, and returns the
set of optimal beacons per egress interface.

The package ships the algorithms the paper deploys and evaluates:

* shortest-path family (1SP, 5SP, and the 20-path legacy SCION selection),
* delay optimization (DO) with optional extended-path awareness,
* heuristic disjointness (HD),
* the pull-based disjointness helper algorithm (PD) that avoids a given
  link set, and
* :class:`CriteriaSetAlgorithm`, which runs any declarative criteria set:
  the motivation examples' widest, shortest-widest and latency-bounded
  widest selections and the Pareto dominant-path baseline of the related
  work are criteria sets (:mod:`repro.core.criteria`), not classes.
"""

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.disjointness import HeuristicDisjointnessAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.registry import AlgorithmCatalog, default_catalog
from repro.algorithms.shortest_path import (
    LEGACY_PATH_COUNT,
    KShortestPathAlgorithm,
    legacy_scion_algorithm,
)

__all__ = [
    "AlgorithmCatalog",
    "CandidateBeacon",
    "CriteriaSetAlgorithm",
    "DelayOptimizationAlgorithm",
    "ExecutionContext",
    "ExecutionResult",
    "HeuristicDisjointnessAlgorithm",
    "KShortestPathAlgorithm",
    "LEGACY_PATH_COUNT",
    "LinkAvoidingAlgorithm",
    "RoutingAlgorithm",
    "default_catalog",
    "legacy_scion_algorithm",
]

"""Disjointness evaluation: tolerable link failures (Figure 8b).

The paper measures disjointness as **tolerable link failures (TLF)**: for a
pair of ASes, the minimum number of inter-domain links that must be removed
from the discovered paths before all of them are disconnected.  With unit
capacities on the links used by the path set, that minimum cut equals the
maximum flow between the two ASes in the sub-graph induced by those links,
which is how :func:`tolerable_link_failures` computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.cdf import EmpiricalCDF
from repro.core.beacon import Beacon
from repro.simulation.beaconing import SimulationResult
from repro.topology.entities import LinkID


def tolerable_link_failures(
    paths: Sequence[Sequence[LinkID]], source_as: int, destination_as: int
) -> int:
    """Return the TLF of a path set between two ASes.

    Args:
        paths: Each path given as its sequence of inter-domain link ids.
        source_as: One endpoint AS.
        destination_as: The other endpoint AS.

    Returns:
        The minimum number of links whose removal disconnects every path —
        equivalently the max-flow with unit link capacities over the
        sub-graph formed by the paths' links.  Zero if the set is empty or
        does not connect the two ASes.
    """
    if not paths:
        return 0
    graph = nx.MultiGraph()
    graph.add_node(source_as)
    graph.add_node(destination_as)
    for path in paths:
        for link in path:
            (as_a, _if_a), (as_b, _if_b) = link
            graph.add_edge(as_a, as_b, key=link)
    if not nx.has_path(graph, source_as, destination_as):
        return 0

    # Unit capacity per distinct inter-domain link: collapse the multigraph
    # into a simple graph whose edge capacities count parallel links.
    flow_graph = nx.Graph()
    for as_a, as_b, link in graph.edges(keys=True):
        if flow_graph.has_edge(as_a, as_b):
            flow_graph[as_a][as_b]["capacity"] += 1
        else:
            flow_graph.add_edge(as_a, as_b, capacity=1)
    value, _cut = nx.minimum_cut(flow_graph, source_as, destination_as)
    return int(value)


def beacon_paths_links(beacons: Iterable[Beacon]) -> List[Tuple[LinkID, ...]]:
    """Return the link sequences of an iterable of beacons/segments."""
    return [beacon.links() for beacon in beacons]


@dataclass
class DisjointnessEvaluation:
    """Per-algorithm TLF values over a set of AS pairs."""

    #: AS pairs in evaluation order.
    pair_keys: List[Tuple[int, int]] = field(default_factory=list, init=False)
    #: tag -> list of TLF values aligned with pair_keys.
    tlf: Dict[str, List[int]] = field(default_factory=dict)

    def cdf(self, tag: str) -> EmpiricalCDF:
        """Return the CDF of TLF values for ``tag``."""
        return EmpiricalCDF.from_samples(self.tlf.get(tag, []))


def evaluate_disjointness(
    result: SimulationResult,
    tags: Sequence[str],
    as_pairs: Optional[Sequence[Tuple[int, int]]] = None,
    extra_paths: Optional[Dict[Tuple[int, int], Dict[str, Sequence[Beacon]]]] = None,
) -> DisjointnessEvaluation:
    """Evaluate the TLF of the registered path sets of several algorithms.

    Args:
        result: Finished beaconing simulation.
        tags: Criteria tags to evaluate (e.g. ``("1sp", "5sp", "hd")``).
        as_pairs: (source, destination) AS pairs; defaults to every ordered
            pair of distinct ASes.
        extra_paths: Additional per-pair, per-tag path sets to merge in —
            used for the PD algorithm, whose paths are collected by the
            pull orchestrator rather than registered by a static RAC.

    Returns:
        A :class:`DisjointnessEvaluation` with one TLF list per tag.
    """
    topology = result.topology
    if as_pairs is None:
        as_ids = topology.as_ids()
        as_pairs = [(a, b) for a in as_ids for b in as_ids if a != b]

    evaluation = DisjointnessEvaluation()
    evaluation.tlf = {tag: [] for tag in tags}
    extra_paths = extra_paths or {}

    for source_as, destination_as in as_pairs:
        evaluation.pair_keys.append((source_as, destination_as))
        service = result.services.get(source_as)
        registered = (
            service.path_service.paths_to(destination_as) if service is not None else []
        )
        for tag in tags:
            beacons = [
                path.segment for path in registered if tag in path.criteria_tags
            ]
            extra = extra_paths.get((source_as, destination_as), {}).get(tag, ())
            beacons = list(beacons) + list(extra)
            links = beacon_paths_links(beacons)
            evaluation.tlf[tag].append(
                tolerable_link_failures(links, source_as, destination_as)
            )
    return evaluation

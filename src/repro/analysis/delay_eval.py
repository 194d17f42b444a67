"""Propagation-delay evaluation (Figure 8a).

The paper defines a point of presence (PoP) of an AS as a geolocation with
at least one inter-domain link and evaluates, per algorithm, the minimum
propagation delay between every pair of PoPs in two different ASes.  When
an algorithm discovers no inter-domain path terminating at the desired
PoPs, the intra-domain great-circle delay between the path's end PoPs and
the desired PoPs is added (paper §VIII-C).  Figure 8a then plots the CDF of
these minimum delays *relative to 1SP*.

This module computes those quantities from a finished simulation: it scans
each source AS's path service for paths registered under a given criteria
tag and evaluates the per-PoP-pair minimum delay for every algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cdf import EmpiricalCDF, relative_to_baseline
from repro.core.databases import RegisteredPath
from repro.simulation.beaconing import SimulationResult
from repro.topology.geo import propagation_delay_ms
from repro.topology.pops import PointOfPresence, derive_pops


#: How many PoP pairs :func:`evaluate_delay` evaluates per AS pair at most.
MAX_POP_PAIRS_PER_AS_PAIR = 4


@dataclass
class DelayEvaluation:
    """Per-algorithm minimum PoP-pair delays and their ratios to a baseline."""

    baseline_tag: str
    #: PoP-pair keys in a fixed order: ((src_as, src_pop), (dst_as, dst_pop)).
    pair_keys: List[Tuple[Tuple[int, int], Tuple[int, int]]] = field(
        default_factory=list, init=False
    )
    #: tag -> list of minimum delays (aligned with pair_keys, None = no path).
    delays_ms: Dict[str, List[Optional[float]]] = field(default_factory=dict)

    def cdf_relative_to_baseline(self, tag: str) -> EmpiricalCDF:
        """Return the CDF of ``tag``'s delays divided by the baseline's."""
        ratios = relative_to_baseline(
            self.delays_ms.get(tag, []), self.delays_ms.get(self.baseline_tag, [])
        )
        return EmpiricalCDF.from_samples(ratios)

    def median_ratio(self, tag: str) -> Optional[float]:
        """Return the median delay ratio of ``tag`` versus the baseline."""
        cdf = self.cdf_relative_to_baseline(tag)
        if cdf.sample_count == 0:
            return None
        return cdf.median

    def coverage(self, tag: str) -> float:
        """Return the fraction of PoP pairs for which ``tag`` found a path."""
        delays = self.delays_ms.get(tag, [])
        if not delays:
            return 0.0
        return sum(1 for d in delays if d is not None) / len(delays)

    def tags(self) -> Tuple[str, ...]:
        """Return the evaluated criteria tags."""
        return tuple(sorted(self.delays_ms))


def _path_end_delay_to_pops(
    path: RegisteredPath,
    source_pop: PointOfPresence,
    destination_pop: PointOfPresence,
) -> float:
    """Return the path delay adjusted to the desired source/destination PoPs.

    The registered segment runs from the *destination* AS (beacon origin) to
    the *source* AS (the registering AS).  Its first entry's egress
    interface sits at some PoP of the destination AS, its last entry's
    ingress interface at some PoP of the source AS.  If those differ from
    the desired PoPs, the intra-domain great-circle delay between them is
    added, as in the paper.
    """
    segment = path.segment
    delay = segment.total_latency_ms()

    origin_location = segment.entries[0].static_info.egress_location
    if origin_location is not None:
        delay += propagation_delay_ms(origin_location, destination_pop.location)

    terminal_location = segment.entry.static_info.ingress_location
    if terminal_location is not None:
        delay += propagation_delay_ms(terminal_location, source_pop.location)
    return delay


def evaluate_delay(
    result: SimulationResult,
    tags: Sequence[str],
    baseline_tag: str = "1sp",
    as_pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> DelayEvaluation:
    """Evaluate per-PoP-pair minimum delays for several criteria tags.

    Args:
        result: Finished beaconing simulation.
        tags: Criteria tags (RAC identifiers) to evaluate, e.g. ``("1sp",
            "5sp", "don", "dob300")``.
        baseline_tag: Tag used as the denominator of the relative CDF.
        as_pairs: Source/destination AS pairs to evaluate; defaults to every
            ordered pair of distinct ASes.  At most
            :data:`MAX_POP_PAIRS_PER_AS_PAIR` PoP pairs are evaluated per
            AS pair, to keep large evaluations tractable.

    Returns:
        A :class:`DelayEvaluation` with one delay list per tag.
    """
    topology = result.topology
    pops_by_as = derive_pops(topology)
    all_tags = list(dict.fromkeys(list(tags) + [baseline_tag]))

    if as_pairs is None:
        as_ids = topology.as_ids()
        as_pairs = [(a, b) for a in as_ids for b in as_ids if a != b]

    evaluation = DelayEvaluation(baseline_tag=baseline_tag)
    evaluation.delays_ms = {tag: [] for tag in all_tags}

    for source_as, destination_as in as_pairs:
        service = result.services.get(source_as)
        if service is None:
            continue
        paths = service.path_service.paths_to(destination_as)
        paths_by_tag: Dict[str, List[RegisteredPath]] = {tag: [] for tag in all_tags}
        for path in paths:
            for tag in all_tags:
                if tag in path.criteria_tags:
                    paths_by_tag[tag].append(path)

        pop_pairs = [
            (src_pop, dst_pop)
            for src_pop in pops_by_as.get(source_as, ())
            for dst_pop in pops_by_as.get(destination_as, ())
        ][:MAX_POP_PAIRS_PER_AS_PAIR]

        for src_pop, dst_pop in pop_pairs:
            evaluation.pair_keys.append((src_pop.key, dst_pop.key))
            for tag in all_tags:
                best: Optional[float] = None
                for path in paths_by_tag[tag]:
                    delay = _path_end_delay_to_pops(path, src_pop, dst_pop)
                    if best is None or delay < best:
                        best = delay
                evaluation.delays_ms[tag].append(best)
    return evaluation

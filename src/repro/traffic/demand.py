"""Traffic-matrix generators — who sends how much to whom.

A flow-level traffic simulation needs a demand model before it needs a
queueing model.  This module provides the classic inter-domain workload
shapes as deterministic, seeded generators:

* **gravity** — demand between two ASes is proportional to the product of
  their "masses" (interface degree here, the standard proxy when real
  ingress/egress volumes are unavailable),
* **hotspot** — a gravity base load plus a configurable fraction of the
  total demand focused on one destination AS (flash crowd / CDN origin).

Scalability comes from *flow aggregation*: a :class:`FlowGroup` represents
``flow_count`` identical end-host flows between one AS pair as a single
simulated object, so a matrix can describe millions of flows while the
engine iterates over a few thousand groups.  The per-flow rate of a group
is ``demand_mbps / flow_count``; max-min fairness in the link model is
weighted by ``flow_count``, which makes the aggregate behave exactly like
its member flows would individually.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.topology.graph import Topology


@dataclass(frozen=True)
class FlowGroup:
    """An aggregate of identical end-host flows between one AS pair.

    Attributes:
        group_id: Stable identifier (position in the matrix).
        source_as: AS the flows originate in.
        destination_as: AS the flows terminate in.
        demand_mbps: Total offered rate of the whole aggregate.
        flow_count: Number of end-host flows the aggregate represents;
            the max-min allocation weights the group by this count.
    """

    group_id: int
    source_as: int
    destination_as: int
    demand_mbps: float
    flow_count: int = 1

    def __post_init__(self) -> None:
        if self.source_as == self.destination_as:
            raise ConfigurationError(
                f"flow group {self.group_id} has identical endpoints ({self.source_as})"
            )
        if self.demand_mbps <= 0.0:
            raise ConfigurationError(
                f"flow group {self.group_id} demand must be positive, got {self.demand_mbps}"
            )
        if self.flow_count < 1:
            raise ConfigurationError(
                f"flow group {self.group_id} must represent at least one flow"
            )


@dataclass(frozen=True)
class TrafficMatrix:
    """An immutable collection of flow groups (the demand of one run)."""

    groups: Tuple[FlowGroup, ...]

    @property
    def total_flows(self) -> int:
        """Return the number of end-host flows the matrix represents."""
        return sum(group.flow_count for group in self.groups)

    @property
    def total_demand_mbps(self) -> float:
        """Return the aggregate offered rate."""
        return sum(group.demand_mbps for group in self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)


def _build_matrix(
    entries: Sequence[Tuple[int, int, float]],
    total_flows: int,
) -> TrafficMatrix:
    """Turn (source, destination, demand) rows into an aggregated matrix.

    Flows are distributed over the entries proportionally to demand (at
    least one flow per entry), so the per-flow rate stays roughly uniform
    across the matrix.
    """
    if not entries:
        return TrafficMatrix(groups=())
    if total_flows < len(entries):
        raise ConfigurationError(
            f"need at least one flow per pair: {total_flows} flows for {len(entries)} pairs"
        )
    total_demand = sum(demand for _src, _dst, demand in entries)
    if total_demand <= 0.0:
        raise ConfigurationError("a traffic matrix needs positive total demand")
    groups: List[FlowGroup] = []
    assigned = 0
    for index, (source_as, destination_as, demand) in enumerate(entries):
        if index == len(entries) - 1:
            count = total_flows - assigned
        else:
            count = max(1, round(total_flows * demand / total_demand))
            count = min(count, total_flows - assigned - (len(entries) - 1 - index))
        assigned += count
        groups.append(
            FlowGroup(
                group_id=index,
                source_as=source_as,
                destination_as=destination_as,
                demand_mbps=demand,
                flow_count=count,
            )
        )
    return TrafficMatrix(groups=tuple(groups))


def _ordered_pairs(
    as_ids: Sequence[int], max_pairs: Optional[int], rng: Optional[random.Random]
) -> List[Tuple[int, int]]:
    """Return ordered AS pairs, optionally sampled down to ``max_pairs``."""
    pairs = [(a, b) for a in as_ids for b in as_ids if a != b]
    if max_pairs is not None and len(pairs) > max_pairs:
        sampler = rng or random.Random(0)
        pairs = sampler.sample(pairs, k=max_pairs)
        pairs.sort()
    return pairs


def gravity_matrix(
    topology: Topology,
    total_demand_mbps: float,
    total_flows: int,
    max_pairs: Optional[int] = None,
    seed: int = 0,
) -> TrafficMatrix:
    """Gravity model: demand ∝ degree(source) × degree(destination).

    The interface degree stands in for an AS's traffic volume, the usual
    proxy when no measured ingress/egress totals exist; the matrix is then
    normalised so the aggregate equals ``total_demand_mbps``.
    """
    pairs = _ordered_pairs(topology.as_ids(), max_pairs, random.Random(seed))
    if not pairs:
        return TrafficMatrix(groups=())
    mass = {as_id: float(max(1, topology.degree_of(as_id))) for as_id in topology.as_ids()}
    raw = [(a, b, mass[a] * mass[b]) for a, b in pairs]
    scale = total_demand_mbps / sum(weight for _a, _b, weight in raw)
    return _build_matrix([(a, b, weight * scale) for a, b, weight in raw], total_flows)


def hotspot_matrix(
    topology: Topology,
    total_demand_mbps: float,
    total_flows: int,
    hotspot_as: int,
    hotspot_fraction: float = 0.5,
    max_pairs: Optional[int] = None,
    seed: int = 0,
) -> TrafficMatrix:
    """Gravity base load plus a demand spike towards one destination AS.

    ``hotspot_fraction`` of the total demand is redirected to flows whose
    destination is ``hotspot_as`` (every other AS sends an equal extra
    share), modelling a flash crowd at a content origin.
    """
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ConfigurationError(
            f"hotspot fraction must be within [0, 1], got {hotspot_fraction}"
        )
    if hotspot_as not in topology:
        raise ConfigurationError(f"hotspot AS {hotspot_as} is not in the topology")
    demand_by_pair: Dict[Tuple[int, int], float] = {}
    if hotspot_fraction < 1.0:
        base = gravity_matrix(
            topology,
            total_demand_mbps * (1.0 - hotspot_fraction),
            # Flows are re-split below; one flow per group as a placeholder.
            total_flows=max(
                1, len(_ordered_pairs(topology.as_ids(), max_pairs, random.Random(seed)))
            ),
            max_pairs=max_pairs,
            seed=seed,
        )
        demand_by_pair = {
            (group.source_as, group.destination_as): group.demand_mbps for group in base
        }
    sources = [a for a in topology.as_ids() if a != hotspot_as]
    spike_per_source = total_demand_mbps * hotspot_fraction / max(1, len(sources))
    for source_as in sources:
        key = (source_as, hotspot_as)
        demand_by_pair[key] = demand_by_pair.get(key, 0.0) + spike_per_source
    entries = [(a, b, demand) for (a, b), demand in sorted(demand_by_pair.items())]
    return _build_matrix(entries, total_flows)


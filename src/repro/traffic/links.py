"""Capacity-aware link model with weighted max-min fair allocation.

The shared :class:`~repro.simulation.failures.LinkState` answers "is this
path usable?"; this module answers "how much traffic does each
flow actually get?".  Each inter-domain link has a finite capacity (the
topology's ``bandwidth_mbps``, optionally scaled), and every traffic round
the engine hands the model one :class:`PathLoad` per distinct forwarding
path: the links it crosses, the total demand routed onto it and the number
of end-host flows that demand aggregates.

Allocation is **weighted max-min fairness** via progressive filling: the
per-flow rate of every unfrozen path rises uniformly until either a path's
demand is satisfied (it freezes at its demand) or a link saturates (every
path crossing it freezes at the current rate).  A path batching ``n``
flows counts ``n`` times in each link's weight, so aggregated flows
receive exactly the allocation they would get individually — this is what
lets the engine simulate millions of flows through a few thousand
aggregates.

The implementation is the subsystem's hot loop and stays allocation-free
where it matters: per-link running sums live in plain dicts keyed by the
integer link index (no numpy dependency), weights are updated
incrementally as paths freeze, and each filling iteration freezes at least
one path or saturates at least one link, bounding the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID
from repro.topology.graph import Topology

#: Relative slack when deciding that a link is saturated or a demand met.
_EPSILON = 1e-9


#: The capacity of a link that states no bandwidth.
DEFAULT_CAPACITY_MBPS = 10_000.0


@dataclass(frozen=True)
class PathLoad:
    """Aggregate demand routed over one concrete forwarding path.

    Attributes:
        key: Opaque identifier the caller uses to find its allocation
            (the engine uses the path digest).
        link_indices: Indices (from :meth:`CapacityLinkModel.link_index`)
            of the links the path traverses.
        demand_mbps: Total offered rate on this path.
        weight: Number of end-host flows the demand aggregates (the
            max-min weight); fractional weights arise when a group ECMP-
            splits its flows over several paths.
    """

    key: str
    link_indices: Tuple[int, ...]
    demand_mbps: float
    weight: float = 1.0


@dataclass
class AllocationResult:
    """Outcome of one max-min allocation round.

    Attributes:
        carried_mbps: Per path-load key, the rate actually allocated.
        link_load_mbps: Per link index, the carried traffic on the link.
        offered_mbps: Total demand offered this round.
        total_carried_mbps: Total demand satisfied this round.
    """

    carried_mbps: Dict[str, float]
    link_load_mbps: Dict[int, float]
    offered_mbps: float
    total_carried_mbps: float


class CapacityLinkModel:
    """Finite-capacity view of a topology's inter-domain links.

    Args:
        topology: Source of the link set and their nominal bandwidths.
        capacity_scale: Multiplier applied to every link capacity (e.g.
            ``0.1`` to provision a tenth of nominal and force congestion).
    """

    def __init__(self, topology: Topology, capacity_scale: float = 1.0) -> None:
        if capacity_scale <= 0.0:
            raise ConfigurationError(f"capacity scale must be positive, got {capacity_scale}")
        self.topology = topology
        self.capacity_scale = capacity_scale
        self._index_of: Dict[LinkID, int] = {}
        self._link_ids: List[LinkID] = []
        self._capacity: List[float] = []
        for link_id in topology.link_ids():
            link = topology.links[link_id]
            self._index_of[link_id] = len(self._capacity)
            self._link_ids.append(link_id)
            bandwidth = link.bandwidth_mbps or DEFAULT_CAPACITY_MBPS
            self._capacity.append(bandwidth * capacity_scale)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def link_index(self, link_id: LinkID) -> int:
        """Return the dense index of ``link_id`` (for :class:`PathLoad`)."""
        try:
            return self._index_of[link_id]
        except KeyError:
            raise ConfigurationError(f"unknown link {link_id}") from None

    def indices_for(self, links: Sequence[LinkID]) -> Tuple[int, ...]:
        """Map a path's link identifiers to their dense indices."""
        return tuple(self._index_of[link] for link in links)

    def link_id_of(self, index: int) -> LinkID:
        """Return the link identifier at ``index`` (inverse of :meth:`link_index`)."""
        try:
            return self._link_ids[index]
        except IndexError:
            raise ConfigurationError(f"unknown link index {index}") from None

    def capacity_of(self, index: int) -> float:
        """Return the provisioned capacity of link ``index`` in Mbit/s."""
        return self._capacity[index]

    @property
    def num_links(self) -> int:
        """Return the number of modelled links."""
        return len(self._capacity)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, loads: Sequence[PathLoad]) -> AllocationResult:
        """Run one weighted max-min fair allocation over ``loads``.

        Returns per-key carried rates and per-link loads.  Paths with zero
        weight or demand are carried at zero; paths whose links all have
        spare capacity are carried at their full demand.
        """
        carried: Dict[str, float] = {}
        link_load: Dict[int, float] = {}
        offered = 0.0
        if not loads:
            return AllocationResult(carried, link_load, 0.0, 0.0)

        # Per-link residual capacity and active (unfrozen) weight, touching
        # only the links this round actually uses.
        remaining: Dict[int, float] = {}
        active_weight: Dict[int, float] = {}
        active: Dict[int, PathLoad] = {}
        for slot, load in enumerate(loads):
            offered += load.demand_mbps
            if load.weight <= 0 or load.demand_mbps <= 0.0:
                carried[load.key] = carried.get(load.key, 0.0)
                continue
            active[slot] = load
            for index in load.link_indices:
                if index not in remaining:
                    remaining[index] = self._capacity[index]
                    active_weight[index] = 0
                active_weight[index] += load.weight
        rate = 0.0  # current per-flow rate of every unfrozen path
        total_carried = 0.0

        while active:
            # How far can the per-flow rate rise before a link saturates?
            delta_link = None
            for index, weight in active_weight.items():
                if weight <= 0:
                    continue
                headroom = remaining[index] / weight
                if delta_link is None or headroom < delta_link:
                    delta_link = headroom
            # ... and before some path's demand is fully satisfied?
            delta_demand = min(
                load.demand_mbps / load.weight - rate for load in active.values()
            )
            delta = delta_demand if delta_link is None else min(delta_link, delta_demand)
            delta = max(0.0, delta)
            rate += delta

            if delta > 0.0:
                for index, weight in active_weight.items():
                    if weight > 0:
                        remaining[index] -= weight * delta

            frozen: List[int] = []
            for slot, load in active.items():
                per_flow_cap = load.demand_mbps / load.weight
                if per_flow_cap <= rate * (1.0 + _EPSILON) + _EPSILON:
                    allocation = load.demand_mbps  # demand met
                elif any(
                    remaining[index] <= self._capacity[index] * _EPSILON + _EPSILON
                    for index in load.link_indices
                ):
                    allocation = rate * load.weight  # a link on the path saturated
                else:
                    continue
                frozen.append(slot)
                carried[load.key] = carried.get(load.key, 0.0) + allocation
                total_carried += allocation
                for index in load.link_indices:
                    link_load[index] = link_load.get(index, 0.0) + allocation
                    active_weight[index] -= load.weight
            if not frozen:
                # Numerical guard: progressive filling always freezes
                # something when delta comes from a demand or a saturated
                # link; if rounding prevented that, freeze the tightest
                # path at the current rate to guarantee termination.
                slot, load = min(
                    active.items(), key=lambda item: item[1].demand_mbps / item[1].weight
                )
                frozen.append(slot)
                allocation = min(load.demand_mbps, rate * load.weight)
                carried[load.key] = carried.get(load.key, 0.0) + allocation
                total_carried += allocation
                for index in load.link_indices:
                    link_load[index] = link_load.get(index, 0.0) + allocation
                    active_weight[index] -= load.weight
            for slot in frozen:
                del active[slot]

        return AllocationResult(
            carried_mbps=carried,
            link_load_mbps=link_load,
            offered_mbps=offered,
            total_carried_mbps=total_carried,
        )


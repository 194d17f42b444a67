"""Synthetic CAIDA-geo-rel-like topology generator.

The paper's simulations run on the 500 highest-degree ASes of the CAIDA
geo-rel dataset, which provides business relationships and the geographic
location of every inter-domain link.  That dataset is not redistributable,
so this module generates synthetic topologies that preserve the structural
properties the evaluation depends on:

* a heavy-tailed degree distribution with a small, densely-meshed core of
  "tier-1" ASes, a middle tier of transit ASes, and many stub ASes,
* ASes with multiple geographically-spread points of presence, so that
  interface groups and PoP-pair delay evaluations are meaningful,
* parallel inter-domain links between large AS pairs at several locations,
* Gao-Rexford business relationships (core mesh, provider-customer edges,
  lateral peering), and
* per-link latency derived from great-circle distance and bandwidth drawn
  from a tier-dependent distribution.

The generator is deterministic given its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.geo import WORLD_CITIES, GeoCoordinate, propagation_delay_ms
from repro.topology.graph import Topology
from repro.units import gbps


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic topology generator.

    The defaults produce a small topology suitable for unit tests; the
    benchmark harness scales ``num_ases`` and the link multipliers up to
    approximate the paper's 500-AS / 100k-link setting.

    Attributes:
        num_ases: Total number of ASes.
        num_core: Number of tier-1 (core) ASes, fully meshed among each
            other with ``core_parallel_links`` parallel links per pair.
        num_transit: Number of mid-tier transit ASes.
        core_parallel_links: Parallel links per core AS pair.
        transit_provider_count: Providers each transit AS connects to.
        stub_provider_count: Providers each stub AS connects to.
        peering_probability: Probability that two transit ASes of similar
            size establish a lateral peering link.
        max_pops_core: Maximum number of PoP cities of a core AS.
        max_pops_transit: Maximum number of PoP cities of a transit AS.
        max_pops_stub: Maximum number of PoP cities of a stub AS.
        seed: Seed of the internal random generator.
    """

    num_ases: int = 50
    num_core: int = 5
    num_transit: int = 15
    core_parallel_links: int = 2
    transit_provider_count: int = 2
    stub_provider_count: int = 2
    peering_probability: float = 0.15
    max_pops_core: int = 8
    max_pops_transit: int = 4
    max_pops_stub: int = 2
    min_bandwidth_mbps: float = 400.0
    max_bandwidth_mbps: float = gbps(100.0)
    seed: int = 7

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the parameters are inconsistent."""
        if self.num_core < 1:
            raise ConfigurationError("at least one core AS is required")
        if self.num_core + self.num_transit > self.num_ases:
            raise ConfigurationError(
                "num_core + num_transit must not exceed num_ases "
                f"({self.num_core} + {self.num_transit} > {self.num_ases})"
            )
        if not 0.0 <= self.peering_probability <= 1.0:
            raise ConfigurationError(
                f"peering_probability must be in [0, 1], got {self.peering_probability}"
            )
        if self.min_bandwidth_mbps <= 0 or self.max_bandwidth_mbps < self.min_bandwidth_mbps:
            raise ConfigurationError("invalid bandwidth range")


@dataclass
class _ASPlan:
    """Internal bookkeeping while the generator assembles an AS."""

    as_id: int
    tier: str
    pop_locations: List[GeoCoordinate]
    next_interface_id: int = 1
    info: ASInfo = field(init=False)

    def __post_init__(self) -> None:
        self.info = ASInfo(as_id=self.as_id, name=f"{self.tier}-{self.as_id}")

    def new_interface(self, location: GeoCoordinate) -> Interface:
        """Create a new interface at ``location`` and register it on the AS."""
        interface = Interface(
            as_id=self.as_id, interface_id=self.next_interface_id, location=location
        )
        self.next_interface_id += 1
        self.info.add_interface(interface)
        return interface

    def closest_pop(self, target: GeoCoordinate) -> GeoCoordinate:
        """Return the PoP location of this AS that is closest to ``target``."""
        return min(self.pop_locations, key=lambda loc: propagation_delay_ms(loc, target))


def generate_topology(config: Optional[TopologyConfig] = None) -> Topology:
    """Generate a synthetic geo-embedded inter-domain topology.

    Args:
        config: Generator parameters; defaults to :class:`TopologyConfig()`.

    Returns:
        A connected :class:`~repro.topology.graph.Topology`.
    """
    cfg = config or TopologyConfig()
    cfg.validate()
    rng = random.Random(cfg.seed)
    cities = [coord for _name, coord in WORLD_CITIES]

    plans = _plan_ases(cfg, rng, cities)
    topology = Topology()
    for plan in plans:
        topology.add_as(plan.info)

    builder = _LinkBuilder(topology=topology, rng=rng, config=cfg)
    core = [p for p in plans if p.tier == "core"]
    transit = [p for p in plans if p.tier == "transit"]
    stub = [p for p in plans if p.tier == "stub"]

    _mesh_core(core, builder, cfg)
    _attach_tier(transit, core, builder, cfg.transit_provider_count, rng)
    _peer_transit(transit, builder, cfg, rng)
    _attach_tier(stub, core + transit, builder, cfg.stub_provider_count, rng)
    return topology


# ----------------------------------------------------------------------
# internal helpers
# ----------------------------------------------------------------------
def _plan_ases(
    cfg: TopologyConfig, rng: random.Random, cities: Sequence[GeoCoordinate]
) -> List[_ASPlan]:
    """Assign every AS a tier and a set of PoP cities."""
    plans: List[_ASPlan] = []
    for as_id in range(1, cfg.num_ases + 1):
        if as_id <= cfg.num_core:
            tier, max_pops = "core", cfg.max_pops_core
        elif as_id <= cfg.num_core + cfg.num_transit:
            tier, max_pops = "transit", cfg.max_pops_transit
        else:
            tier, max_pops = "stub", cfg.max_pops_stub
        num_pops = rng.randint(1, max(1, max_pops))
        pop_locations = rng.sample(list(cities), k=min(num_pops, len(cities)))
        plans.append(_ASPlan(as_id=as_id, tier=tier, pop_locations=pop_locations))
    return plans


@dataclass
class _LinkBuilder:
    """Creates interfaces and links between planned ASes."""

    topology: Topology
    rng: random.Random
    config: TopologyConfig

    def connect(
        self,
        a: _ASPlan,
        b: _ASPlan,
        relationship: Relationship,
        location_a: Optional[GeoCoordinate] = None,
        location_b: Optional[GeoCoordinate] = None,
    ) -> Link:
        """Create a link between ``a`` and ``b`` at (near-)matching PoPs.

        For :attr:`Relationship.CUSTOMER_PROVIDER` links, ``a`` is the
        customer and ``b`` the provider (matching the :class:`Link`
        convention).
        """
        if location_a is None:
            location_a = self.rng.choice(a.pop_locations)
        if location_b is None:
            location_b = b.closest_pop(location_a)
        interface_a = a.new_interface(location_a)
        interface_b = b.new_interface(location_b)
        latency = max(0.05, propagation_delay_ms(location_a, location_b))
        bandwidth = self._bandwidth_for(a.tier, b.tier)
        link = Link(
            interface_a=interface_a.key,
            interface_b=interface_b.key,
            latency_ms=latency,
            bandwidth_mbps=bandwidth,
            relationship=relationship,
        )
        self.topology.add_link(link)
        return link

    def _bandwidth_for(self, tier_a: str, tier_b: str) -> float:
        """Draw a link bandwidth; links between larger ASes are fatter."""
        cfg = self.config
        tiers = {tier_a, tier_b}
        if tiers == {"core"}:
            low, high = cfg.max_bandwidth_mbps * 0.5, cfg.max_bandwidth_mbps
        elif "core" in tiers:
            low, high = cfg.max_bandwidth_mbps * 0.1, cfg.max_bandwidth_mbps * 0.6
        elif "stub" in tiers:
            low, high = cfg.min_bandwidth_mbps, cfg.max_bandwidth_mbps * 0.1
        else:
            low, high = cfg.max_bandwidth_mbps * 0.05, cfg.max_bandwidth_mbps * 0.3
        return self.rng.uniform(low, high)


def _mesh_core(core: List[_ASPlan], builder: _LinkBuilder, cfg: TopologyConfig) -> None:
    """Fully mesh the core ASes with parallel links at different locations."""
    for i, a in enumerate(core):
        for b in core[i + 1:]:
            for parallel_index in range(cfg.core_parallel_links):
                location_a = a.pop_locations[parallel_index % len(a.pop_locations)]
                builder.connect(a, b, Relationship.CORE, location_a=location_a)


def _attach_tier(
    lower: List[_ASPlan],
    upper: List[_ASPlan],
    builder: _LinkBuilder,
    provider_count: int,
    rng: random.Random,
) -> None:
    """Attach every AS in ``lower`` to ``provider_count`` providers in ``upper``.

    Provider choice is degree-biased (preferential attachment) which yields
    the heavy-tailed degree distribution of the real AS graph.
    """
    for plan in lower:
        weights = [1 + builder.topology.degree_of(candidate.as_id) for candidate in upper]
        providers: List[_ASPlan] = []
        candidates = list(upper)
        candidate_weights = list(weights)
        wanted = min(provider_count, len(candidates))
        while len(providers) < wanted and candidates:
            chosen = rng.choices(candidates, weights=candidate_weights, k=1)[0]
            index = candidates.index(chosen)
            candidates.pop(index)
            candidate_weights.pop(index)
            providers.append(chosen)
        for provider in providers:
            builder.connect(plan, provider, Relationship.CUSTOMER_PROVIDER)


def _peer_transit(
    transit: List[_ASPlan], builder: _LinkBuilder, cfg: TopologyConfig, rng: random.Random
) -> None:
    """Create lateral peering links between transit ASes."""
    for i, a in enumerate(transit):
        for b in transit[i + 1:]:
            if rng.random() < cfg.peering_probability:
                builder.connect(a, b, Relationship.PEER)


def paper_scale_config(seed: int = 7) -> TopologyConfig:
    """Return a configuration approximating the paper's simulation topology.

    The paper uses the 500 highest-degree CAIDA ASes with over 100 000
    inter-domain links.  Generating (and beaconing over) the full link count
    in pure Python is possible but slow; this configuration keeps the 500
    ASes and the structural shape while remaining tractable.  The benchmark
    harness accepts any :class:`TopologyConfig`, so users with more patience
    can raise the multipliers further.
    """
    return TopologyConfig(
        num_ases=500,
        num_core=15,
        num_transit=110,
        core_parallel_links=4,
        transit_provider_count=4,
        stub_provider_count=3,
        peering_probability=0.08,
        max_pops_core=12,
        max_pops_transit=6,
        max_pops_stub=2,
        seed=seed,
    )


def small_test_config(seed: int = 7) -> TopologyConfig:
    """Return a deliberately small configuration for fast unit tests."""
    return TopologyConfig(
        num_ases=12,
        num_core=3,
        num_transit=4,
        core_parallel_links=1,
        transit_provider_count=2,
        stub_provider_count=2,
        peering_probability=0.3,
        max_pops_core=3,
        max_pops_transit=2,
        max_pops_stub=1,
        seed=seed,
    )

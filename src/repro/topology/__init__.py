"""Internet topology substrate.

The paper evaluates IREC on a topology derived from the CAIDA geo-rel
dataset: the 500 highest-degree ASes, more than 100 000 inter-domain links,
with business relationships and per-link geolocations that allow estimating
propagation delay from the great-circle distance between link endpoints.

This package models that dataset; nothing reads the dataset itself:

* :mod:`repro.topology.geo` — geographic coordinates, great-circle
  distances and fibre propagation delays,
* :mod:`repro.topology.entities` — ASes, interfaces, inter-domain links and
  business relationships,
* :mod:`repro.topology.graph` — the :class:`Topology` container with
  neighbour, link and policy queries,
* :mod:`repro.topology.intra_domain` — intra-AS latency models between the
  interfaces of one AS,
* :mod:`repro.topology.pops` — points of presence derived from interface
  geolocations,
* :mod:`repro.topology.generator` — a synthetic generator producing
  CAIDA-geo-rel-like topologies (heavy-tailed degrees, multi-PoP ASes,
  customer/provider/peer relationships, geo-embedded links).
"""

from repro.topology.entities import (
    ASInfo,
    Interface,
    InterfaceID,
    Link,
    LinkID,
    Relationship,
)
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.geo import GeoCoordinate, great_circle_km, propagation_delay_ms
from repro.topology.graph import Topology
from repro.topology.intra_domain import IntraDomainModel
from repro.topology.pops import PointOfPresence, derive_pops

__all__ = [
    "ASInfo",
    "GeoCoordinate",
    "Interface",
    "InterfaceID",
    "IntraDomainModel",
    "Link",
    "LinkID",
    "PointOfPresence",
    "Relationship",
    "Topology",
    "TopologyConfig",
    "derive_pops",
    "generate_topology",
    "great_circle_km",
    "propagation_delay_ms",
]

"""Points of presence (PoPs).

The paper defines a PoP of an AS as "a geolocation where it has at least
one inter-domain link" and evaluates the minimum propagation delay between
any pair of PoPs in two different ASes (paper §VIII-C).  This module
derives PoPs from interface geolocations by clustering interfaces that sit
at (almost) the same location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.topology.entities import InterfaceID
from repro.topology.geo import GeoCoordinate, centroid, cluster_by_distance
from repro.topology.graph import Topology

#: Interfaces closer than this are considered to be at the same PoP.  The
#: CAIDA geo-rel dataset reports link locations at city granularity, so a
#: small co-location radius is appropriate.
COLOCATION_RADIUS_KM = 50.0


@dataclass(frozen=True)
class PointOfPresence:
    """A geographic presence of an AS.

    Attributes:
        as_id: Owning AS.
        pop_id: Index of the PoP within the AS (stable, deterministic).
        location: Representative location (centroid of member interfaces).
        interfaces: Member interfaces (global identifiers), sorted.
    """

    as_id: int
    pop_id: int
    location: GeoCoordinate
    interfaces: Tuple[InterfaceID, ...]

    @property
    def key(self) -> Tuple[int, int]:
        """Return the global ``(as_id, pop_id)`` identifier."""
        return (self.as_id, self.pop_id)


def derive_pops(topology: Topology) -> Dict[int, List[PointOfPresence]]:
    """Derive the PoPs of every AS in ``topology``.

    Interfaces of the same AS are clustered greedily: two interfaces belong
    to the same PoP whenever they are within :data:`COLOCATION_RADIUS_KM` of
    every other member of the PoP.

    Returns:
        Mapping from AS identifier to its list of PoPs (ordered by
        ``pop_id``).
    """
    result: Dict[int, List[PointOfPresence]] = {}
    for as_info in topology:
        labelled: List[Tuple[int, GeoCoordinate]] = [
            (interface.interface_id, interface.location) for interface in as_info
        ]
        clusters = cluster_by_distance(labelled, COLOCATION_RADIUS_KM)
        pops: List[PointOfPresence] = []
        for pop_id, members in enumerate(clusters):
            member_ids = sorted(int(m) for m in members)
            locations = [as_info.interface(m).location for m in member_ids]
            pops.append(
                PointOfPresence(
                    as_id=as_info.as_id,
                    pop_id=pop_id,
                    location=centroid(locations),
                    interfaces=tuple((as_info.as_id, m) for m in member_ids),
                )
            )
        result[as_info.as_id] = pops
    return result

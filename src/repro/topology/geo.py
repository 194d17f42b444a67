"""Geographic primitives.

The CAIDA geo-rel dataset annotates inter-domain links with the location of
the link endpoints.  The paper uses those locations to estimate per-link
propagation delay from the great-circle distance.  This module provides the
coordinate type and the distance/delay computations, plus a small catalogue
of real city coordinates used by the synthetic topology generator to place
points of presence at plausible locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.units import fiber_delay_ms

#: Mean Earth radius in kilometres, used by the great-circle computation.
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True, order=True)
class GeoCoordinate:
    """A point on the Earth's surface.

    Attributes:
        latitude: Degrees north of the equator, in ``[-90, 90]``.
        longitude: Degrees east of the prime meridian, in ``[-180, 180]``.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


def great_circle_km(a: GeoCoordinate, b: GeoCoordinate) -> float:
    """Return the great-circle distance between two coordinates.

    Uses the haversine formula, which is numerically stable for the small
    and medium distances that dominate Internet topologies.  Past a quarter
    of the circumference ``asin(sqrt(h))`` grows ill-conditioned (``h``
    tends to 1 at the antipode), so there the angle is measured back from
    the antipode, with ``1 - h`` written as a sum of non-negative terms
    instead of a cancellation.
    """
    lat1 = math.radians(a.latitude)
    lat2 = math.radians(b.latitude)
    dlat = lat2 - lat1
    dlon = math.radians(b.longitude - a.longitude)

    sin_dlat = math.sin(dlat / 2.0)
    sin_dlon = math.sin(dlon / 2.0)
    h = sin_dlat * sin_dlat + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon
    if h <= 0.5:
        return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))
    cos_dlat = math.cos(dlat / 2.0)
    cos_dlon = math.cos(dlon / 2.0)
    sin_mid = math.sin((lat1 + lat2) / 2.0)
    rest = (cos_dlat * cos_dlat * cos_dlon * cos_dlon
            + sin_mid * sin_mid * sin_dlon * sin_dlon)
    rest = min(1.0, rest)
    return 2.0 * EARTH_RADIUS_KM * (math.pi / 2.0 - math.asin(math.sqrt(rest)))


def propagation_delay_ms(a: GeoCoordinate, b: GeoCoordinate) -> float:
    """Return the estimated fibre propagation delay between two points.

    This mirrors the paper's methodology: the delay of an inter-domain link
    is estimated from the great-circle distance between the geolocations of
    its two endpoints, assuming signal propagation at two thirds of the
    speed of light.
    """
    return fiber_delay_ms(great_circle_km(a, b))


def centroid(points: Sequence[GeoCoordinate]) -> GeoCoordinate:
    """Return the (planar-approximation) centroid of a set of coordinates.

    The centroid is computed in latitude/longitude space, which is accurate
    enough for the clustering use cases in this library (interface groups
    with radii of a few hundred to a few thousand kilometres).
    """
    if not points:
        raise ValueError("cannot compute the centroid of an empty set of points")
    lat = sum(p.latitude for p in points) / len(points)
    lon = sum(p.longitude for p in points) / len(points)
    return GeoCoordinate(latitude=lat, longitude=lon)


def cluster_by_distance(
    points: Sequence[Tuple[object, GeoCoordinate]], radius_km: float
) -> List[List[object]]:
    """Greedily cluster labelled points so that intra-cluster distance is bounded.

    This is the clustering primitive behind interface groups (paper §IV-D
    and §VIII-B): the origin AS groups its interfaces so that any two
    interfaces in the same group are at most ``radius_km`` apart.

    Args:
        points: Sequence of ``(label, coordinate)`` pairs.
        radius_km: Maximum allowed distance between any two members of the
            same cluster.

    Returns:
        A list of clusters, each a list of labels, in deterministic order.
    """
    if radius_km < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius_km}")

    clusters: List[List[object]] = []
    cluster_coords: List[List[GeoCoordinate]] = []
    for label, coord in points:
        placed = False
        for members, coords in zip(clusters, cluster_coords):
            if all(great_circle_km(coord, existing) <= radius_km for existing in coords):
                members.append(label)
                coords.append(coord)
                placed = True
                break
        if not placed:
            clusters.append([label])
            cluster_coords.append([coord])
    return clusters


#: A catalogue of well-known city coordinates.  The synthetic topology
#: generator samples PoP locations from this list so that distances (and
#: therefore delays) in generated topologies are Internet-plausible.
WORLD_CITIES: Tuple[Tuple[str, GeoCoordinate], ...] = (
    ("new-york", GeoCoordinate(40.7128, -74.0060)),
    ("los-angeles", GeoCoordinate(34.0522, -118.2437)),
    ("chicago", GeoCoordinate(41.8781, -87.6298)),
    ("dallas", GeoCoordinate(32.7767, -96.7970)),
    ("miami", GeoCoordinate(25.7617, -80.1918)),
    ("seattle", GeoCoordinate(47.6062, -122.3321)),
    ("toronto", GeoCoordinate(43.6532, -79.3832)),
    ("mexico-city", GeoCoordinate(19.4326, -99.1332)),
    ("sao-paulo", GeoCoordinate(-23.5505, -46.6333)),
    ("buenos-aires", GeoCoordinate(-34.6037, -58.3816)),
    ("santiago", GeoCoordinate(-33.4489, -70.6693)),
    ("bogota", GeoCoordinate(4.7110, -74.0721)),
    ("london", GeoCoordinate(51.5074, -0.1278)),
    ("paris", GeoCoordinate(48.8566, 2.3522)),
    ("frankfurt", GeoCoordinate(50.1109, 8.6821)),
    ("amsterdam", GeoCoordinate(52.3676, 4.9041)),
    ("zurich", GeoCoordinate(47.3769, 8.5417)),
    ("madrid", GeoCoordinate(40.4168, -3.7038)),
    ("milan", GeoCoordinate(45.4642, 9.1900)),
    ("stockholm", GeoCoordinate(59.3293, 18.0686)),
    ("warsaw", GeoCoordinate(52.2297, 21.0122)),
    ("vienna", GeoCoordinate(48.2082, 16.3738)),
    ("moscow", GeoCoordinate(55.7558, 37.6173)),
    ("istanbul", GeoCoordinate(41.0082, 28.9784)),
    ("dubai", GeoCoordinate(25.2048, 55.2708)),
    ("tel-aviv", GeoCoordinate(32.0853, 34.7818)),
    ("johannesburg", GeoCoordinate(-26.2041, 28.0473)),
    ("nairobi", GeoCoordinate(-1.2921, 36.8219)),
    ("lagos", GeoCoordinate(6.5244, 3.3792)),
    ("cairo", GeoCoordinate(30.0444, 31.2357)),
    ("mumbai", GeoCoordinate(19.0760, 72.8777)),
    ("delhi", GeoCoordinate(28.7041, 77.1025)),
    ("chennai", GeoCoordinate(13.0827, 80.2707)),
    ("singapore", GeoCoordinate(1.3521, 103.8198)),
    ("jakarta", GeoCoordinate(-6.2088, 106.8456)),
    ("bangkok", GeoCoordinate(13.7563, 100.5018)),
    ("hong-kong", GeoCoordinate(22.3193, 114.1694)),
    ("taipei", GeoCoordinate(25.0330, 121.5654)),
    ("tokyo", GeoCoordinate(35.6762, 139.6503)),
    ("osaka", GeoCoordinate(34.6937, 135.5023)),
    ("seoul", GeoCoordinate(37.5665, 126.9780)),
    ("shanghai", GeoCoordinate(31.2304, 121.4737)),
    ("beijing", GeoCoordinate(39.9042, 116.4074)),
    ("sydney", GeoCoordinate(-33.8688, 151.2093)),
    ("melbourne", GeoCoordinate(-37.8136, 144.9631)),
    ("auckland", GeoCoordinate(-36.8509, 174.7645)),
    ("honolulu", GeoCoordinate(21.3069, -157.8583)),
    ("anchorage", GeoCoordinate(61.2181, -149.9003)),
    ("reykjavik", GeoCoordinate(64.1466, -21.9426)),
    ("lisbon", GeoCoordinate(38.7223, -9.1393)),
)

"""Static-info metadata carried in PCB AS entries.

SCION PCBs may contain *static info extensions* with per-hop performance
metadata — link latency, link bandwidth, geolocation — which IREC's routing
algorithms consume to optimize paths on diverse criteria (paper §III,
§IV-A).  Each AS entry of a beacon carries one :class:`StaticInfo` record
describing:

* the intra-AS latency between the entry's ingress and egress interfaces,
* the latency and bandwidth of the inter-domain link attached to the
  entry's egress interface, and
* the geolocation of the egress interface (used for PoP-level evaluation
  and geographic interface grouping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.topology.geo import GeoCoordinate


@dataclass(frozen=True, slots=True)
class StaticInfo:
    """Per-hop performance metadata.

    Attributes:
        intra_latency_ms: Latency of the intra-AS path between the entry's
            ingress and egress interfaces; zero for origin and terminal
            entries (which have only one interface).
        link_latency_ms: Propagation latency of the inter-domain link
            attached to the entry's egress interface; zero for terminal
            entries, which have no egress link.
        link_bandwidth_mbps: Capacity of that link; ``None`` for terminal
            entries.
        egress_location: Geolocation of the egress interface, if shared.
        ingress_location: Geolocation of the ingress interface, if shared.
    """

    intra_latency_ms: float = 0.0
    link_latency_ms: float = 0.0
    link_bandwidth_mbps: Optional[float] = None
    egress_location: Optional[GeoCoordinate] = None
    ingress_location: Optional[GeoCoordinate] = None
    #: Memo of :meth:`encode`, a declared slot as in :mod:`repro.core.beacon`;
    #: a view shares one record per interface pair, so it is formatted once.
    _encoded: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.intra_latency_ms < 0.0:
            raise ValueError(f"intra latency must be non-negative: {self.intra_latency_ms}")
        if self.link_latency_ms < 0.0:
            raise ValueError(f"link latency must be non-negative: {self.link_latency_ms}")
        if self.link_bandwidth_mbps is not None and self.link_bandwidth_mbps <= 0.0:
            raise ValueError(f"link bandwidth must be positive: {self.link_bandwidth_mbps}")

    @property
    def hop_latency_ms(self) -> float:
        """Total latency contributed by this hop (intra-AS plus egress link)."""
        return self.intra_latency_ms + self.link_latency_ms

    def encode(self) -> str:
        """Return a canonical string used for signing and hashing (memoized)."""
        encoded = self._encoded
        if encoded is not None:
            return encoded
        egress = (
            f"{self.egress_location.latitude:.6f},{self.egress_location.longitude:.6f}"
            if self.egress_location is not None
            else "-"
        )
        ingress = (
            f"{self.ingress_location.latitude:.6f},{self.ingress_location.longitude:.6f}"
            if self.ingress_location is not None
            else "-"
        )
        bandwidth = (
            f"{self.link_bandwidth_mbps:.6f}" if self.link_bandwidth_mbps is not None else "-"
        )
        encoded = (
            f"si(intra={self.intra_latency_ms:.6f},link={self.link_latency_ms:.6f},"
            f"bw={bandwidth},egeo={egress},igeo={ingress})"
        )
        object.__setattr__(self, "_encoded", encoded)
        return encoded

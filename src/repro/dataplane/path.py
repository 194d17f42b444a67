"""Forwarding paths built from registered path segments.

A registered beacon describes a path *from* its origin AS *to* the AS that
registered it.  Data packets flow in the opposite direction when the
registering AS is the traffic source, so the forwarding path is the
segment's hop sequence reversed, with each hop's ingress/egress interfaces
swapped.  Each hop becomes a :class:`HopField` — the packet-carried
forwarding state a border router needs to move the packet to the next AS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.beacon import Beacon
from repro.exceptions import PathConstructionError
from repro.topology.entities import LinkID, normalize_link_id


@dataclass(frozen=True)
class HopField:
    """Per-AS forwarding state inside a packet header.

    Attributes:
        as_id: The AS this hop field belongs to.
        ingress_interface: Interface on which the packet enters the AS
            (``None`` at the source AS).
        egress_interface: Interface on which the packet leaves the AS
            (``None`` at the destination AS).
    """

    as_id: int
    ingress_interface: Optional[int]
    egress_interface: Optional[int]


@dataclass(frozen=True)
class ForwardingPath:
    """A complete inter-domain forwarding path.

    Attributes:
        hops: Hop fields from the source AS to the destination AS.
        expected_latency_ms: Latency the control plane predicted for the
            path (accumulated static info of the underlying segment).
        expected_bandwidth_mbps: Bottleneck bandwidth predicted for the path.
    """

    hops: Tuple[HopField, ...]
    expected_latency_ms: float
    expected_bandwidth_mbps: float

    def __post_init__(self) -> None:
        if len(self.hops) < 2:
            raise PathConstructionError("a forwarding path needs at least two hops")
        if self.hops[0].ingress_interface is not None:
            raise PathConstructionError("the source hop must not have an ingress interface")
        if self.hops[-1].egress_interface is not None:
            raise PathConstructionError("the destination hop must not have an egress interface")
        # Only the destination may end the walk: a hop before it without an
        # egress would be reported delivered short of the destination.
        if any(hop.egress_interface is None for hop in self.hops[:-1]) or any(
            hop.ingress_interface is None for hop in self.hops[1:]
        ):
            raise PathConstructionError("interior hops must specify both interfaces")

    @property
    def source_as(self) -> int:
        """Return the source AS."""
        return self.hops[0].as_id

    @property
    def destination_as(self) -> int:
        """Return the destination AS."""
        return self.hops[-1].as_id

    @property
    def hop_count(self) -> int:
        """Return the number of AS hops."""
        return len(self.hops)

    def as_path(self) -> Tuple[int, ...]:
        """Return the AS-level path."""
        return tuple(hop.as_id for hop in self.hops)

    def links(self) -> Tuple[LinkID, ...]:
        """Return the inter-domain links the path traverses."""
        return tuple(
            normalize_link_id(
                (current.as_id, current.egress_interface), (nxt.as_id, nxt.ingress_interface)
            )
            for current, nxt in zip(self.hops, self.hops[1:])
        )

    def hop_for(self, as_id: int) -> HopField:
        """Return the hop field of ``as_id``.

        Raises:
            PathConstructionError: If the AS is not on the path.
        """
        for hop in self.hops:
            if hop.as_id == as_id:
                return hop
        raise PathConstructionError(f"AS {as_id} is not on the forwarding path")


def forwarding_path_from_segment(segment: Beacon) -> ForwardingPath:
    """Build the source-to-origin forwarding path from a registered segment.

    The segment was beaconed from its origin AS down to the registering AS,
    so the forwarding path (for traffic sent by the registering AS towards
    the origin) reverses the hop order and swaps each hop's interfaces.

    Raises:
        PathConstructionError: If the segment is not terminated.
    """
    if not segment.is_terminated:
        raise PathConstructionError("only terminated segments can be turned into paths")
    hops = [
        HopField(
            as_id=entry.as_id,
            ingress_interface=entry.egress_interface,
            egress_interface=entry.ingress_interface,
        )
        for entry in reversed(segment.entries)
    ]
    return ForwardingPath(
        hops=tuple(hops),
        expected_latency_ms=segment.total_latency_ms(),
        expected_bandwidth_mbps=segment.bottleneck_bandwidth_mbps(),
    )

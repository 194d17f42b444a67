"""Packets with packet-carried forwarding state.

A SCION packet carries its complete inter-domain forwarding path in the
header; routers advance a cursor through the hop fields instead of looking
anything up.  The :class:`Packet` here models exactly the fields the
reproduction's forwarding simulation needs: the path, the cursor, source
and destination endpoints and an opaque payload.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.path import ForwardingPath, HopField
from repro.exceptions import ForwardingError


@dataclass
class Packet:
    """A data-plane packet.

    Attributes:
        path: The packet-carried forwarding path.
        source_host: Identifier of the sending host (opaque).
        destination_host: Identifier of the receiving host (opaque).
        payload: Opaque payload (its size only matters for reports).
        current_hop_index: Cursor into :attr:`path.hops`; advanced by each
            AS's border router as the packet crosses the network.
        accumulated_latency_ms: Latency accrued so far (filled in by the
            forwarding simulation).
    """

    path: ForwardingPath
    source_host: str = "src"
    destination_host: str = "dst"
    payload: bytes = b""
    current_hop_index: int = 0
    accumulated_latency_ms: float = 0.0

    @property
    def current_hop(self) -> HopField:
        """Return the hop field of the AS currently holding the packet."""
        try:
            return self.path.hops[self.current_hop_index]
        except IndexError:
            raise ForwardingError("packet cursor ran past the end of its path") from None

    @property
    def current_as(self) -> int:
        """Return the AS currently holding the packet."""
        return self.current_hop.as_id

    @property
    def at_destination(self) -> bool:
        """Return whether the packet has reached the destination AS."""
        return self.current_hop_index == len(self.path.hops) - 1

    def advance(self) -> HopField:
        """Move the cursor to the next hop and return its hop field.

        Raises:
            ForwardingError: If the packet is already at its destination.
        """
        if self.at_destination:
            raise ForwardingError("cannot advance a packet that is at its destination")
        self.current_hop_index += 1
        return self.current_hop

    def add_latency(self, latency_ms: float) -> None:
        """Accrue forwarding latency.

        Raises:
            ForwardingError: If the latency is negative.
        """
        if latency_ms < 0.0:
            raise ForwardingError(f"latency must be non-negative, got {latency_ms}")
        self.accumulated_latency_ms += latency_ms

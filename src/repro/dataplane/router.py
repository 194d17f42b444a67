"""Border-router forwarding.

A SCION border router keeps no inter-domain forwarding state: it reads the
packet's current hop field, checks that the packet actually arrived on the
interface the hop field names (path authorization in the real system, a
consistency check here) and pushes the packet out of the egress interface
named by the hop field — or hands it to the local delivery path when the
hop field has no egress interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional

from repro.dataplane.packet import Packet
from repro.exceptions import ForwardingError
from repro.topology.entities import InterfaceID


@dataclass
class BorderRouter:
    """The (collective) border-router function of one AS.

    The reproduction models all border routers of an AS as a single
    forwarding function, which is sufficient because hop fields identify
    interfaces, not individual router boxes.

    Attributes:
        as_id: The AS this router forwards for.
        local_interfaces: The interfaces the AS owns (for validation); the
            network passes the AS's live ``ASInfo.interfaces`` mapping, so
            an interface attached later is owned from then on.
    """

    as_id: int
    local_interfaces: Container[int]

    def forward(
        self, packet: Packet, arrived_on: Optional[int]
    ) -> Optional[InterfaceID]:
        """Forward ``packet`` one step.

        Args:
            packet: The packet to forward; its cursor must point at this AS.
            arrived_on: Local interface the packet arrived on, or ``None``
                if the packet was injected by a local end host.

        Returns:
            The local ``(as_id, egress interface)`` to push the packet out
            of, or ``None`` when the packet is delivered locally (this AS is
            the destination).

        Raises:
            ForwardingError: If the hop field is inconsistent with the AS,
                the arrival interface, or the local interface set.
        """
        hop = packet.current_hop
        if hop.as_id != self.as_id:
            raise ForwardingError(
                f"packet cursor points at AS {hop.as_id} but reached AS {self.as_id}"
            )
        if hop.ingress_interface != arrived_on:
            raise ForwardingError(
                f"packet arrived on interface {arrived_on} of AS {self.as_id}, "
                f"but its hop field authorizes ingress {hop.ingress_interface}"
            )
        if hop.egress_interface is None:
            return None
        if hop.egress_interface not in self.local_interfaces:
            raise ForwardingError(
                f"hop field names egress interface {hop.egress_interface}, "
                f"which AS {self.as_id} does not own"
            )
        return (self.as_id, hop.egress_interface)

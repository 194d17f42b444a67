"""End-to-end forwarding simulation over a topology.

The :class:`DataPlaneNetwork` walks a packet along its packet-carried path,
checking at every step that the egress interface named by the hop field is
actually attached to a link leading to the next AS on the path, and
accumulating the real link latencies plus intra-AS transit latencies.  The
resulting :class:`DeliveryReport` lets tests and examples confirm that
control-plane-discovered paths are usable and that their predicted metrics
match what the data plane experiences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.dataplane.packet import Packet
from repro.dataplane.router import BorderRouter
from repro.exceptions import ForwardingError
from repro.simulation.failures import LinkState
from repro.topology.graph import Topology
from repro.topology.intra_domain import IntraDomainRegistry


@dataclass
class DeliveryReport:
    """Outcome of forwarding one packet end to end."""

    delivered: bool
    latency_ms: float
    as_path: Tuple[int, ...]
    hops_traversed: int
    failure_reason: Optional[str] = None


@dataclass
class DataPlaneNetwork:
    """Forwarding fabric over a topology.

    Attributes:
        topology: The global topology (links and latencies).
        intra_domain: Per-AS intra-domain latency models used to charge the
            transit latency between an AS's ingress and egress interfaces.
        link_state: Live link/AS availability, shared with the scenario
            engine when there is one; packets crossing a failed link (or an
            offline AS) are dropped instead of silently delivered.  The
            default empty state keeps every link up.
    """

    topology: Topology
    intra_domain: IntraDomainRegistry = field(default_factory=IntraDomainRegistry)
    routers: Dict[int, BorderRouter] = field(default_factory=dict)
    link_state: LinkState = field(default_factory=LinkState)

    def router_for(self, as_id: int) -> BorderRouter:
        """Return (creating on demand) the border router of ``as_id``."""
        router = self.routers.get(as_id)
        if router is None:
            as_info = self.topology.as_info(as_id)
            # The live interface mapping, not a snapshot: topology growth
            # attaches interfaces to ASes the network already routed through.
            router = BorderRouter(as_id=as_id, local_interfaces=as_info.interfaces)
            self.routers[as_id] = router
        return router

    def deliver(self, packet: Packet) -> DeliveryReport:
        """Forward ``packet`` from its source AS to its destination AS.

        The walk validates the packet-carried state against the topology at
        every step; any inconsistency aborts forwarding with a failure
        report rather than an exception, mirroring how a router would drop
        the packet.
        """
        arrived_on: Optional[int] = None
        hops_traversed = 0
        visited: Set[int] = set()
        try:
            if not self.link_state.is_as_up(packet.current_as):
                raise ForwardingError(f"source AS {packet.current_as} is offline")
            while True:
                router = self.router_for(packet.current_as)
                if packet.current_as in visited:
                    raise ForwardingError(
                        f"forwarding loop: packet revisited AS {packet.current_as}"
                    )
                visited.add(packet.current_as)
                egress = router.forward(packet, arrived_on=arrived_on)
                hops_traversed += 1
                if arrived_on is not None and egress is not None:
                    model = self.intra_domain.model_for(
                        self.topology.as_info(packet.current_as)
                    )
                    packet.add_latency(model.latency_ms(arrived_on, egress[1]))
                if egress is None:
                    return DeliveryReport(
                        delivered=True,
                        latency_ms=packet.accumulated_latency_ms,
                        as_path=packet.path.as_path(),
                        hops_traversed=hops_traversed,
                    )
                link = self.topology.link_of_interface(egress)
                remote_as, remote_interface = link.other_end(egress)
                if self.link_state.impaired() and not self.link_state.link_key_available(
                    link.key
                ):
                    raise ForwardingError(
                        f"link {link.key} between AS {egress[0]} and AS {remote_as} is down"
                    )
                next_hop = packet.advance()
                if next_hop.as_id != remote_as:
                    raise ForwardingError(
                        f"hop field expects AS {next_hop.as_id} after AS {egress[0]}, "
                        f"but the link leads to AS {remote_as}"
                    )
                packet.add_latency(link.latency_ms)
                arrived_on = remote_interface
        except ForwardingError as exc:
            return DeliveryReport(
                delivered=False,
                latency_ms=packet.accumulated_latency_ms,
                as_path=packet.path.as_path(),
                hops_traversed=hops_traversed,
                failure_reason=str(exc),
            )

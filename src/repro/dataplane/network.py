"""End-to-end forwarding simulation over a topology.

A SCION packet carries its complete inter-domain path in its header, and
border routers forward purely on that state (paper §III).  The
:class:`DataPlaneNetwork` walks a :class:`~repro.dataplane.path.ForwardingPath`
hop field by hop field the way the routers would: at every AS it checks
that the packet arrived on the interface the hop field authorizes, that
the AS owns the named egress interface, and that a link is attached
there, is up and leads to the next AS on the path, accumulating the real
link latencies plus intra-AS transit latencies.  The resulting
:class:`DeliveryReport` lets tests and examples confirm that
control-plane-discovered paths are usable and that their predicted
metrics match what the data plane experiences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.dataplane.path import ForwardingPath
from repro.exceptions import ForwardingError, UnknownLinkError
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

    All border routers of an AS act as one forwarding function: hop fields
    identify interfaces, not router boxes.

    Attributes:
        topology: The global topology (links and latencies).  Each AS's
            live ``ASInfo.interfaces`` decides which interfaces it owns, so
            an interface attached by topology growth is owned from then on.
        intra_domain: Per-AS intra-domain latency models used to charge the
            transit latency between an AS's ingress and egress interfaces.
        link_state: Live link/AS availability, shared with the scenario
            engine when there is one; packets crossing a failed link (or an
            offline AS) are dropped instead of silently delivered.  The
            default empty state keeps every link up.
    """

    topology: Topology
    intra_domain: IntraDomainRegistry = field(default_factory=IntraDomainRegistry, init=False)
    link_state: LinkState = field(default_factory=LinkState)

    def deliver(self, path: ForwardingPath) -> DeliveryReport:
        """Forward a packet along ``path`` from its source to its destination AS.

        The walk validates the packet-carried state against the topology at
        every step; any inconsistency aborts forwarding with a failure
        report rather than an exception, mirroring how a router would drop
        the packet.
        """
        hops = path.hops
        latency_ms = 0.0
        hops_traversed = 0
        arrived_on: Optional[int] = None
        visited: Set[int] = set()
        try:
            if not self.link_state.is_as_up(path.source_as):
                raise ForwardingError(f"source AS {path.source_as} is offline")
            for index, hop in enumerate(hops):
                as_id = hop.as_id
                as_info = self.topology.as_info(as_id)
                if as_id in visited:
                    raise ForwardingError(f"forwarding loop: packet revisited AS {as_id}")
                visited.add(as_id)
                egress = hop.egress_interface
                if hop.ingress_interface != arrived_on:
                    raise ForwardingError(
                        f"packet arrived on interface {arrived_on} of AS {as_id}, "
                        f"but its hop field authorizes ingress {hop.ingress_interface}"
                    )
                if egress is not None and egress not in as_info.interfaces:
                    raise ForwardingError(
                        f"hop field names egress interface {egress}, "
                        f"which AS {as_id} does not own"
                    )
                hops_traversed += 1
                if egress is None:  # only the destination hop lacks one
                    break
                if arrived_on is not None:
                    model = self.intra_domain.model_for(as_info)
                    latency_ms += model.latency_ms(arrived_on, egress)
                try:
                    link = self.topology.link_of_interface((as_id, egress))
                except UnknownLinkError:
                    raise ForwardingError(
                        f"egress interface {egress} of AS {as_id} has no link"
                    ) from None
                remote_as, remote_interface = link.other_end((as_id, egress))
                if self.link_state.impaired() and not self.link_state.link_key_available(
                    link.key
                ):
                    raise ForwardingError(
                        f"link {link.key} between AS {as_id} and AS {remote_as} is down"
                    )
                next_as = hops[index + 1].as_id
                if next_as != remote_as:
                    raise ForwardingError(
                        f"hop field expects AS {next_as} after AS {as_id}, "
                        f"but the link leads to AS {remote_as}"
                    )
                latency_ms += link.latency_ms
                arrived_on = remote_interface
        except ForwardingError as exc:
            return DeliveryReport(
                delivered=False,
                latency_ms=latency_ms,
                as_path=path.as_path(),
                hops_traversed=hops_traversed,
                failure_reason=str(exc),
            )
        return DeliveryReport(
            delivered=True,
            latency_ms=latency_ms,
            as_path=path.as_path(),
            hops_traversed=hops_traversed,
        )

"""The local topology view of one AS.

A control service must not depend on global topology knowledge — an AS only
knows its own interfaces, the links attached to them (including the
neighbouring AS on the far end) and its internal network.  The
:class:`LocalTopologyView` captures exactly that slice and is the only
topology object handed to gateways and RACs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.staticinfo import StaticInfo
from repro.exceptions import UnknownInterfaceError, UnknownLinkError
from repro.topology.entities import ASInfo, InterfaceID, Link
from repro.topology.graph import Topology
from repro.topology.intra_domain import IntraDomainModel


@dataclass
class LocalTopologyView:
    """Everything one AS knows about its own attachment to the Internet.

    Attributes:
        as_info: The AS's interfaces.
        intra_domain: Latency model between the AS's own interfaces.
        links_by_interface: The inter-domain link attached to each local
            interface.
    """

    as_info: ASInfo
    intra_domain: IntraDomainModel
    links_by_interface: Dict[int, Link]
    #: Lazily cached sorted interface tuple; the view only changes through
    #: :meth:`attach_link` (growth churn), which invalidates the memo, and
    #: ``interface_ids`` sits on per-message fast paths (beacon rounds,
    #: revocation forwarding), so sorting once per change is enough.
    #: Excluded from init/compare: a memo must not make equal views differ.
    _interface_ids: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Interface -> neighbouring AS, filled on first use; the egress
    #: gateway's loop check asks per (selection, interface).  Invalidated
    #: with ``_interface_ids``.
    _neighbor_as: Dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: (ingress, egress) -> the hop's :class:`StaticInfo`, a constant of the
    #: pair: every beacon extended over it carries the same frozen record
    #: (and its one encoding).  Invalidated with ``_interface_ids``.
    _static_info: Dict[Tuple[Optional[int], Optional[int]], StaticInfo] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        as_id: int,
        intra_domain: Optional[IntraDomainModel] = None,
    ) -> "LocalTopologyView":
        """Extract the local view of ``as_id`` from a global topology."""
        as_info = topology.as_info(as_id)
        links: Dict[int, Link] = {}
        for interface in as_info:
            try:
                links[interface.interface_id] = topology.link_of_interface(interface.key)
            except UnknownLinkError:
                # Interfaces without an attached inter-domain link (e.g.
                # provisioned but unused ports) carry no control-plane
                # traffic and are simply not part of the local view.
                continue
        model = intra_domain or IntraDomainModel(as_info=as_info)
        return cls(as_info=as_info, intra_domain=model, links_by_interface=links)

    @property
    def as_id(self) -> int:
        """Return the AS identifier."""
        return self.as_info.as_id

    def interface_ids(self) -> Tuple[int, ...]:
        """Return the local interfaces that have an attached link, sorted."""
        if self._interface_ids is None:
            self._interface_ids = tuple(sorted(self.links_by_interface))
        return self._interface_ids

    def attach_link(self, interface_id: int, link: Link) -> None:
        """Attach a freshly added inter-domain link to a local interface.

        The growth-churn hook: when a new AS joins mid-run, each
        attachment AS's view learns about its new interface here.  The
        interface must already exist on :attr:`as_info`.
        """
        self.as_info.interface(interface_id)  # raises if missing
        self.links_by_interface[interface_id] = link
        self._interface_ids = None
        self._neighbor_as.clear()
        self._static_info.clear()

    def link_of(self, interface_id: int) -> Link:
        """Return the inter-domain link attached to ``interface_id``."""
        link = self.links_by_interface.get(interface_id)
        if link is None:
            raise UnknownLinkError(
                f"AS {self.as_id} has no link on interface {interface_id}"
            )
        return link

    def neighbor_of(self, interface_id: int) -> InterfaceID:
        """Return the (AS, interface) at the far end of a local interface."""
        link = self.link_of(interface_id)
        return link.other_end((self.as_id, interface_id))

    def neighbor_as(self, interface_id: int) -> int:
        """Return the AS at the far end of a local interface (memoized)."""
        neighbor = self._neighbor_as.get(interface_id)
        if neighbor is None:
            neighbor = self._neighbor_as[interface_id] = self.neighbor_of(interface_id)[0]
        return neighbor

    def intra_latency_ms(self, interface_a: int, interface_b: int) -> float:
        """Return the intra-AS latency between two local interfaces."""
        return self.intra_domain.latency_ms(interface_a, interface_b)

    def static_info_for(
        self, ingress_interface: Optional[int], egress_interface: Optional[int]
    ) -> StaticInfo:
        """Return the static-info record of this AS's hop in a beacon.

        Built on the first request for an interface pair and shared from
        then on: the link, the interface locations and the intra-domain
        model are read once, until :meth:`attach_link` changes the view.

        Args:
            ingress_interface: Interface the beacon was received on, or
                ``None`` at the origin AS.
            egress_interface: Interface the beacon leaves on, or ``None``
                for a terminal (registration) entry.
        """
        static_info = self._static_info.get((ingress_interface, egress_interface))
        if static_info is not None:
            return static_info
        intra = 0.0
        if ingress_interface is not None and egress_interface is not None:
            intra = self.intra_latency_ms(ingress_interface, egress_interface)

        link_latency = 0.0
        link_bandwidth = None
        egress_location = None
        if egress_interface is not None:
            link = self.link_of(egress_interface)
            link_latency = link.latency_ms
            link_bandwidth = link.bandwidth_mbps
            egress_location = self._location(egress_interface)

        ingress_location = self._location(ingress_interface) if ingress_interface is not None else None
        static_info = self._static_info[(ingress_interface, egress_interface)] = StaticInfo(
            intra_latency_ms=intra,
            link_latency_ms=link_latency,
            link_bandwidth_mbps=link_bandwidth,
            egress_location=egress_location,
            ingress_location=ingress_location,
        )
        return static_info

    def _location(self, interface_id: int):
        try:
            return self.as_info.interface(interface_id).location
        except UnknownInterfaceError:
            return None

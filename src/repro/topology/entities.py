"""Core topology entities: ASes, interfaces, links and relationships.

The data model follows SCION terminology (paper §III):

* every AS owns a set of numbered **interfaces**; an interface is the
  attachment point of exactly one inter-domain link and has a geolocation
  (the PoP where the border router sits),
* an **inter-domain link** connects one interface of AS ``a`` to one
  interface of AS ``b`` and carries static metadata — propagation latency,
  bandwidth and the business relationship under which it was established,
* paths are expressed at the granularity of (AS, ingress interface, egress
  interface) hops, which is exactly the information PCBs accumulate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.exceptions import TopologyError, UnknownInterfaceError
from repro.topology.geo import GeoCoordinate

#: An interface is globally identified by the pair (AS identifier, local
#: interface identifier).
InterfaceID = Tuple[int, int]

#: A link identifier is the unordered pair of its two interface endpoints,
#: normalised so that the lexicographically smaller endpoint comes first.
LinkID = Tuple[InterfaceID, InterfaceID]


class Relationship(enum.Enum):
    """Business relationship of an inter-domain link.

    The values follow the CAIDA AS-relationship convention: a
    customer-provider link is directed (the customer pays the provider),
    while peering links are symmetric.  Core links connect tier-1 ASes.
    """

    CUSTOMER_PROVIDER = "customer-provider"
    PEER = "peer"
    CORE = "core"


@dataclass(frozen=True)
class Interface:
    """One inter-domain attachment point of an AS.

    Attributes:
        as_id: Owning AS.
        interface_id: Identifier local to the owning AS (small integer).
        location: Geolocation of the border router hosting the interface.
    """

    as_id: int
    interface_id: int
    location: GeoCoordinate

    @property
    def key(self) -> InterfaceID:
        """Return the global ``(as_id, interface_id)`` identifier."""
        return (self.as_id, self.interface_id)


@dataclass(frozen=True)
class Link:
    """An inter-domain link between two interfaces of two different ASes.

    Attributes:
        interface_a: One endpoint (``(as_id, interface_id)``).
        interface_b: The other endpoint.
        latency_ms: Propagation latency of the link in milliseconds.
        bandwidth_mbps: Capacity of the link in Mbit/s.
        relationship: Business relationship; for
            :attr:`Relationship.CUSTOMER_PROVIDER` links ``interface_a``
            belongs to the customer and ``interface_b`` to the provider.
    """

    interface_a: InterfaceID
    interface_b: InterfaceID
    latency_ms: float
    bandwidth_mbps: float
    relationship: Relationship

    def __post_init__(self) -> None:
        if self.interface_a[0] == self.interface_b[0]:
            raise TopologyError(
                f"inter-domain link endpoints must be in different ASes, "
                f"got {self.interface_a} and {self.interface_b}"
            )
        if self.latency_ms < 0.0:
            raise TopologyError(f"link latency must be non-negative, got {self.latency_ms}")
        if self.bandwidth_mbps <= 0.0:
            raise TopologyError(f"link bandwidth must be positive, got {self.bandwidth_mbps}")

    @property
    def key(self) -> LinkID:
        """Return the normalised (order-independent) link identifier.

        Memoized in the instance ``__dict__`` (invisible to dataclass
        equality/hashing): the transport resolves ``key`` on every
        delivery, so the normalisation must not repeat per message.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = normalize_link_id(self.interface_a, self.interface_b)
            self.__dict__["_key"] = cached
        return cached

    def other_end(self, interface: InterfaceID) -> InterfaceID:
        """Return the endpoint opposite to ``interface``.

        Raises:
            TopologyError: If ``interface`` is not an endpoint of the link.
        """
        if interface == self.interface_a:
            return self.interface_b
        if interface == self.interface_b:
            return self.interface_a
        raise TopologyError(f"{interface} is not an endpoint of link {self.key}")


def normalize_link_id(a: InterfaceID, b: InterfaceID) -> LinkID:
    """Return the canonical identifier for the link between ``a`` and ``b``."""
    return (a, b) if a <= b else (b, a)


def format_link(link_id: LinkID) -> str:
    """Return the trace form ``"as.if-as.if"`` of a link identifier."""
    (as_a, if_a), (as_b, if_b) = link_id
    return f"{as_a}.{if_a}-{as_b}.{if_b}"


@dataclass
class ASInfo:
    """All locally-owned information about one AS.

    Attributes:
        as_id: Identifier of the AS.
        interfaces: Mapping from local interface identifier to
            :class:`Interface`.
        name: Optional human-readable name (used by examples and reports).
    """

    as_id: int
    interfaces: Dict[int, Interface] = field(default_factory=dict, init=False)
    name: Optional[str] = None

    def add_interface(self, interface: Interface) -> None:
        """Register ``interface`` on this AS.

        Raises:
            TopologyError: If the interface belongs to a different AS or its
                identifier is already taken.
        """
        if interface.as_id != self.as_id:
            raise TopologyError(
                f"interface {interface.key} cannot be added to AS {self.as_id}"
            )
        if interface.interface_id in self.interfaces:
            raise TopologyError(
                f"AS {self.as_id} already has an interface {interface.interface_id}"
            )
        self.interfaces[interface.interface_id] = interface

    def interface(self, interface_id: int) -> Interface:
        """Return the interface with local identifier ``interface_id``.

        Raises:
            UnknownInterfaceError: If no such interface exists.
        """
        try:
            return self.interfaces[interface_id]
        except KeyError:
            raise UnknownInterfaceError(self.as_id, interface_id) from None

    def interface_ids(self) -> Tuple[int, ...]:
        """Return the sorted local identifiers of all interfaces."""
        return tuple(sorted(self.interfaces))

    def __iter__(self) -> Iterator[Interface]:
        for interface_id in sorted(self.interfaces):
            yield self.interfaces[interface_id]

    def __len__(self) -> int:
        return len(self.interfaces)

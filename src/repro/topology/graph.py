"""The :class:`Topology` container.

A topology owns every AS and every inter-domain link, and offers the query
surface the control plane needs: interface and link lookups, neighbour
enumeration, relationship-aware (valley-free) export checks, conversion to a
:mod:`networkx` graph for the analysis code, and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import TopologyError, UnknownASError, UnknownLinkError
from repro.topology.entities import (
    ASInfo,
    Interface,
    InterfaceID,
    Link,
    LinkID,
    Relationship,
    normalize_link_id,
)

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class Topology:
    """An inter-domain topology of ASes and links.

    The container is mutable during construction (``add_as`` / ``add_link``)
    and is treated as immutable afterwards by the rest of the library.
    """

    ases: Dict[int, ASInfo] = field(default_factory=dict)
    links: Dict[LinkID, Link] = field(default_factory=dict)
    _links_by_interface: Dict[InterfaceID, Link] = field(default_factory=dict)
    _neighbors: Dict[int, Set[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(self, as_info: ASInfo) -> None:
        """Register an AS.

        Raises:
            TopologyError: If the AS identifier is already present.
        """
        if as_info.as_id in self.ases:
            raise TopologyError(f"AS {as_info.as_id} already exists in the topology")
        self.ases[as_info.as_id] = as_info
        self._neighbors.setdefault(as_info.as_id, set())

    def add_link(self, link: Link) -> None:
        """Register an inter-domain link.

        Both endpoint interfaces must already exist on their ASes and must
        not yet be attached to another link (an interface is the endpoint of
        exactly one link, as in SCION).
        """
        for endpoint in (link.interface_a, link.interface_b):
            as_id, interface_id = endpoint
            if as_id not in self.ases:
                raise UnknownASError(as_id)
            self.ases[as_id].interface(interface_id)  # raises if missing
            if endpoint in self._links_by_interface:
                raise TopologyError(f"interface {endpoint} is already attached to a link")
        if link.key in self.links:
            raise TopologyError(f"link {link.key} already exists in the topology")

        self.links[link.key] = link
        self._links_by_interface[link.interface_a] = link
        self._links_by_interface[link.interface_b] = link
        self._neighbors.setdefault(link.interface_a[0], set()).add(link.interface_b[0])
        self._neighbors.setdefault(link.interface_b[0], set()).add(link.interface_a[0])

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def as_info(self, as_id: int) -> ASInfo:
        """Return the :class:`ASInfo` of ``as_id``."""
        try:
            return self.ases[as_id]
        except KeyError:
            raise UnknownASError(as_id) from None

    def interface(self, interface: InterfaceID) -> Interface:
        """Return the :class:`Interface` object for a global identifier."""
        as_id, interface_id = interface
        return self.as_info(as_id).interface(interface_id)

    def link_of_interface(self, interface: InterfaceID) -> Link:
        """Return the link attached to ``interface``."""
        link = self._links_by_interface.get(interface)
        if link is None:
            raise UnknownLinkError(f"no link attached to interface {interface}")
        return link

    def link_between(self, a: InterfaceID, b: InterfaceID) -> Link:
        """Return the link connecting interfaces ``a`` and ``b``."""
        link = self.links.get(normalize_link_id(a, b))
        if link is None:
            raise UnknownLinkError(f"no link between {a} and {b}")
        return link

    def remote_interface(self, interface: InterfaceID) -> InterfaceID:
        """Return the interface at the far end of the link attached here."""
        return self.link_of_interface(interface).other_end(interface)

    def neighbor_of(self, interface: InterfaceID) -> int:
        """Return the AS at the far end of the link attached to ``interface``."""
        return self.remote_interface(interface)[0]

    def neighbors(self, as_id: int) -> Tuple[int, ...]:
        """Return the sorted identifiers of all neighbouring ASes."""
        if as_id not in self.ases:
            raise UnknownASError(as_id)
        return tuple(sorted(self._neighbors.get(as_id, ())))

    def interfaces_of(self, as_id: int) -> Tuple[Interface, ...]:
        """Return all interfaces of ``as_id`` in identifier order."""
        return tuple(self.as_info(as_id))

    def interfaces_towards(self, as_id: int, neighbor_as: int) -> Tuple[Interface, ...]:
        """Return the interfaces of ``as_id`` whose links lead to ``neighbor_as``."""
        result = []
        for interface in self.as_info(as_id):
            link = self._links_by_interface.get(interface.key)
            if link is not None and link.other_end(interface.key)[0] == neighbor_as:
                result.append(interface)
        return tuple(result)

    def links_of(self, as_id: int) -> Tuple[Link, ...]:
        """Return all links with one endpoint in ``as_id``."""
        result = []
        for interface in self.as_info(as_id):
            link = self._links_by_interface.get(interface.key)
            if link is not None:
                result.append(link)
        return tuple(result)

    # ------------------------------------------------------------------
    # relationships and routing policy
    # ------------------------------------------------------------------
    def relationship(self, from_as: int, to_as: int) -> Optional[Relationship]:
        """Return the relationship of any link between two ASes.

        If several parallel links exist they are assumed to share the same
        business relationship (as in the CAIDA dataset); the relationship of
        the first link found is returned.  ``None`` means the ASes are not
        adjacent.
        """
        for interface in self.as_info(from_as):
            link = self._links_by_interface.get(interface.key)
            if link is not None and link.other_end(interface.key)[0] == to_as:
                return link.relationship
        return None

    def providers_of(self, as_id: int) -> Tuple[int, ...]:
        """Return the ASes that are providers of ``as_id``."""
        result = set()
        for link in self.links_of(as_id):
            if link.is_provider_of(as_id):
                result.add(link.other_end(link.endpoint_of(as_id))[0])
        return tuple(sorted(result))

    def customers_of(self, as_id: int) -> Tuple[int, ...]:
        """Return the ASes that are customers of ``as_id``."""
        result = set()
        for link in self.links_of(as_id):
            if link.is_customer_of(as_id):
                result.add(link.other_end(link.endpoint_of(as_id))[0])
        return tuple(sorted(result))

    def peers_of(self, as_id: int) -> Tuple[int, ...]:
        """Return the ASes peering (or in core relation) with ``as_id``."""
        result = set()
        for link in self.links_of(as_id):
            if link.relationship in (Relationship.PEER, Relationship.CORE):
                result.add(link.other_end(link.endpoint_of(as_id))[0])
        return tuple(sorted(result))

    def export_allowed(self, received_from: Optional[int], via: int, to_as: int) -> bool:
        """Check the Gao-Rexford (valley-free) export rule.

        A path learned from a provider or peer may only be exported to
        customers; a path learned from a customer (or originated locally,
        ``received_from is None``) may be exported to everyone.

        Args:
            received_from: AS from which ``via`` learned the path, or
                ``None`` if ``via`` originated it.
            via: The AS making the export decision.
            to_as: The neighbour the path would be exported to.
        """
        if received_from is None:
            return True
        rel_in = self.relationship(via, received_from)
        if rel_in is None:
            raise TopologyError(f"AS {via} and AS {received_from} are not adjacent")
        learned_from_customer = (
            rel_in is Relationship.CUSTOMER_PROVIDER
            and received_from in self.customers_of(via)
        )
        if learned_from_customer:
            return True
        # Learned from a provider, peer or core neighbour: only export to
        # customers.
        return to_as in self.customers_of(via)

    # ------------------------------------------------------------------
    # conversions and statistics
    # ------------------------------------------------------------------
    def to_networkx(self, multigraph: bool = True) -> nx.Graph:
        """Convert the topology to a networkx graph.

        Args:
            multigraph: If ``True`` (default) parallel links between the
                same AS pair become parallel edges; otherwise only the
                lowest-latency link per AS pair is kept.

        Returns:
            A graph whose nodes are AS identifiers and whose edges carry
            ``latency_ms``, ``bandwidth_mbps``, ``relationship`` and
            ``link_id`` attributes.
        """
        import networkx as nx  # here, so that the control plane loads no graph library

        graph: nx.Graph = nx.MultiGraph() if multigraph else nx.Graph()
        graph.add_nodes_from(self.ases)
        for link in self.links.values():
            a, b = link.interface_a[0], link.interface_b[0]
            attrs = {
                "latency_ms": link.latency_ms,
                "bandwidth_mbps": link.bandwidth_mbps,
                "relationship": link.relationship,
                "link_id": link.key,
            }
            if multigraph:
                graph.add_edge(a, b, **attrs)
            else:
                existing = graph.get_edge_data(a, b)
                if existing is None or existing["latency_ms"] > link.latency_ms:
                    graph.add_edge(a, b, **attrs)
        return graph

    def as_ids(self) -> Tuple[int, ...]:
        """Return all AS identifiers in sorted order."""
        return tuple(sorted(self.ases))

    def link_ids(self) -> Tuple[LinkID, ...]:
        """Return all link identifiers in sorted (deterministic) order.

        The dynamic-scenario generators draw failure/churn victims from
        this ordering, so seeded runs are reproducible regardless of the
        links' insertion order.
        """
        return tuple(sorted(self.links))

    def links_between(self, as_a: int, as_b: int) -> Tuple[Link, ...]:
        """Return every (parallel) link connecting two ASes, sorted by id."""
        for as_id in (as_a, as_b):
            if as_id not in self.ases:
                raise UnknownASError(as_id)
        result = [
            link
            for link in self.links.values()
            if {link.interface_a[0], link.interface_b[0]} == {as_a, as_b}
        ]
        return tuple(sorted(result, key=lambda link: link.key))

    def is_connected(self) -> bool:
        """Return whether the AS-level graph is connected."""
        if not self.ases:
            return True
        seen: Set[int] = set()
        frontier = {next(iter(self.ases))}
        while frontier:
            seen |= frontier
            frontier = set().union(*(self._neighbors[as_id] for as_id in frontier)) - seen
        return len(seen) == len(self.ases)

    @property
    def num_ases(self) -> int:
        """Return the number of ASes."""
        return len(self.ases)

    @property
    def num_links(self) -> int:
        """Return the number of inter-domain links."""
        return len(self.links)

    def degree_of(self, as_id: int) -> int:
        """Return the number of inter-domain links attached to ``as_id``."""
        return len(self.links_of(as_id))

    def __iter__(self) -> Iterator[ASInfo]:
        for as_id in sorted(self.ases):
            yield self.ases[as_id]

    def __contains__(self, as_id: int) -> bool:
        return as_id in self.ases

    def summary(self) -> Dict[str, float]:
        """Return a dictionary of headline statistics for reports."""
        degrees = [self.degree_of(a) for a in self.ases] or [0]
        return {
            "ases": float(self.num_ases),
            "links": float(self.num_links),
            "min_degree": float(min(degrees)),
            "max_degree": float(max(degrees)),
            "mean_degree": float(sum(degrees)) / max(1, len(degrees)),
        }


def induced_subtopology(topology: Topology, keep: Iterable[int]) -> Topology:
    """Return the sub-topology induced by the AS set ``keep``.

    Links with at least one endpoint outside ``keep`` are dropped, and so
    are the interfaces that attached them.  The paper's evaluation prunes
    the CAIDA dataset down to the 500 highest-degree ASes with exactly this
    operation.
    """
    keep_set = set(int(a) for a in keep)
    result = Topology()
    retained_links: List[Link] = [
        link
        for link in topology.links.values()
        if link.interface_a[0] in keep_set and link.interface_b[0] in keep_set
    ]
    used_interfaces: Set[InterfaceID] = set()
    for link in retained_links:
        used_interfaces.add(link.interface_a)
        used_interfaces.add(link.interface_b)

    for as_id in sorted(keep_set):
        original = topology.as_info(as_id)
        pruned = ASInfo(as_id=as_id, name=original.name)
        for interface in original:
            if interface.key in used_interfaces:
                pruned.add_interface(interface)
        result.add_as(pruned)
    for link in retained_links:
        result.add_link(link)
    return result

"""The :class:`Topology` container.

A topology owns every AS and every inter-domain link, and offers the query
surface the control plane needs: interface and link lookups, neighbour and
relationship enumeration, and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Set, Tuple

from repro.exceptions import TopologyError, UnknownASError, UnknownLinkError
from repro.topology.entities import (
    ASInfo,
    InterfaceID,
    Link,
    LinkID,
)


@dataclass
class Topology:
    """An inter-domain topology of ASes and links.

    The container is mutable during construction (``add_as`` / ``add_link``)
    and is treated as immutable afterwards by the rest of the library.
    """

    ases: Dict[int, ASInfo] = field(default_factory=dict, init=False)
    links: Dict[LinkID, Link] = field(default_factory=dict, init=False)
    _links_by_interface: Dict[InterfaceID, Link] = field(default_factory=dict, init=False)
    _neighbors: Dict[int, Set[int]] = field(default_factory=dict, init=False)

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

    def link_of_interface(self, interface: InterfaceID) -> Link:
        """Return the link attached to ``interface``."""
        link = self._links_by_interface.get(interface)
        if link is None:
            raise UnknownLinkError(f"no link attached to interface {interface}")
        return link

    def neighbors(self, as_id: int) -> Tuple[int, ...]:
        """Return the sorted identifiers of all neighbouring ASes."""
        if as_id not in self.ases:
            raise UnknownASError(as_id)
        return tuple(sorted(self._neighbors.get(as_id, ())))

    def links_of(self, as_id: int) -> Tuple[Link, ...]:
        """Return all links with one endpoint in ``as_id``."""
        result = []
        for interface in self.as_info(as_id):
            link = self._links_by_interface.get(interface.key)
            if link is not None:
                result.append(link)
        return tuple(result)

    # ------------------------------------------------------------------
    # conversions and statistics
    # ------------------------------------------------------------------
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


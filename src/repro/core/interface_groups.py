"""Interface groups: flexible optimization granularity (paper §IV-D).

SCION PCBs identify path origins at AS granularity, which is too coarse for
end-to-end optimality, while per-interface origination is too expensive.
IREC lets origin ASes partition their interfaces into **interface groups**;
PCBs are originated per group (from every member interface) and carry the
group identifier, and downstream ASes optimize per (origin AS, group).

The paper's simulations build groups geographically: any two interfaces of
the same group are at most 300 km (DOB300) or 2000 km (DOB2000) apart.
:class:`GeographicGroupingPolicy` implements that, and
:class:`SingleGroupPolicy` reproduces the plain AS-granularity behaviour
(every interface in group 0).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.topology.entities import ASInfo
from repro.topology.geo import cluster_by_distance


@dataclass(frozen=True)
class InterfaceGroupAssignment:
    """The group structure of one AS's interfaces.

    Attributes:
        as_id: The AS the assignment belongs to.
        groups: Mapping from group identifier to the member interface ids.
    """

    as_id: int
    groups: Dict[int, Tuple[int, ...]]

    def group_ids(self) -> Tuple[int, ...]:
        """Return all group identifiers, sorted."""
        return tuple(sorted(self.groups))

    def members(self, group_id: int) -> Tuple[int, ...]:
        """Return the member interfaces of ``group_id``."""
        try:
            return self.groups[group_id]
        except KeyError:
            raise ConfigurationError(
                f"AS {self.as_id} has no interface group {group_id}"
            ) from None


class InterfaceGroupingPolicy(abc.ABC):
    """Strategy deciding how an AS partitions its interfaces into groups."""

    @abc.abstractmethod
    def assign(self, as_info: ASInfo) -> InterfaceGroupAssignment:
        """Return the group assignment for ``as_info``."""


@dataclass
class SingleGroupPolicy(InterfaceGroupingPolicy):
    """Every interface in one group — plain per-AS optimization granularity."""

    def assign(self, as_info: ASInfo) -> InterfaceGroupAssignment:
        """Assign all interfaces of ``as_info`` to group 0."""
        return InterfaceGroupAssignment(
            as_id=as_info.as_id, groups={0: tuple(sorted(as_info.interfaces))}
        )


@dataclass
class GeographicGroupingPolicy(InterfaceGroupingPolicy):
    """Group interfaces whose pairwise distance stays within a radius.

    Attributes:
        radius_km: Maximum distance between any two interfaces of a group
            (300 km and 2000 km in the paper's DOB300/DOB2000 experiments).
    """

    radius_km: float = 300.0

    def __post_init__(self) -> None:
        if self.radius_km < 0.0:
            raise ConfigurationError(f"radius must be non-negative, got {self.radius_km}")

    def assign(self, as_info: ASInfo) -> InterfaceGroupAssignment:
        """Cluster the interfaces of ``as_info`` by geographic distance."""
        labelled = [
            (interface.interface_id, interface.location) for interface in as_info
        ]
        clusters: List[List[object]] = cluster_by_distance(labelled, self.radius_km)
        groups = {
            group_id: tuple(sorted(int(member) for member in members))
            for group_id, members in enumerate(clusters)
        }
        return InterfaceGroupAssignment(as_id=as_info.as_id, groups=groups)

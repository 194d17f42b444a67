"""Multipath usage of discovered paths.

The ultimate goal of multi-criteria path optimization is that traffic can
actually *use* the diverse paths (paper §II-C, "Usability").  This module
provides the small data-plane layer that applications such as multipath
transports or fast-failover tunnels need on top of the path service:

* :class:`MultipathSelector` picks a set of maximally link-disjoint paths
  from the registered candidates (greedy, the same heuristic the HD
  algorithm applies control-plane side), and
* :class:`FailoverForwarder` sends packets over the primary path and falls
  back to the next disjoint path when failures (as modelled by
  :class:`~repro.simulation.failures.LinkFailureInjector`) break it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.core.databases import PathService, RegisteredPath
from repro.dataplane.network import DataPlaneNetwork, DeliveryReport
from repro.dataplane.packet import Packet
from repro.dataplane.path import forwarding_path_from_segment
from repro.exceptions import DataPlaneError
from repro.simulation.failures import LinkFailureInjector, LinkState
from repro.topology.entities import LinkID


@dataclass
class MultipathSelector:
    """Select a maximally disjoint subset of the registered paths.

    Attributes:
        path_service: The local AS's path service.
        link_state: Optional live availability; paths crossing a currently
            failed link (or offline AS) are excluded up front.
    """

    path_service: PathService
    link_state: Optional[LinkState] = None

    def disjoint_paths(
        self,
        destination_as: int,
        max_paths: int = 4,
        required_tags: Sequence[str] = (),
        now_ms: Optional[float] = None,
    ) -> List[RegisteredPath]:
        """Return up to ``max_paths`` registered paths with minimal link overlap.

        Candidates are considered in ascending (hop count, latency) order;
        each accepted path adds its links to a covered set and subsequent
        candidates are scored by how many covered links they reuse.
        Passing ``now_ms`` additionally drops paths whose segments have
        expired (a stale path service must not feed dead tunnels to a
        multipath transport).
        """
        candidates = [
            path
            for path in self.path_service.paths_to(destination_as)
            if not required_tags or any(tag in path.criteria_tags for tag in required_tags)
        ]
        if now_ms is not None:
            candidates = [
                path for path in candidates if not path.segment.is_expired(now_ms)
            ]
        if self.link_state is not None and self.link_state.impaired():
            candidates = [
                path
                for path in candidates
                if self.link_state.path_available(path.segment.links())
            ]
        candidates.sort(
            key=lambda path: (path.segment.hop_count, path.segment.total_latency_ms())
        )
        selected: List[RegisteredPath] = []
        covered: Set[LinkID] = set()
        remaining = list(candidates)
        while remaining and len(selected) < max_paths:
            best = min(
                remaining,
                key=lambda path: (
                    sum(1 for link in path.segment.links() if link in covered),
                    path.segment.hop_count,
                    path.segment.total_latency_ms(),
                ),
            )
            remaining.remove(best)
            selected.append(best)
            covered.update(best.segment.links())
        return selected


@dataclass
class FailoverReport:
    """Outcome of a failover-capable delivery attempt."""

    delivered: bool
    attempts: int
    used_path_index: Optional[int]
    delivery: Optional[DeliveryReport]


@dataclass
class FailoverForwarder:
    """Send packets over a disjoint path set with automatic failover.

    Attributes:
        network: The forwarding fabric.
        paths: Ordered candidate paths (primary first).
        failure_injector: Optional failure model consulted before sending;
            paths whose links are known-failed are skipped proactively, and
            deliveries that fail reactively trigger the next path.
    """

    network: DataPlaneNetwork
    paths: Sequence[RegisteredPath]
    failure_injector: Optional[LinkFailureInjector] = None

    def deliver(self, source_host: str = "src", destination_host: str = "dst") -> FailoverReport:
        """Attempt delivery over the path set, failing over as needed."""
        if not self.paths:
            raise DataPlaneError("failover forwarder has no paths to use")
        attempts = 0
        for index, registered in enumerate(self.paths):
            segment = registered.segment
            if self.failure_injector is not None and not self.failure_injector.path_survives(
                segment.links()
            ):
                continue
            attempts += 1
            packet = Packet(
                path=forwarding_path_from_segment(segment),
                source_host=source_host,
                destination_host=destination_host,
            )
            report = self.network.deliver(packet)
            if report.delivered:
                return FailoverReport(
                    delivered=True, attempts=attempts, used_path_index=index, delivery=report
                )
        return FailoverReport(delivered=False, attempts=attempts, used_path_index=None, delivery=None)

    def usable_path_count(self) -> int:
        """Return how many of the paths currently avoid every failed link."""
        if self.failure_injector is None:
            return len(self.paths)
        return sum(
            1 for path in self.paths if self.failure_injector.path_survives(path.segment.links())
        )

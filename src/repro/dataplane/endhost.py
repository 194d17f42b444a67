"""Endpoint path selection.

In a path-aware network the endpoints choose among the paths the control
plane discovered (paper §III): an end host queries its AS's path service
for paths to a destination AS, receives them together with their
performance metadata and criteria tags, and picks the path that best fits
the application at hand.  :class:`EndHost` implements that workflow on top
of the :class:`~repro.core.databases.PathService` and the data-plane types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.criteria import CriteriaSet
from repro.core.databases import PathService, RegisteredPath
from repro.core.query import PathQueryFrontend
from repro.dataplane.packet import Packet
from repro.dataplane.path import forwarding_path_from_segment
from repro.exceptions import DataPlaneError

#: A path-selection policy: maps the candidate registered paths to an
#: ordered list of ``(path, weight)`` pairs — the paths traffic should use
#: and the fraction of demand each should carry (weights need not be
#: normalised).  Concrete policies (latency-greedy, bandwidth-aware, ECMP
#: splitting, criteria-tag pinning) live in :mod:`repro.traffic.selection`.
PathPolicy = Callable[[Sequence[RegisteredPath]], List[Tuple[RegisteredPath, float]]]


@dataclass(frozen=True)
class PathSelectionPreference:
    """How an application wants its paths chosen.

    Attributes:
        criteria_set: Ranking of candidate paths.
        required_tags: If non-empty, only paths registered under at least
            one of these criteria tags are considered (e.g. an application
            may trust only the ``"dob300"`` RAC's paths).
    """

    criteria_set: CriteriaSet
    required_tags: Tuple[str, ...] = ()

    def admissible(self, path: RegisteredPath) -> bool:
        """Return whether ``path`` may be considered at all."""
        if self.required_tags and not any(tag in path.criteria_tags for tag in self.required_tags):
            return False
        return self.criteria_set.admits(path.segment)


@dataclass
class EndHost:
    """An endpoint inside one AS.

    Attributes:
        host_id: Opaque identifier (used in packets and reports).
        as_id: The AS the host lives in.
        path_service: The AS's path service.
        query_frontend: When set, path lookups go through the AS's serving
            tier (:class:`~repro.core.query.PathQueryFrontend`) — cached,
            expiry-aware, invalidated on withdrawal — instead of reaching
            into the path service directly.
    """

    host_id: str
    as_id: int
    path_service: PathService
    query_frontend: Optional[PathQueryFrontend] = None

    def available_paths(self, destination_as: int) -> List[RegisteredPath]:
        """Return every registered path towards ``destination_as``."""
        frontend = self.query_frontend
        if frontend is not None:
            return list(frontend.paths(destination_as))
        return self.path_service.paths_to(destination_as)

    def select_paths(
        self,
        destination_as: int,
        preference: PathSelectionPreference,
        limit: int = 1,
    ) -> List[RegisteredPath]:
        """Return the best ``limit`` paths for an application preference."""
        candidates = [
            path
            for path in self.available_paths(destination_as)
            if preference.admissible(path)
        ]
        ranked = preference.criteria_set.rank([path.segment for path in candidates])
        by_digest = {path.segment.digest(): path for path in candidates}
        ordered = [by_digest[segment.digest()] for segment in ranked if segment.digest() in by_digest]
        return ordered[: max(0, limit)]

    def select_weighted(
        self, destination_as: int, policy: PathPolicy
    ) -> List[Tuple[RegisteredPath, float]]:
        """Apply a :data:`PathPolicy` to the registered paths.

        This is the traffic-engine entry point: unlike
        :meth:`select_paths` (one criteria-ranked path set), a policy can
        split demand over several paths (ECMP-style multipath) by returning
        per-path weights.
        """
        return policy(self.available_paths(destination_as))

    def build_packet(
        self,
        destination_as: int,
        preference: PathSelectionPreference,
        destination_host: str = "dst",
        payload: bytes = b"",
    ) -> Packet:
        """Select the best path and build a packet that follows it.

        Raises:
            DataPlaneError: If no admissible path to the destination exists.
        """
        selected = self.select_paths(destination_as, preference, limit=1)
        if not selected:
            raise DataPlaneError(
                f"host {self.host_id} in AS {self.as_id} has no admissible path "
                f"to AS {destination_as} for criteria {preference.criteria_set.name!r}"
            )
        forwarding_path = forwarding_path_from_segment(selected[0].segment)
        return Packet(
            path=forwarding_path,
            source_host=self.host_id,
            destination_host=destination_host,
            payload=payload,
        )

    def paths_by_tag(self, destination_as: int, tag: str) -> List[RegisteredPath]:
        """Return the paths to ``destination_as`` optimized for criteria ``tag``."""
        return [
            path
            for path in self.available_paths(destination_as)
            if tag in path.criteria_tags
        ]

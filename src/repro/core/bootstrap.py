"""Bootstrapping connectivity (paper §IX, "future work" extension).

A disconnected or newly-joining AS wants connectivity on the order of a
single round trip rather than a full beaconing period.  The paper sketches
two mechanisms, both implemented here:

* **Path pulling from neighbours** — the ingress gateway of the joining AS
  asks the egress gateways of its neighbours for paths they already
  registered; if a neighbour has none, the request recurses one level
  further (:class:`NeighborPathCache` and :func:`bootstrap_paths`).

* **Rapid propagation** — a dedicated RAC that is notified as soon as a new
  PCB arrives and forwards it straight to the egress gateway, without
  waiting for the periodic optimization round.  To keep this scalable the
  RAC forwards at most one (possibly sub-optimal) PCB per origin AS and
  rate-limit interval (:class:`RapidPropagationRAC`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.control_service import IrecControlService
from repro.core.databases import RegisteredPath, StoredBeacon
from repro.core.rac import RACSelection
from repro.exceptions import ConfigurationError
from repro.units import seconds


@dataclass
class RapidPropagationRAC:
    """Forward the first PCB of every origin immediately upon arrival.

    The container is not driven by the periodic round; instead the control
    service (or a test) calls :meth:`on_beacon_arrival` for every freshly
    accepted PCB.  The returned selections can be handed directly to the
    egress gateway's ``propagate``.

    Attributes:
        rac_id: Criteria tag used for the forwarded beacons.
        rate_limit_ms: Minimum simulated time between two rapid forwards for
            the same origin AS (the paper's per-origin guarantee interval).
    """

    rac_id: str = "rapid"
    rate_limit_ms: float = seconds(10)
    _last_forward_ms: Dict[int, float] = field(default_factory=dict)
    forwarded: int = 0
    suppressed: int = 0

    def on_beacon_arrival(
        self,
        stored: StoredBeacon,
        egress_interfaces: Sequence[int],
        now_ms: float,
    ) -> List[RACSelection]:
        """Decide whether to rapid-forward ``stored`` and on which interfaces."""
        origin = stored.beacon.origin_as
        last = self._last_forward_ms.get(origin)
        if last is not None and now_ms - last < self.rate_limit_ms:
            self.suppressed += 1
            return []
        self._last_forward_ms[origin] = now_ms
        self.forwarded += 1
        return [
            RACSelection(
                stored=stored,
                egress_interfaces=list(egress_interfaces),
                criteria_tag=self.rac_id,
            )
        ]

    def reset(self) -> None:
        """Forget the per-origin rate-limit state."""
        self._last_forward_ms.clear()
        self.forwarded = 0
        self.suppressed = 0


@dataclass
class NeighborPathCache:
    """Answer path requests from (re-)connecting neighbours.

    Wraps a control service and serves the registered paths of its path
    service, which is exactly what the paper's recursive path-request
    mechanism queries at each hop.
    """

    service: IrecControlService

    def paths_to(self, origin_as: int, limit: int = 5) -> List[RegisteredPath]:
        """Return up to ``limit`` registered paths towards ``origin_as``."""
        paths = self.service.path_service.paths_to(origin_as)
        paths.sort(key=lambda path: (path.segment.hop_count, path.segment.total_latency_ms()))
        return paths[: max(0, limit)]


def bootstrap_paths(
    joining_service: IrecControlService,
    neighbor_caches: Sequence[NeighborPathCache],
    wanted_origins: Sequence[int],
    max_depth: int = 2,
    limit_per_origin: int = 3,
    cache_resolver: Optional[object] = None,
) -> Dict[int, List[RegisteredPath]]:
    """Collect paths for a joining AS by querying neighbours recursively.

    The joining AS first asks its direct neighbours; for origins that remain
    unresolved, the request recurses to the neighbours' neighbours (the
    paper's "the process continues recursively"), up to ``max_depth``
    levels.

    Args:
        joining_service: Control service of the (re-)connecting AS; only
            used to exclude its own AS from the requested origins.
        neighbor_caches: Caches of the directly connected neighbours.
        wanted_origins: Origin ASes the joining AS wants paths towards.
        max_depth: How many levels of neighbours to query (1 = direct
            neighbours only).
        limit_per_origin: Maximum number of paths collected per origin.
        cache_resolver: Callable ``(as_id) -> Sequence[NeighborPathCache]``
            returning the caches of that AS's own neighbours; required only
            when ``max_depth`` is greater than one.

    Returns:
        Mapping from origin AS to the collected registered paths (possibly
        empty when no queried neighbour knows the origin).
    """
    if max_depth < 1:
        raise ConfigurationError(f"max_depth must be at least 1, got {max_depth}")

    result: Dict[int, List[RegisteredPath]] = {
        origin: [] for origin in wanted_origins if origin != joining_service.as_id
    }
    visited: Set[int] = {joining_service.as_id}
    frontier: List[NeighborPathCache] = list(neighbor_caches)

    def unresolved() -> List[int]:
        return [origin for origin, paths in result.items() if len(paths) < limit_per_origin]

    for depth in range(max_depth):
        pending = unresolved()
        if not pending or not frontier:
            break
        next_frontier: List[NeighborPathCache] = []
        for cache in frontier:
            if cache.service.as_id in visited:
                continue
            visited.add(cache.service.as_id)
            for origin in pending:
                collected = result[origin]
                if len(collected) >= limit_per_origin:
                    continue
                digests = {p.segment.digest() for p in collected}
                for path in cache.paths_to(origin, limit=limit_per_origin):
                    if len(collected) >= limit_per_origin:
                        break
                    if path.segment.digest() not in digests:
                        collected.append(path)
                        digests.add(path.segment.digest())
            if depth + 1 < max_depth and cache_resolver is not None:
                next_frontier.extend(cache_resolver(cache.service.as_id))
        frontier = next_frontier
    return result


@dataclass
class BootstrapReport:
    """Summary of a bootstrap attempt (used by tests and examples)."""

    origins_requested: int
    origins_resolved: int
    paths_collected: int

    @property
    def coverage(self) -> float:
        """Return the fraction of requested origins with at least one path."""
        if self.origins_requested == 0:
            return 1.0
        return self.origins_resolved / self.origins_requested


def summarize_bootstrap(paths_by_origin: Dict[int, List[RegisteredPath]]) -> BootstrapReport:
    """Summarize the output of :func:`bootstrap_paths`."""
    resolved = sum(1 for paths in paths_by_origin.values() if paths)
    total = sum(len(paths) for paths in paths_by_origin.values())
    return BootstrapReport(
        origins_requested=len(paths_by_origin),
        origins_resolved=resolved,
        paths_collected=total,
    )

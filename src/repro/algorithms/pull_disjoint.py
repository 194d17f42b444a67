"""The link-avoiding algorithm behind pull-based disjointness (PD).

The paper's PD procedure (§VIII-B) lets an AS iteratively build a set of
link-disjoint paths to a target AS: starting from paths already discovered
by other algorithms (HD in the paper's setup), the AS originates
**on-demand, pull-based** PCBs whose embedded algorithm avoids propagating
over any link that already appears in the collected path set.  The target
AS returns the beacons that reach it; the origin adds the first returned
beacon of the iteration to its set and starts the next iteration with an
enlarged avoid set, until it holds the desired number of disjoint paths.

Two pieces implement this in the library:

* :class:`LinkAvoidingAlgorithm` (this module) — the algorithm carried in
  the PCBs and executed by every on-path on-demand RAC: it drops candidates
  that traverse a forbidden link and otherwise selects the shortest ones,
  and
* :class:`~repro.core.pull.PullBasedDisjointnessOrchestrator` — the
  origin-side iteration loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
    select_per_interface,
)
from repro.algorithms.shortest_path import hops_then_latency
from repro.exceptions import AlgorithmError
from repro.topology.entities import InterfaceID, LinkID, normalize_link_id


def freeze_links(links: Sequence[Tuple[InterfaceID, InterfaceID]]) -> FrozenSet[LinkID]:
    """Normalise and freeze a collection of links into an avoid set."""
    return frozenset(normalize_link_id(a, b) for a, b in links)


@dataclass
class LinkAvoidingAlgorithm(RoutingAlgorithm):
    """Select shortest beacons that do not traverse any forbidden link.

    The avoid set can be provided at construction time (when instantiated
    locally) or through the execution context's ``parameters["avoid_links"]``
    entry (when the algorithm is reconstructed from an on-demand payload);
    the union of both applies.

    Attributes:
        avoid_links: Links that selected beacons must not traverse.
        paths_per_interface: Number of beacons per egress interface.
    """

    avoid_links: FrozenSet[LinkID] = field(default_factory=frozenset)
    paths_per_interface: int = 1
    name: str = "link-avoiding"

    def __post_init__(self) -> None:
        if self.paths_per_interface < 1:
            raise AlgorithmError(
                f"paths_per_interface must be at least 1, got {self.paths_per_interface}"
            )
        self.avoid_links = frozenset(normalize_link_id(a, b) for a, b in self.avoid_links)

    def execute(self, context: ExecutionContext) -> ExecutionResult:
        """Return the shortest avoid-set-compliant beacons per egress interface."""
        extra = context.parameters.get("avoid_links", ())
        forbidden = self.avoid_links | frozenset(
            normalize_link_id(tuple(a), tuple(b)) for a, b in extra
        )

        def key(candidate: CandidateBeacon) -> Optional[Tuple[float, float]]:
            if not forbidden.isdisjoint(candidate.beacon.links()):
                return None
            return hops_then_latency(candidate)

        return select_per_interface(context, self.paths_per_interface, key)

    def describe(self) -> str:
        return (
            f"shortest paths avoiding {len(self.avoid_links)} links, "
            f"{self.paths_per_interface} per interface"
        )

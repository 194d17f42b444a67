"""End-host path selection: the one place an end host chooses paths.

The control plane registers *sets* of paths per destination, tagged by the
criteria that selected them (paper §V-D); what traffic actually flows over
depends on how end hosts choose.  A selection policy is one callable, a
:data:`PathPolicy`: the registered candidates in, the chosen paths and
their shares of the demand out.  The traffic engine applies it to the
paths its AS's query frontend serves:

* :class:`LatencyGreedyPolicy` — all demand on the lowest-latency path,
* :class:`CriteriaPolicy` — all demand on the best path a
  :class:`~repro.core.criteria.CriteriaSet` admits (an application's
  criteria, paper Fig. 1),
* :class:`EcmpPolicy` — split demand equally over the ``k`` lowest-latency
  paths (multipath transports),
* :class:`DisjointPolicy` — split demand equally over a greedily chosen,
  maximally link-disjoint path set (paper §II-C, *Usability*: a backup
  that shares no link with the primary survives its failure).

Every policy is deterministic: candidates are ranked by a stable
metric key whose ties fall to the digest or to the candidates' order, so
two runs over the same path service pick the same paths in the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Set, Tuple

from repro.core.criteria import CriteriaSet
from repro.core.databases import RegisteredPath
from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID

#: One policy decision: the chosen path and its share of the demand.
WeightedPath = Tuple[RegisteredPath, float]

#: A path-selection policy: maps the candidate registered paths to an
#: ordered list of ``(path, weight)`` pairs — the paths traffic should use
#: and the fraction of demand each should carry (weights need not be
#: normalised).
PathPolicy = Callable[[Sequence[RegisteredPath]], List[WeightedPath]]


def _by_latency(path: RegisteredPath) -> Tuple[float, int, str]:
    segment = path.segment
    return (segment.total_latency_ms(), segment.hop_count, segment.digest())


@dataclass(frozen=True)
class LatencyGreedyPolicy:
    """Send everything over the single lowest-latency path."""

    def __call__(self, candidates: Sequence[RegisteredPath]) -> List[WeightedPath]:
        if not candidates:
            return []
        best = min(candidates, key=_by_latency)
        return [(best, 1.0)]


@dataclass(frozen=True)
class CriteriaPolicy:
    """Send everything over the best path an application's criteria admit.

    Attributes:
        criteria_set: Picks the best of the candidates' segments
            (:meth:`~repro.core.criteria.CriteriaSet.best`, the head of its
            ranking); its hard constraints rule paths out.  Ties keep the
            candidates' order.
    """

    criteria_set: CriteriaSet

    def __call__(self, candidates: Sequence[RegisteredPath]) -> List[WeightedPath]:
        best = self.criteria_set.best([path.segment for path in candidates])
        if best is None:
            return []
        return [(next(path for path in candidates if path.segment is best), 1.0)]


@dataclass(frozen=True)
class EcmpPolicy:
    """Split demand equally over the ``max_paths`` lowest-latency paths (multipath).

    Attributes:
        max_paths: Upper bound on simultaneously used paths.
    """

    max_paths: int = 2

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ConfigurationError(f"max_paths must be positive, got {self.max_paths}")

    def __call__(self, candidates: Sequence[RegisteredPath]) -> List[WeightedPath]:
        if not candidates:
            return []
        chosen = sorted(candidates, key=_by_latency)[: self.max_paths]
        share = 1.0 / len(chosen)
        return [(path, share) for path in chosen]


@dataclass(frozen=True)
class DisjointPolicy:
    """Split demand equally over up to ``max_paths`` maximally disjoint paths.

    Greedy, the heuristic the HD algorithm applies control-plane side:
    candidates are considered in ascending (hop count, latency) order, and
    each pick is the candidate reusing the fewest links of the paths
    already picked.  The first pick is the primary.

    Attributes:
        max_paths: Upper bound on simultaneously used paths.
    """

    max_paths: int = 4

    def __post_init__(self) -> None:
        if self.max_paths < 1:
            raise ConfigurationError(f"max_paths must be positive, got {self.max_paths}")

    def __call__(self, candidates: Sequence[RegisteredPath]) -> List[WeightedPath]:
        remaining = sorted(
            candidates,
            key=lambda path: (path.segment.hop_count, path.segment.total_latency_ms()),
        )
        chosen: List[RegisteredPath] = []
        covered: Set[LinkID] = set()
        while remaining and len(chosen) < self.max_paths:
            best = min(
                remaining,
                key=lambda path: (
                    sum(1 for link in path.segment.links() if link in covered),
                    path.segment.hop_count,
                    path.segment.total_latency_ms(),
                ),
            )
            remaining.remove(best)
            chosen.append(best)
            covered.update(best.segment.links())
        return [(path, 1.0 / len(chosen)) for path in chosen]


def prefer_clean(
    candidates: Sequence[RegisteredPath],
    loss_of,
    threshold: float,
) -> List[RegisteredPath]:
    """Prefer paths whose observed silent loss stays under ``threshold``.

    The closed-loop demand filter: ``loss_of(path)`` is the end host's
    loss estimate for one candidate (see
    :meth:`repro.simulation.failures.LinkState.silent_loss`).  Candidates
    at or under the threshold win; when *every* candidate is lossy the
    full set is returned unchanged — a degraded path still beats sending
    nothing, the back-off happens on the demand side instead.
    """
    clean = [path for path in candidates if loss_of(path) <= threshold]
    return clean if clean else list(candidates)

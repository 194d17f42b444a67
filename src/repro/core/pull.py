"""Pull-based routing and the pull-based disjointness (PD) orchestration.

Pull-based routing (paper §IV-B) reverses the direction of path discovery:
the *source* of data traffic originates PCBs that name a target AS; the
PCBs propagate through the network like ordinary beacons until they reach
the target, which terminates them and returns them to the origin.

Its flagship use in the paper is the **pull-based disjointness (PD)**
procedure (§VIII-B): an AS iteratively grows a set of link-disjoint paths
to a target by repeatedly originating pull-based, on-demand PCBs whose
embedded algorithm avoids every link already present in the collected set;
each iteration contributes the first beacon returned by the target.
:class:`PullBasedDisjointnessOrchestrator` implements that loop on top of a
control service; the per-hop algorithm itself is
:class:`~repro.algorithms.pull_disjoint.LinkAvoidingAlgorithm`.  Every
iteration originates on all of the origin's interfaces and waits until the
target returns a disjoint beacon; at most :data:`MAX_ITERATIONS` run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.algorithms.registry import encode_link_avoiding_payload
from repro.core.beacon import Beacon
from repro.core.control_service import IrecControlService
from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID

#: Safety bound on the number of PD iterations one orchestrator runs.
MAX_ITERATIONS = 64


class PullState(enum.Enum):
    """Lifecycle of a pull-based disjointness run."""

    IDLE = "idle"
    WAITING = "waiting"
    DONE = "done"
    EXHAUSTED = "exhausted"


@dataclass
class PullIteration:
    """Bookkeeping of one PD iteration."""

    index: int
    algorithm_id: str
    avoid_links: Tuple[LinkID, ...]
    accepted_beacon: Optional[Beacon] = field(default=None, init=False)


@dataclass
class PullBasedDisjointnessOrchestrator:
    """Origin-side loop of the PD procedure.

    The orchestrator is driven externally: after each beaconing period the
    simulation (or the application) calls :meth:`advance`, which inspects
    the control service's returned pull beacons, closes the current
    iteration if one of them satisfies the avoid set, and starts the next
    iteration until :attr:`desired_paths` disjoint paths have been collected
    or :data:`MAX_ITERATIONS` iterations have run.

    Attributes:
        service: The origin AS's control service.
        target_as: The AS to which disjoint paths are sought.
        desired_paths: Number of link-disjoint paths to collect (20 in the
            paper's setup).
    """

    service: IrecControlService
    target_as: int
    desired_paths: int = 20

    state: PullState = field(default=PullState.IDLE, init=False)
    collected: List[Beacon] = field(default_factory=list, init=False)
    iterations: List[PullIteration] = field(default_factory=list, init=False)
    _used_links: Set[LinkID] = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        if self.desired_paths < 1:
            raise ConfigurationError(f"desired_paths must be positive, got {self.desired_paths}")
        if self.target_as == self.service.as_id:
            raise ConfigurationError("the target AS must differ from the origin AS")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, now_ms: float) -> None:
        """Originate the first iteration."""
        self._begin_iteration(now_ms)

    def advance(self, now_ms: float) -> PullState:
        """Check for returned beacons and, if possible, start the next iteration.

        Returns:
            The orchestrator's state after processing.
        """
        if self.state is not PullState.WAITING:
            return self.state

        current = self.iterations[-1]
        returned = self.service.pull_results_for(algorithm_id=current.algorithm_id)
        for beacon, _received_at in returned:
            if current.accepted_beacon is not None:
                break
            if self._is_disjoint(beacon):
                current.accepted_beacon = beacon
                self._accept(beacon)

        if current.accepted_beacon is None:
            # Nothing usable yet; keep waiting (the caller decides when to
            # give up by inspecting the iteration count and timestamps).
            return self.state

        if len(self.collected) >= self.desired_paths:
            self.state = PullState.DONE
        elif len(self.iterations) >= MAX_ITERATIONS:
            self.state = PullState.EXHAUSTED
        else:
            self._begin_iteration(now_ms)
        return self.state

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _begin_iteration(self, now_ms: float) -> None:
        index = len(self.iterations)
        algorithm_id = f"pd-{self.service.as_id}-{self.target_as}-{index}"
        avoid = tuple(sorted(self._used_links))
        payload = encode_link_avoiding_payload(avoid, paths_per_interface=1)
        self.service.publish_algorithm(algorithm_id, payload)
        self.service.originate_pull(
            target_as=self.target_as, now_ms=now_ms, algorithm_id=algorithm_id
        )
        self.iterations.append(
            PullIteration(
                index=index,
                algorithm_id=algorithm_id,
                avoid_links=avoid,
            )
        )
        self.state = PullState.WAITING

    def _is_disjoint(self, beacon: Beacon) -> bool:
        return not any(link in self._used_links for link in beacon.links())

    def _accept(self, beacon: Beacon) -> None:
        self.collected.append(beacon)
        self._used_links.update(beacon.links())

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def disjoint_path_count(self) -> int:
        """Return the number of collected paths."""
        return len(self.collected)

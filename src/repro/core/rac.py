"""Routing algorithm containers (RACs, paper §V-C).

A RAC provides the execution environment for one routing algorithm.  In a
typically periodic pattern it requests candidate PCBs from the ingress
gateway (bucketed by origin AS and, when enabled, interface group and
target AS), hands them — together with intra-AS topology information — to
its algorithm, and forwards the per-egress-interface optimal sets to the
egress gateway.

Two RAC types exist:

* **static RACs** always run the algorithm configured by their AS, and
* **on-demand RACs** run the algorithm referenced in the PCBs of the bucket
  they are processing: they fetch the payload from the origin AS (caching
  it), verify its hash against the PCB extension and execute it inside a
  sandbox with strict resource limits.

Every execution is instrumented: the container records sandbox-setup, IPC
and algorithm-execution time separately, which is exactly the decomposition
Figure 6 reports.

One round is linear in the ingress database.  A single pass over the
sorted bucket keys groups them into jobs (one bucket each, or every
interface group of one origin/target/algorithm when groups are merged);
a job's candidates are the database's own records, fetched once per
bucket.  A job costs its algorithm plus a constant: one loop runs every
job with the round's constants bound once, and each job still pays one
sandbox setup, one marshalling, one execution and one transfer, so the
decomposition above is per job.  The result is merged in O(selections):
a returned beacon is looked up by digest in the database, where its
bucket must be one of the job's — a beacon that is not among the job's
candidates fails the job — and an interface is appended to its selection
unless it is already the last one there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.core.beacon import Beacon
from repro.core.databases import BucketKey, IngressDatabase, bucket_of
from repro.core.ipc import IPCChannel
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.sandbox import SandboxRuntime
from repro.exceptions import AlgorithmError, RACError, SandboxError
import time


#: The maximally allowed size of the optimal set a RAC returns per egress
#: interface (20 in the paper's simulations).
MAX_PATHS_PER_INTERFACE = 20


@dataclass(frozen=True)
class RACConfig:
    """Configuration of one RAC.

    Attributes:
        rac_id: Identifier of the container (also used as the criteria tag
            when registering paths).
        use_interface_groups: Whether candidate buckets are split per
            interface group (§IV-D); when disabled, groups are merged.
    """

    rac_id: str
    use_interface_groups: bool = True

    def __post_init__(self) -> None:
        if not self.rac_id:
            raise RACError("rac_id must be non-empty")


@dataclass(slots=True)
class RACSelection:
    """One beacon selected by a RAC, with the interfaces it is optimal for.

    ``criteria_tags`` is the selecting RAC's own ``(rac_id,)`` tuple, the
    same object for every selection of the RAC, and the registered path
    holds it as it is.
    """

    stored: CandidateBeacon
    egress_interfaces: List[int]
    criteria_tags: Tuple[str, ...]

    @property
    def beacon(self) -> Beacon:
        """Return the underlying beacon."""
        return self.stored.beacon


@dataclass
class RACExecutionReport:
    """Timing and volume report of one RAC processing round (Figure 6/7)."""

    rac_id: str
    buckets: int = field(default=0, init=False)
    candidates: int = field(default=0, init=False)
    selections: int = field(default=0, init=False)
    setup_ms: float = field(default=0.0, init=False)
    ipc_ms: float = field(default=0.0, init=False)
    execution_ms: float = field(default=0.0, init=False)
    failed_buckets: int = field(default=0, init=False)

    @property
    def total_ms(self) -> float:
        """Return the total processing latency of the round."""
        return self.setup_ms + self.ipc_ms + self.execution_ms


@dataclass
class RoutingAlgorithmContainer:
    """The RAC itself.

    A container is given exactly one of ``algorithm`` and
    ``on_demand_manager``, and is on-demand exactly when it has the latter.

    Attributes:
        config: Static configuration.
        algorithm: The algorithm of a static RAC.
        on_demand_manager: Fetches, verifies and decodes the payloads an
            on-demand RAC runs.
        sandbox: Sandbox runtime used to prepare algorithm executions.
        ipc: Gateway ↔ RAC channel model.
        criteria_tags: ``(config.rac_id,)``, built once: the criteria tags
            of every selection the RAC makes.
    """

    config: RACConfig
    algorithm: Optional[RoutingAlgorithm] = None
    on_demand_manager: Optional[OnDemandAlgorithmManager] = None
    sandbox: SandboxRuntime = field(default_factory=SandboxRuntime)
    ipc: IPCChannel = field(default_factory=IPCChannel)
    criteria_tags: Tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.algorithm is None) == (self.on_demand_manager is None):
            raise RACError(
                f"RAC {self.config.rac_id} needs exactly one of an algorithm "
                "and an on-demand manager"
            )
        self.criteria_tags = (self.config.rac_id,)

    # ------------------------------------------------------------------
    # bucket handling
    # ------------------------------------------------------------------
    def _jobs(self, bucket_keys: Sequence[BucketKey]) -> List[List[BucketKey]]:
        """Group the sorted bucket keys into this RAC's jobs, in one pass.

        A job is what one execution reads: one bucket, or — with interface
        groups merged — every bucket of one (origin, target, algorithm), in
        key order.  Buckets of the other RAC type belong to no job.
        """
        on_demand = self.on_demand_manager is not None
        if self.config.use_interface_groups:
            return [[key] for key in bucket_keys if on_demand == (key[3] is not None)]
        jobs: Dict[Tuple, List[BucketKey]] = {}
        for key in bucket_keys:
            origin, _group, target, algorithm_id = key
            if on_demand == (algorithm_id is not None):
                jobs.setdefault((origin, target, algorithm_id), []).append(key)
        return list(jobs.values())

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def process(
        self,
        database: IngressDatabase,
        egress_interfaces: Tuple[int, ...],
        intra_latency_ms,
        local_as: int,
    ) -> Tuple[List[RACSelection], RACExecutionReport]:
        """Run the RAC over every relevant bucket of the ingress database.

        Each job gets one sandbox setup, one marshalling of its candidates,
        one execution and one transfer of its result, each through the
        instance attribute a tracer may wrap; the round's counts and times
        are summed locally and stored on the report at the end.

        Returns:
            The selections to hand to the egress gateway, and the timing
            report of the round.
        """
        fetch = database.beacons_in_bucket
        setup = self.sandbox.setup
        marshal = self.ipc.marshal_beacons
        transfer = self.ipc.transfer_results
        static = self.algorithm
        interfaces = tuple(egress_interfaces)
        clock = time.perf_counter
        selections: List[RACSelection] = []
        buckets = failed = candidate_count = 0
        setup_ms = ipc_ms = execution_ms = 0.0
        for job in self._jobs(database.bucket_keys()):
            candidates = tuple(chain.from_iterable(map(fetch, job)))
            try:
                algorithm = static if static is not None else self._resolve_algorithm(candidates)
                prepared, elapsed_ms = setup(algorithm)
                setup_ms += elapsed_ms
                candidate_count += len(candidates)
                _wire, elapsed_ms = marshal([candidate.beacon for candidate in candidates])
                ipc_ms += elapsed_ms
                context = ExecutionContext(
                    local_as, candidates, interfaces, MAX_PATHS_PER_INTERFACE, intra_latency_ms
                )
                start = clock()
                result = prepared.execute(context)
                execution_ms += (clock() - start) * 1000.0
                ipc_ms += transfer(result.selections)
                merged = self._merge_result(database, job, result, prepared)
            except (AlgorithmError, SandboxError):
                failed += 1
                continue
            selections += merged
            buckets += 1
        report = RACExecutionReport(rac_id=self.config.rac_id)
        report.buckets = buckets
        report.failed_buckets = failed
        report.candidates = candidate_count
        report.selections = sum(len(selection.egress_interfaces) for selection in selections)
        report.setup_ms = setup_ms
        report.ipc_ms = ipc_ms
        report.execution_ms = execution_ms
        return selections, report

    def _resolve_algorithm(self, candidates: Tuple[CandidateBeacon, ...]) -> RoutingAlgorithm:
        """Return the payload algorithm an on-demand job runs."""
        assert self.on_demand_manager is not None  # enforced in __post_init__
        reference_beacon = candidates[0].beacon
        if reference_beacon.extensions.algorithm is None:
            raise AlgorithmError("on-demand bucket contains a beacon without algorithm extension")
        return self.on_demand_manager.resolve(reference_beacon)

    def _merge_result(
        self,
        database: IngressDatabase,
        job: List[BucketKey],
        result: ExecutionResult,
        algorithm: RoutingAlgorithm,
    ) -> Iterable[RACSelection]:
        """Convert an execution result into per-beacon selections."""
        merged: Dict[str, RACSelection] = {}
        tags = self.criteria_tags
        for egress_interface, beacons in result.selections.items():
            for beacon in beacons:
                digest = beacon.digest()
                selection = merged.get(digest)
                if selection is None:
                    stored = database.get(digest)
                    if stored is None or bucket_of(stored.beacon) not in job:
                        # The algorithm fabricated a beacon that was not among
                        # the job's candidates; refuse to propagate it.
                        raise AlgorithmError(
                            f"algorithm {algorithm.name} returned an unknown beacon"
                        )
                    merged[digest] = RACSelection(stored, [egress_interface], tags)
                elif selection.egress_interfaces[-1] != egress_interface:
                    # Interfaces arrive grouped, so a repeat can only be the last one.
                    selection.egress_interfaces.append(egress_interface)
        return merged.values()

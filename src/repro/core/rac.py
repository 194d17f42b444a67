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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.algorithms.base import (
    CandidateBeacon,
    ExecutionContext,
    ExecutionResult,
    RoutingAlgorithm,
)
from repro.core.beacon import Beacon
from repro.core.databases import BucketKey, IngressDatabase, StoredBeacon
from repro.core.ipc import IPCChannel
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.sandbox import SandboxRuntime
from repro.exceptions import AlgorithmError, RACError, SandboxError
import time


@dataclass(frozen=True)
class RACConfig:
    """Configuration of one RAC.

    Attributes:
        rac_id: Identifier of the container (also used as the criteria tag
            when registering paths).
        on_demand: Whether this container runs on-demand algorithms.
        max_paths_per_interface: The maximally allowed size of the optimal
            set returned per egress interface.
        registration_limit: How many of the selected beacons (per origin AS
            and interface group) are registered at the path service.
        use_interface_groups: Whether candidate buckets are split per
            interface group (§IV-D); when disabled, groups are merged.
        use_targets: Whether pull-based buckets (with a target extension)
            are processed; static RACs without pull support skip them.
    """

    rac_id: str
    on_demand: bool = False
    max_paths_per_interface: int = 20
    registration_limit: int = 20
    use_interface_groups: bool = True
    use_targets: bool = True

    def __post_init__(self) -> None:
        if not self.rac_id:
            raise RACError("rac_id must be non-empty")
        if self.max_paths_per_interface < 1:
            raise RACError(
                f"max_paths_per_interface must be positive, got {self.max_paths_per_interface}"
            )
        if self.registration_limit < 0:
            raise RACError(
                f"registration_limit must be non-negative, got {self.registration_limit}"
            )


@dataclass(slots=True)
class RACSelection:
    """One beacon selected by a RAC, with the interfaces it is optimal for."""

    stored: StoredBeacon
    egress_interfaces: List[int]
    criteria_tag: str

    @property
    def beacon(self) -> Beacon:
        """Return the underlying beacon."""
        return self.stored.beacon


@dataclass
class RACExecutionReport:
    """Timing and volume report of one RAC processing round (Figure 6/7)."""

    rac_id: str
    buckets: int = 0
    candidates: int = 0
    selections: int = 0
    setup_ms: float = 0.0
    ipc_ms: float = 0.0
    execution_ms: float = 0.0
    skipped_buckets: int = 0
    failed_buckets: int = 0

    @property
    def total_ms(self) -> float:
        """Return the total processing latency of the round."""
        return self.setup_ms + self.ipc_ms + self.execution_ms

    def throughput_pcbs_per_second(self) -> float:
        """Return the candidate-processing throughput of the round."""
        if self.total_ms <= 0.0:
            return 0.0
        return self.candidates / (self.total_ms / 1000.0)


@dataclass
class RoutingAlgorithmContainer:
    """The RAC itself.

    Attributes:
        config: Static configuration.
        algorithm: The algorithm of a static RAC; must be ``None`` for
            on-demand RACs.
        on_demand_manager: Fetches, verifies and decodes on-demand payloads;
            required when :attr:`RACConfig.on_demand` is set.
        sandbox: Sandbox runtime used to prepare algorithm executions.
        ipc: Gateway ↔ RAC channel model.
    """

    config: RACConfig
    algorithm: Optional[RoutingAlgorithm] = None
    on_demand_manager: Optional[OnDemandAlgorithmManager] = None
    sandbox: SandboxRuntime = field(default_factory=SandboxRuntime)
    ipc: IPCChannel = field(default_factory=IPCChannel)

    def __post_init__(self) -> None:
        if self.config.on_demand:
            if self.on_demand_manager is None:
                raise RACError(f"on-demand RAC {self.config.rac_id} needs an algorithm manager")
        elif self.algorithm is None:
            raise RACError(f"static RAC {self.config.rac_id} needs an algorithm")

    # ------------------------------------------------------------------
    # bucket handling
    # ------------------------------------------------------------------
    def relevant_buckets(self, database: IngressDatabase) -> List[BucketKey]:
        """Return the ingress-database buckets this RAC is responsible for."""
        buckets = []
        for bucket in database.bucket_keys():
            _origin, _group, target, algorithm_id = bucket
            if self.config.on_demand != (algorithm_id is not None):
                continue
            if target is not None and not self.config.use_targets:
                continue
            buckets.append(bucket)
        if self.config.use_interface_groups:
            return buckets
        # Merge buckets that differ only in the interface group.
        merged: Dict[Tuple, BucketKey] = {}
        for bucket in buckets:
            origin, _group, target, algorithm_id = bucket
            merged.setdefault((origin, target, algorithm_id), bucket)
        return list(merged.values())

    def candidates_for(
        self, database: IngressDatabase, bucket: BucketKey
    ) -> List[StoredBeacon]:
        """Return the stored beacons of ``bucket`` (group-merged if configured)."""
        if self.config.use_interface_groups:
            return database.beacons_in_bucket(bucket)
        origin, _group, target, algorithm_id = bucket
        result = []
        for other in database.bucket_keys():
            if (other[0], other[2], other[3]) == (origin, target, algorithm_id):
                result.extend(database.beacons_in_bucket(other))
        return result

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

        Returns:
            The selections to hand to the egress gateway, and the timing
            report of the round.
        """
        report = RACExecutionReport(rac_id=self.config.rac_id)
        selections: List[RACSelection] = []
        for bucket in self.relevant_buckets(database):
            stored_beacons = self.candidates_for(database, bucket)
            if not stored_beacons:
                continue
            try:
                bucket_selections = self._process_bucket(
                    stored_beacons, egress_interfaces, intra_latency_ms, local_as, report
                )
            except (AlgorithmError, SandboxError):
                report.failed_buckets += 1
                continue
            selections.extend(bucket_selections)
            report.buckets += 1
        report.selections = sum(len(s.egress_interfaces) for s in selections)
        return selections, report

    def _process_bucket(
        self,
        stored_beacons: List[StoredBeacon],
        egress_interfaces: Tuple[int, ...],
        intra_latency_ms,
        local_as: int,
        report: RACExecutionReport,
    ) -> List[RACSelection]:
        """Process one candidate bucket end to end."""
        algorithm = self._resolve_algorithm(stored_beacons)
        prepared, setup_ms = self.sandbox.setup(algorithm)
        report.setup_ms += setup_ms

        candidates = tuple(
            CandidateBeacon(
                beacon=stored.beacon, ingress_interface=stored.received_on_interface
            )
            for stored in stored_beacons
        )
        report.candidates += len(candidates)
        _wire, marshal_ms = self.ipc.marshal_beacons([c.beacon for c in candidates])
        report.ipc_ms += marshal_ms

        context = ExecutionContext(
            local_as=local_as,
            candidates=candidates,
            egress_interfaces=tuple(egress_interfaces),
            max_paths_per_interface=self.config.max_paths_per_interface,
            intra_latency_ms=intra_latency_ms,
        )
        start = time.perf_counter()
        result = prepared.execute(context)
        report.execution_ms += (time.perf_counter() - start) * 1000.0

        flat = [
            (interface, beacon)
            for interface, beacons in result.selections.items()
            for beacon in beacons
        ]
        report.ipc_ms += self.ipc.transfer_results(flat)
        return self._merge_result(stored_beacons, result, prepared)

    def _resolve_algorithm(self, stored_beacons: List[StoredBeacon]) -> RoutingAlgorithm:
        """Return the algorithm to run for this bucket."""
        if not self.config.on_demand:
            assert self.algorithm is not None  # enforced in __post_init__
            return self.algorithm
        assert self.on_demand_manager is not None  # enforced in __post_init__
        reference_beacon = stored_beacons[0].beacon
        if reference_beacon.extensions.algorithm is None:
            raise AlgorithmError("on-demand bucket contains a beacon without algorithm extension")
        return self.on_demand_manager.resolve(reference_beacon)

    def _merge_result(
        self,
        stored_beacons: List[StoredBeacon],
        result: ExecutionResult,
        algorithm: RoutingAlgorithm,
    ) -> List[RACSelection]:
        """Convert an execution result into per-beacon selections."""
        by_digest: Dict[str, StoredBeacon] = {
            stored.beacon.digest(): stored for stored in stored_beacons
        }
        merged: Dict[str, RACSelection] = {}
        for egress_interface, beacons in result.selections.items():
            for beacon in beacons:
                digest = beacon.digest()
                stored = by_digest.get(digest)
                if stored is None:
                    # The algorithm fabricated a beacon that was not among
                    # the candidates; refuse to propagate it.
                    raise AlgorithmError(
                        f"algorithm {algorithm.name} returned an unknown beacon"
                    )
                selection = merged.get(digest)
                if selection is None:
                    selection = RACSelection(
                        stored=stored, egress_interfaces=[], criteria_tag=self.config.rac_id
                    )
                    merged[digest] = selection
                if egress_interface not in selection.egress_interfaces:
                    selection.egress_interfaces.append(egress_interface)
        return list(merged.values())

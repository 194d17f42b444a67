"""The legacy SCION control service.

The legacy control service is the baseline of the paper's micro-benchmarks
(Figures 6 and 7) and of the backward-compatibility experiment (§VII-B):
a single process that receives PCBs, stores them, periodically selects the
20 shortest paths per origin AS, extends and propagates them on every
interface, and registers them at the path service.  There is no sandbox,
no gateway ↔ RAC IPC and no per-criteria optimization, which is exactly
why its per-candidate-set processing latency is much lower than an
on-demand RAC's for small candidate sets.

Everything an AS *speaks* — message dispatch, beacon admission, the
revocation flood, path queries — is inherited from
:class:`repro.core.control_service.ControlService`, the base the IREC
service shares, so simulations can mix legacy and IREC ASes freely; this
module holds only what is legacy: the selection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.algorithms.base import CandidateBeacon, ExecutionContext
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.beacon import Beacon, DEFAULT_VALIDITY_MS
from repro.core.control_service import ControlService, ControlServiceConfig
from repro.core.databases import EgressDatabase, RegisteredPath, StoredBeacon
from repro.core.local_view import LocalTopologyView
from repro.core.messages import PCBMessage
from repro.core.revocation import DEFAULT_DEDUP_WINDOW_MS
from repro.core.transport import ControlPlaneTransport
from repro.crypto.keys import KeyStore


@dataclass
class LegacyProcessingReport:
    """Timing report of one legacy processing round (Figure 6 baseline)."""

    candidates: int = 0
    selections: int = 0
    execution_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """Return the total processing latency (no setup or IPC stages exist)."""
        return self.execution_ms

    def throughput_pcbs_per_second(self) -> float:
        """Return the candidate-processing throughput of the round."""
        if self.execution_ms <= 0.0:
            return 0.0
        return self.candidates / (self.execution_ms / 1000.0)


class LegacyControlService(ControlService):
    """Single-process legacy SCION control service for one AS."""

    def __init__(
        self,
        view: LocalTopologyView,
        key_store: KeyStore,
        transport: ControlPlaneTransport,
        paths_per_origin: int = 20,
        verify_signatures: bool = True,
        beacon_validity_ms: float = DEFAULT_VALIDITY_MS,
        revocation_dedup_window_ms: float = DEFAULT_DEDUP_WINDOW_MS,
    ) -> None:
        config = ControlServiceConfig(
            verify_signatures=verify_signatures,
            beacon_validity_ms=beacon_validity_ms,
            registration_limit=paths_per_origin,
            revocation_dedup_window_ms=revocation_dedup_window_ms,
        )
        super().__init__(view, key_store, transport, config)
        self.paths_per_origin = paths_per_origin
        self.algorithm = KShortestPathAlgorithm(k=paths_per_origin)
        #: Which interfaces each selected beacon already went out on (the
        #: egress database IREC's gateway uses; expires with the beacons).
        self._propagated = EgressDatabase()

    def _send(self, interface_id: int, beacon: Beacon, now_ms: float) -> None:
        self.transport.send_message(
            self.as_id,
            interface_id,
            PCBMessage(
                origin_as=self.as_id,
                sequence=next(self._message_sequence),
                created_at_ms=now_ms,
                beacon=beacon,
            ),
        )

    def originate(self, now_ms: float) -> List[Beacon]:
        """Originate one beacon per local interface (no extensions)."""
        originated = []
        for interface_id in self.view.interface_ids():
            beacon = self.builder.originate(
                egress_interface=interface_id,
                created_at_ms=now_ms,
                static_info=self.view.static_info_for(None, interface_id),
                validity_ms=self.config.beacon_validity_ms,
            )
            self._send(interface_id, beacon, now_ms)
            originated.append(beacon)
        return originated

    def select_paths(
        self, stored_beacons: Sequence[StoredBeacon]
    ) -> Tuple[List[StoredBeacon], LegacyProcessingReport]:
        """Run the legacy selection over a candidate set and time it.

        This is the measured quantity of the Figure-6 baseline: no sandbox
        setup, no marshalling — just the selection algorithm over the
        candidates of one origin AS.
        """
        report = LegacyProcessingReport(candidates=len(stored_beacons))
        if not stored_beacons:
            return [], report
        candidates = tuple(
            CandidateBeacon(beacon=s.beacon, ingress_interface=s.received_on_interface)
            for s in stored_beacons
        )
        context = ExecutionContext(
            local_as=self.as_id,
            candidates=candidates,
            # Selection is interface-independent for the legacy algorithm,
            # so a single representative interface suffices.
            egress_interfaces=(0,),
            max_paths_per_interface=self.paths_per_origin,
            intra_latency_ms=self.view.intra_latency_ms,
        )
        start = time.perf_counter()
        result = self.algorithm.execute(context)
        report.execution_ms = (time.perf_counter() - start) * 1000.0

        selected_digests = {b.digest() for b in result.beacons_for(0)}
        by_digest = {s.beacon.digest(): s for s in stored_beacons}
        selected = [by_digest[d] for d in selected_digests if d in by_digest]
        selected.sort(key=lambda s: (s.beacon.hop_count, s.beacon.total_latency_ms()))
        report.selections = len(selected)
        return selected, report

    def run_round(self, now_ms: float) -> LegacyProcessingReport:
        """Select, propagate and register paths for every known origin AS."""
        total = LegacyProcessingReport()
        database = self.ingress.database
        for bucket in database.bucket_keys():
            stored_beacons = database.beacons_in_bucket(bucket)
            selected, report = self.select_paths(stored_beacons)
            total.candidates += report.candidates
            total.selections += report.selections
            total.execution_ms += report.execution_ms
            self._propagate(selected, now_ms)
            self._register(selected, now_ms)
        self.ingress.expire(now_ms)
        self._propagated.remove_expired(now_ms)
        self.path_service.remove_expired(now_ms)
        return total

    def _propagate(self, selected: Sequence[StoredBeacon], now_ms: float) -> None:
        view = self.view
        for stored in selected:
            beacon, arrived_on = stored.beacon, stored.received_on_interface
            loop_free = [
                interface_id
                for interface_id in view.interface_ids()
                if not beacon.contains_as(view.neighbor_as(interface_id))
            ]
            for interface_id in self._propagated.filter_new_interfaces(
                beacon.digest(), loop_free, expires_at_ms=beacon.expires_at_ms()
            ):
                extended = self.builder.extend(
                    beacon,
                    ingress_interface=arrived_on,
                    egress_interface=interface_id,
                    static_info=view.static_info_for(arrived_on, interface_id),
                )
                self._send(interface_id, extended, now_ms)

    def _register(self, selected: Sequence[StoredBeacon], now_ms: float) -> None:
        for stored in selected:
            if stored.beacon.origin_as == self.as_id:
                continue
            segment = self.builder.terminate(
                stored.beacon,
                ingress_interface=stored.received_on_interface,
                static_info=self.view.static_info_for(stored.received_on_interface, None),
            )
            self.path_service.register(
                RegisteredPath(
                    segment=segment,
                    criteria_tags=("legacy",),
                    registered_at_ms=now_ms,
                )
            )

"""The legacy SCION control service.

The legacy control service is the baseline of the paper's micro-benchmarks
(Figures 6 and 7) and of the backward-compatibility experiment (§VII-B):
a single process that receives PCBs, stores them, periodically selects the
20 shortest paths per origin AS, extends and propagates them on every
interface, and registers them at the path service.  There is no sandbox,
no gateway ↔ RAC IPC and no per-criteria optimization, which is exactly
why its per-candidate-set processing latency is much lower than an
on-demand RAC's for small candidate sets.

The service implements the same transport-facing interface as
:class:`repro.core.control_service.IrecControlService`, so simulations can
mix legacy and IREC ASes freely.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.base import CandidateBeacon, ExecutionContext
from repro.algorithms.shortest_path import KShortestPathAlgorithm, legacy_scion_algorithm
from repro.core.beacon import Beacon, BeaconBuilder, DEFAULT_VALIDITY_MS
from repro.core.databases import (
    IngressDatabase,
    PathService,
    RegisteredPath,
    StoredBeacon,
)
from repro.core.control_service import (
    dispatch_batch,
    dispatch_message,
    purge_as_state,
    purge_link_state,
)
from repro.core.ingress import IngressGateway
from repro.core.messages import ControlMessage, PathQueryResponse
from repro.core.query import PathQueryFrontend
from repro.core.revocation import (
    RevocationMessage,
    RevocationState,
    bounce_if_revoked as _bounce_if_revoked,
    handle_revocation as _handle_revocation,
    originate_revocation as _originate_revocation,
)
from repro.core.local_view import LocalTopologyView
from repro.core.transport import ControlPlaneTransport
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import UnknownAlgorithmError
from repro.topology.entities import LinkID


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


class LegacyControlService:
    """Single-process legacy SCION control service for one AS."""

    def __init__(
        self,
        view: LocalTopologyView,
        key_store: KeyStore,
        transport: ControlPlaneTransport,
        paths_per_origin: int = 20,
        verify_signatures: bool = True,
        beacon_validity_ms: float = DEFAULT_VALIDITY_MS,
    ) -> None:
        self.view = view
        self.transport = transport
        self.paths_per_origin = paths_per_origin
        self.beacon_validity_ms = beacon_validity_ms
        signer = Signer(as_id=view.as_id, key_store=key_store)
        self.builder = BeaconBuilder(as_id=view.as_id, signer=signer)
        self.ingress = IngressGateway(
            as_id=view.as_id,
            verifier=Verifier(key_store=key_store),
            database=IngressDatabase(local_as=view.as_id),
            verify_signatures=verify_signatures,
        )
        self.path_service = PathService(max_paths_per_key=paths_per_origin)
        #: Legacy ASes serve path queries through the same frontend as
        #: IREC ASes — the serving tier is deployment-flavour agnostic.
        self.query_frontend = PathQueryFrontend(self.path_service)
        self.query_responses: List[Tuple[PathQueryResponse, float]] = []
        self._message_sequence = itertools.count(1)
        self.revocations = RevocationState()
        #: Withdrawal callback, same contract as the IREC control service.
        self.on_withdrawal = None
        self.algorithm: KShortestPathAlgorithm = (
            legacy_scion_algorithm()
            if paths_per_origin == 20
            else KShortestPathAlgorithm(k=paths_per_origin)
        )
        self._propagated_digests: dict = {}

    # ------------------------------------------------------------------
    # transport-facing handlers (same surface as the IREC control service)
    # ------------------------------------------------------------------
    @property
    def as_id(self) -> int:
        """Return the local AS identifier."""
        return self.view.as_id

    def on_message(self, message: ControlMessage, on_interface: int, now_ms: float):
        """Handle one typed control message — the unified fabric entry point.

        Legacy ASes speak the same message fabric as IREC ASes (that is
        what makes mixed deployments possible); the dispatch is shared
        with :class:`~repro.core.control_service.IrecControlService`.
        """
        return dispatch_message(self, message, on_interface, now_ms)

    def on_message_batch(self, entries, now_ms: float):
        """Handle one drained inbox batch (shared batched dispatch)."""
        return dispatch_batch(self, entries, now_ms)

    def receive_beacon(self, beacon: Beacon, on_interface: int, now_ms: float) -> bool:
        """Handle a PCB delivered by a neighbouring AS.

        Shares the IREC service's negative caching: a beacon crossing an
        element withdrawn inside the dedup window bounces the cached
        revocation back to the sender instead of being admitted.
        """
        revocations = self.revocations
        if (
            revocations.revoked_links or revocations.revoked_ases
        ) and _bounce_if_revoked(self, beacon, on_interface, now_ms):
            return False
        return self.ingress.receive(beacon, on_interface=on_interface, now_ms=now_ms)

    def receive_returned_beacon(self, beacon: Beacon, now_ms: float) -> None:
        """Legacy ASes do not use pull-based routing; returned beacons are dropped."""

    def next_message_sequence(self) -> int:
        """Return the next non-revocation envelope sequence number."""
        return next(self._message_sequence)

    def receive_query_response(
        self, response: PathQueryResponse, now_ms: float
    ) -> None:
        """Handle the answer to a query this AS sent earlier."""
        self.query_responses.append((response, now_ms))

    def serve_algorithm(self, algorithm_id: str) -> bytes:
        """Legacy ASes publish no on-demand algorithms."""
        raise UnknownAlgorithmError(algorithm_id)

    # ------------------------------------------------------------------
    # dynamic-topology events (same surface as the IREC service)
    # ------------------------------------------------------------------
    def set_policies(self, policies: Sequence) -> None:
        """Replace the ingress gateway's admission policies atomically."""
        self.ingress.policies = list(policies)

    def invalidate_link(self, link_id: LinkID) -> Tuple[int, int]:
        """Withdraw beacons/paths crossing a failed link; return the counts."""
        return purge_link_state(self.as_id, self.ingress.database, self.path_service, link_id)

    def invalidate_as(self, gone_as: int) -> Tuple[int, int]:
        """Withdraw beacons/paths crossing a departed AS; return the counts."""
        return purge_as_state(self.ingress.database, self.path_service, gone_as)

    def originate_revocation(
        self,
        now_ms: float,
        failed_link=None,
        failed_as: Optional[int] = None,
        failed_links: Sequence = (),
        failed_ases: Sequence[int] = (),
        ttl_ms: Optional[float] = None,
        max_hops: Optional[int] = None,
    ) -> RevocationMessage:
        """Originate, apply and flood a signed revocation for a local failure."""
        return _originate_revocation(
            self,
            now_ms,
            failed_link=failed_link,
            failed_as=failed_as,
            failed_links=tuple(failed_links),
            failed_ases=tuple(failed_ases),
            ttl_ms=ttl_ms,
            max_hops=max_hops,
        )

    def on_revocation(
        self, revocation: RevocationMessage, on_interface: int, now_ms: float
    ) -> bool:
        """Handle a revocation delivered by a neighbouring AS (dedup, withdraw,
        re-forward) — legacy ASes participate in the flood like IREC ASes."""
        return _handle_revocation(self, revocation, on_interface, now_ms)

    def set_revocation_forwarding(self, enabled: bool) -> None:
        """Toggle re-forwarding of received revocations (Byzantine knob);
        mirrors :meth:`IrecControlService.set_revocation_forwarding`."""
        self.revocations.suppress_forwarding = not enabled

    # ------------------------------------------------------------------
    # beaconing
    # ------------------------------------------------------------------
    def originate(self, now_ms: float) -> List[Beacon]:
        """Originate one beacon per local interface (no extensions)."""
        originated = []
        for interface_id in self.view.interface_ids():
            beacon = self.builder.originate(
                egress_interface=interface_id,
                created_at_ms=now_ms,
                static_info=self.view.static_info_for(None, interface_id),
                validity_ms=self.beacon_validity_ms,
            )
            self.transport.send_beacon(self.as_id, interface_id, beacon)
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
            self._propagate(selected)
            self._register(selected, now_ms)
        self.ingress.expire(now_ms)
        self.path_service.remove_expired(now_ms)
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _propagate(self, selected: Sequence[StoredBeacon]) -> None:
        for stored in selected:
            digest = stored.beacon.digest()
            sent_on = self._propagated_digests.setdefault(digest, set())
            for interface_id in self.view.interface_ids():
                if interface_id in sent_on:
                    continue
                neighbor_as, _ = self.view.neighbor_of(interface_id)
                if stored.beacon.contains_as(neighbor_as):
                    continue
                extended = self.builder.extend(
                    stored.beacon,
                    ingress_interface=stored.received_on_interface,
                    egress_interface=interface_id,
                    static_info=self.view.static_info_for(
                        stored.received_on_interface, interface_id
                    ),
                )
                self.transport.send_beacon(self.as_id, interface_id, extended)
                sent_on.add(interface_id)

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

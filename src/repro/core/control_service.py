"""The control service: one AS's complete control plane.

:class:`IrecControlService` is what every AS runs: identity and wiring
(topology view, transport, beacon builder, ingress gateway, path service,
query frontend, revocation state), the whole fabric-facing surface — one
batched typed-message dispatch, beacon admission with its negative-cache
bounce, the revocation flood and down-segment relay — and the intra-AS
components of §V: routing algorithm containers and the egress gateway,
plus pull-based and on-demand routing.  End hosts query the local query
frontend in process.

A legacy SCION AS (the baseline of §VII-B's mixed deployments) is a
configuration of the same class, not a second implementation: one static
RAC running the 20-shortest-paths selection under the criteria tag
``"legacy"`` (:func:`repro.simulation.scenario.legacy_scion_spec`), a
single interface group, beacons originated without the group extension
and no down-segment announcements.  The two differ in what an AS
selects, not in what it speaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.databases import (
    EgressDatabase,
    IngressDatabase,
    PathService,
    RegisteredPath,
)
from repro.core.egress import EgressGateway
from repro.core.extensions import ExtensionSet
from repro.core.ingress import IngressGateway
from repro.core.interface_groups import (
    InterfaceGroupAssignment,
    InterfaceGroupingPolicy,
    SingleGroupPolicy,
)
from repro.core.local_view import LocalTopologyView
from repro.core.messages import (
    ControlMessage,
    PathRegistrationMessage,
    RevocationMessage,
)
from repro.core.ondemand import AlgorithmRepository, OnDemandAlgorithmManager
from repro.core.query import PathQueryFrontend
from repro.core.rac import (
    RACConfig,
    RACExecutionReport,
    RACSelection,
    RoutingAlgorithmContainer,
)
from repro.core.revocation import RevocationState
from repro.core.transport import ControlPlaneTransport
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import ConfigurationError, SignatureError, SimulationError
from repro.topology.entities import LinkID, normalize_link_id


@dataclass(frozen=True)
class ControlServiceConfig:
    """Deployment knobs of one control service.

    A legacy SCION AS turns ``originate_with_groups`` and
    ``register_down_segments`` off; the rest applies to every AS.

    Attributes:
        verify_signatures: Whether the ingress gateway verifies PCB
            signature chains (disable only for very large simulations).
        registration_limit: Per-(criteria, origin, interface-group) cap of
            the path service — 20 in the paper's simulations; the one
            registration limit (a simulation sets it from
            ``ScenarioConfig.registration_limit``).
        originate_with_groups: Whether originated beacons carry the
            interface-group extension.
        register_down_segments: When enabled, every registration that adds
            a segment or a criteria tag to this AS's path service is
            additionally announced back along the segment as a
            path-registration message, so the origin (core) AS learns it
            as a down-segment on message arrival.  Off by default — the
            extra messages would change pinned traces.
    """

    verify_signatures: bool = True
    registration_limit: int = 20
    originate_with_groups: bool = True
    register_down_segments: bool = False


@dataclass
class RoundReport:
    """Outcome of one beaconing round at one AS."""

    as_id: int
    now_ms: float
    rac_reports: List[RACExecutionReport] = field(default_factory=list, init=False)


class IrecControlService:
    """The control plane of one AS, IREC-enabled or configured as legacy."""

    def __init__(
        self,
        view: LocalTopologyView,
        key_store: KeyStore,
        transport: ControlPlaneTransport,
        grouping_policy: Optional[InterfaceGroupingPolicy] = None,
        config: Optional[ControlServiceConfig] = None,
    ) -> None:
        config = config or ControlServiceConfig()
        self.view = view
        self.as_id = view.as_id
        self.config = config
        self.transport = transport
        self.builder = BeaconBuilder(
            as_id=view.as_id, signer=Signer(as_id=view.as_id, key_store=key_store)
        )
        self.ingress = IngressGateway(
            as_id=view.as_id,
            verifier=Verifier(key_store=key_store),
            database=IngressDatabase(local_as=view.as_id),
            verify_signatures=config.verify_signatures,
        )
        self.path_service = PathService(max_paths_per_key=config.registration_limit)
        #: The serving tier end hosts query instead of touching the path
        #: service directly; subscribes itself to the service's
        #: invalidation hook.  The simulation attaches its scheduler as
        #: the frontend's clock.
        self.query_frontend = PathQueryFrontend(self.path_service)
        self.revocations = RevocationState()
        #: Optional ``(message, removed_counts, now_ms)`` callback invoked
        #: after a revocation withdrew local state; the beaconing driver
        #: fans it out to its revocation listeners (e.g. the traffic
        #: engine, which breaks flows when the withdrawal *arrives*).
        self.on_withdrawal = None
        self.egress = EgressGateway(
            view=view,
            builder=self.builder,
            transport=transport,
            database=EgressDatabase(),
            path_service=self.path_service,
            register_down_segments=config.register_down_segments,
        )
        self.racs: List[RoutingAlgorithmContainer] = []
        self.repository = AlgorithmRepository(as_id=view.as_id)
        self.pull_results: List[Tuple[Beacon, float]] = []
        self._grouping_policy = grouping_policy or SingleGroupPolicy()
        #: The view's interface tuple the grouping was assigned for; a
        #: link attached by topology growth replaces the tuple, and the
        #: next origination regroups.
        self._grouped_interfaces = view.interface_ids()
        self.grouping: InterfaceGroupAssignment = self._grouping_policy.assign(view.as_info)

    # ------------------------------------------------------------------
    # routing algorithm containers
    # ------------------------------------------------------------------
    def add_static_rac(
        self,
        rac_id: str,
        algorithm: RoutingAlgorithm,
        use_interface_groups: bool = True,
    ) -> RoutingAlgorithmContainer:
        """Create, register and return a static RAC running ``algorithm``."""
        config = RACConfig(rac_id=rac_id, use_interface_groups=use_interface_groups)
        rac = RoutingAlgorithmContainer(config=config, algorithm=algorithm)
        self.racs.append(rac)
        return rac

    def add_on_demand_rac(self, rac_id: str) -> RoutingAlgorithmContainer:
        """Create, register and return an on-demand RAC."""
        manager = OnDemandAlgorithmManager(
            transport=lambda origin_as, algorithm_id: self.transport.fetch_algorithm(
                self.as_id, origin_as, algorithm_id
            )
        )
        rac = RoutingAlgorithmContainer(config=RACConfig(rac_id=rac_id), on_demand_manager=manager)
        self.racs.append(rac)
        return rac

    def remove_rac(self, rac_id: str) -> bool:
        """Remove the RAC with ``rac_id``; return whether one was removed.

        A churned AS's cold restart is remove + add: the reinstalled RAC
        starts from fresh algorithm state, as a freshly deployed container
        would.
        """
        remaining = [rac for rac in self.racs if rac.config.rac_id != rac_id]
        removed = len(remaining) != len(self.racs)
        self.racs = remaining
        return removed

    # ------------------------------------------------------------------
    # dynamic-topology invalidation
    # ------------------------------------------------------------------
    def invalidate_link(self, link_id: LinkID) -> Tuple[int, int]:
        """Withdraw all state crossing a failed inter-domain link.

        Models the control plane's reaction to a revocation: beacons whose
        path crosses the link are dropped from the ingress database (so the
        next round re-selects on the surviving candidates and re-registers
        paths from them) and registered paths crossing it are withdrawn
        from the path service.  For a stored (non-terminated) beacon the
        link it arrived over — last entry's egress interface to the local
        ingress interface — is part of its path as seen locally, so it
        counts in addition to the beacon's interior links.  Both stores
        resolve the removal through their link indexes in O(matches).
        Returned pull beacons over the link go too, before an orchestrator
        can consume them.

        Returns:
            ``(ingress_removed, paths_removed)`` counts.
        """
        failed = normalize_link_id(*link_id)
        if self.pull_results:
            self.pull_results = [
                (beacon, at_ms)
                for beacon, at_ms in self.pull_results
                if failed not in beacon.links()
            ]
        return (
            self.ingress.database.remove_crossing_link(failed),
            self.path_service.remove_crossing_link(failed),
        )

    def invalidate_as(self, gone_as: int) -> Tuple[int, int]:
        """Withdraw all state whose AS path crosses a departed AS.

        Returns:
            ``(ingress_removed, paths_removed)`` counts.
        """
        if self.pull_results:
            self.pull_results = [
                (beacon, at_ms)
                for beacon, at_ms in self.pull_results
                if not beacon.contains_as(gone_as)
            ]
        return (
            self.ingress.database.remove_crossing_as(gone_as),
            self.path_service.remove_crossing_as(gone_as),
        )

    # ------------------------------------------------------------------
    # revocation control-plane traffic
    # ------------------------------------------------------------------
    def originate_revocation(
        self,
        now_ms: float,
        failed_links: Sequence[LinkID] = (),
        failed_ases: Sequence[int] = (),
    ) -> RevocationMessage:
        """Originate, locally apply and flood one signed revocation.

        Called by the beaconing driver on the ASes adjacent to a failure
        (the endpoints of a failed link; the neighbours of a departed AS).
        The origin withdraws its own state immediately — it detected the
        failure — and the message starts its hop-by-hop journey to
        everyone else via :meth:`on_revocation`.  Several simultaneously
        failed elements batch into one message via ``failed_links`` /
        ``failed_ases`` (one flood instead of one per element).
        """
        state = self.revocations
        message = RevocationMessage(
            origin_as=self.as_id,
            sequence=state.next_sequence(),
            created_at_ms=now_ms,
            failed_links=tuple(failed_links),
            failed_ases=tuple(failed_ases),
        ).signed(self.builder.signer)
        state.originated += 1
        # Mark the own message seen so a copy reflected back over a cycle is a
        # duplicate, not a fresh withdrawal.
        state.mark_seen(message.key, now_ms)
        self._apply_revocation(message, now_ms)
        self._forward_revocation(message, arrival_interface=None)
        return message

    def on_revocation(
        self, message: RevocationMessage, on_interface: int, now_ms: float
    ) -> None:
        """Handle a revocation delivered by a neighbouring AS.

        Deduplicates by ``(origin, sequence)``, verifies the origin
        signature (when signature checking is enabled), withdraws matching
        state via :meth:`invalidate_link` / :meth:`invalidate_as` and
        re-forwards the message to the other neighbours unless forwarding
        is suppressed.
        """
        state = self.revocations
        state.received += 1
        key = message.key
        if state.is_duplicate(key, now_ms):
            state.duplicates += 1
            return
        if self.ingress.verify_signatures:
            try:
                message.verify(self.ingress.verifier)
            except SignatureError:
                # Not marked seen: a later authentic copy must still process.
                state.rejected_invalid += 1
                return
        state.mark_seen(key, now_ms)
        self._apply_revocation(message, now_ms)
        if not state.suppress_forwarding:
            self._forward_revocation(message, arrival_interface=on_interface)

    def _apply_revocation(self, message: RevocationMessage, now_ms: float) -> None:
        """Withdraw every revoked element's state locally; notify the listener.

        A batched message withdraws all of its elements in one pass; the
        counts handed to the listener cover the union.
        """
        ingress_removed = 0
        paths_removed = 0
        for link in message.failed_links:
            link_ingress, link_paths = self.invalidate_link(link)
            ingress_removed += link_ingress
            paths_removed += link_paths
        for gone_as in message.failed_ases:
            as_ingress, as_paths = self.invalidate_as(gone_as)
            ingress_removed += as_ingress
            paths_removed += as_paths
        self.revocations.record_applied(message.key, now_ms)
        self.revocations.cache_revoked_elements(message, now_ms)
        callback = self.on_withdrawal
        if callback is not None:
            callback(message, (ingress_removed, paths_removed), now_ms)

    def _forward_revocation(
        self, message: RevocationMessage, arrival_interface: Optional[int]
    ) -> None:
        """Re-send ``message`` on every eligible interface.

        A service never transmits a revocation into an element it revokes: an
        endpoint of a failed link knows that port is dead, and a neighbour of
        a departed AS knows the AS is gone.  Other unavailable links are *not*
        locally known — sends over them are attempted and dropped in flight by
        the transport, which is exactly the "revocations crossing a failed
        link are lost" semantics.  The element sets and transport entry point
        are hoisted out of the per-interface loop: forwarding runs once per
        fresh message at every AS, making this the flood's hottest loop.
        """
        sent = 0
        view = self.view
        failed_links = message.failed_link_set
        failed_ases = message.failed_as_set
        send = self.transport.send_message
        as_id = self.as_id
        for interface_id in view.interface_ids():
            if interface_id == arrival_interface:
                continue
            if view.link_of(interface_id).key in failed_links:
                continue
            if failed_ases and view.neighbor_of(interface_id)[0] in failed_ases:
                continue
            send(as_id, interface_id, message)
            sent += 1
        self.revocations.forwarded += sent

    # ------------------------------------------------------------------
    # fabric-facing handlers
    # ------------------------------------------------------------------
    def on_message_batch(
        self, entries: Sequence[Tuple[ControlMessage, int]], now_ms: float
    ) -> None:
        """Handle one drained inbox batch in arrival order.

        The one fabric entry point: dispatches on ``message.kind``, the key
        the collector's ledgers use, and raises :class:`SimulationError` on
        a kind it has no handler for.  Each handler is looked up on the
        instance at call time.  Messages are processed in order with one
        ``now_ms`` (every entry of a batch arrived at the same scheduler
        tick), so database state and withdrawal timestamps are identical to
        per-message delivery.  The batch enables one amortization
        per-message delivery cannot see: several copies of the *same*
        beacon arriving together (parallel links, simultaneous neighbours)
        pay one admission — signature-chain probe included — and the
        remaining copies take the duplicate fast path, since an identical
        digest means a byte-identical beacon whose admission verdict cannot
        differ and whose database insert would be refused as a duplicate
        anyway.
        """
        accepted_digests = None
        # Kind strings instead of isinstance checks: this loop is the flood
        # fast path (one call per delivered message network-wide).
        for message, on_interface in entries:
            kind = message.kind
            if kind == "revocation":
                self.on_revocation(message, on_interface=on_interface, now_ms=now_ms)
            elif kind == "pcb":
                digest = message.beacon.digest()
                if accepted_digests is not None and digest in accepted_digests:
                    stats = self.ingress.stats
                    stats.received += 1
                    stats.duplicates += 1
                    continue
                accepted = self.receive_beacon(
                    message.beacon, on_interface=on_interface, now_ms=now_ms
                )
                if accepted:
                    if accepted_digests is None:
                        accepted_digests = set()
                    accepted_digests.add(digest)
            elif kind == "path_registration":
                self.receive_path_registration(message, now_ms)
            else:
                raise SimulationError(f"unsupported control message {message!r}")

    def receive_beacon(self, beacon: Beacon, on_interface: int, now_ms: float) -> bool:
        """Handle a PCB delivered by a neighbouring AS.

        Negative caching: a beacon crossing a link or AS this service
        withdrew inside the dedup window means the sender has not heard
        the withdrawal yet — silently admitting the beacon would resurrect
        the dead path, silently dropping it would leave the sender
        ignorant.  Instead the cached revocation is re-sent toward the
        sender and the beacon is not admitted (the emptiness check keeps
        the common no-revocations path one attribute load).
        """
        revocations = self.revocations
        if revocations.revoked_links or revocations.revoked_ases:
            revocation = revocations.revoked_recently(
                beacon.walk_links(), beacon.as_path(), now_ms
            )
            if revocation is not None:
                revocations.reoriginated += 1
                if on_interface is not None:
                    self.transport.send_message(self.as_id, on_interface, revocation)
                return False
        return self.ingress.receive(beacon, on_interface=on_interface, now_ms=now_ms)

    def receive_returned_beacon(self, beacon: Beacon, now_ms: float) -> None:
        """Handle a pull-based PCB returned by its target AS."""
        if beacon.origin_as != self.as_id:
            raise ConfigurationError(
                f"AS {self.as_id} received a returned beacon originated by AS {beacon.origin_as}"
            )
        self.pull_results.append((beacon, now_ms))

    def serve_algorithm(self, algorithm_id: str) -> bytes:
        """Serve a published on-demand algorithm payload."""
        return self.repository.fetch(algorithm_id)

    def receive_path_registration(
        self, message: PathRegistrationMessage, now_ms: float
    ) -> None:
        """Relay a down-segment announcement, or register it at its origin.

        A transit AS on the segment forwards the message one hop toward the
        origin (out its own reverse/ingress interface of the segment) without
        registering, an AS off the segment drops it, and only the origin AS
        registers it — registration is driven entirely by message arrival.
        The registration is re-stamped with the *arrival* time: a path that
        reaches the origin now is fresh now, which is the timestamp contract
        the convergence collector's sub-period recovery detection relies on.
        Expired segments are dropped (the announcement outlived its path).

        The registrar sends one per ``(segment, criteria tag)`` that was
        news to its own path service, not one per round
        (:meth:`EgressGateway.register`), so nothing here refreshes a
        down-segment the origin already holds: it stays until it expires or
        is withdrawn, and a copy lost on the way is repaired by the
        segment's successor, not by a repeat.
        """
        path = message.path
        segment = path.segment
        if segment.is_expired(now_ms):
            return
        as_id = self.as_id
        if segment.origin_as != as_id:
            # The own hop, read off the entries: a relayed segment memoizes no AS path.
            hop = next((entry for entry in segment.entries if entry.as_id == as_id), None)
            # Off the segment's path (a misrouted announcement) or with no
            # hop toward the origin: drop it.
            if hop is not None and hop.ingress_interface is not None:
                self.transport.send_message(as_id, hop.ingress_interface, message)
            return
        self.path_service.register(
            RegisteredPath(
                segment=segment,
                criteria_tags=path.criteria_tags,
                registered_at_ms=now_ms,
            )
        )

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def publish_algorithm(self, algorithm_id: str, payload: bytes) -> str:
        """Publish an on-demand payload; return its hash for PCB extensions."""
        return self.repository.publish(algorithm_id, payload)

    def originate(self, now_ms: float) -> List[Beacon]:
        """Originate the periodic (push) beacons of this AS.

        One beacon is created per local interface; when interface groups
        are enabled, each beacon carries the group of its interface.  An
        interface topology growth attached since the last origination is
        grouped by the policy first, so it originates like the others.
        """
        interfaces = self.view.interface_ids()
        if interfaces is not self._grouped_interfaces:
            self.grouping = self._grouping_policy.assign(self.view.as_info)
            self._grouped_interfaces = interfaces
        originated: List[Beacon] = []
        attached = set(interfaces)
        for group_id in self.grouping.group_ids():
            extensions = ExtensionSet()
            if self.config.originate_with_groups:
                extensions = extensions.with_interface_group(group_id)
            # Only interfaces with an attached inter-domain link can carry
            # beacons; provisioned-but-unused interfaces are skipped.
            members = [m for m in self.grouping.members(group_id) if m in attached]
            if not members:
                continue
            originated.extend(
                self.egress.originate(now_ms=now_ms, interfaces=members, extensions=extensions)
            )
        return originated

    def originate_pull(
        self,
        target_as: int,
        now_ms: float,
        algorithm_id: Optional[str] = None,
    ) -> List[Beacon]:
        """Originate pull-based beacons towards ``target_as`` on every interface.

        When ``algorithm_id`` names a payload previously published through
        :meth:`publish_algorithm`, the beacons additionally carry the
        on-demand algorithm extension (the combination §IV-C prescribes for
        source-side criteria, property P4).
        """
        extensions = ExtensionSet().with_target(target_as)
        if algorithm_id is not None:
            extensions = extensions.with_algorithm(
                algorithm_id, self.repository.hash_of(algorithm_id)
            )
        return self.egress.originate(now_ms=now_ms, extensions=extensions)

    # ------------------------------------------------------------------
    # periodic processing
    # ------------------------------------------------------------------
    def run_round(self, now_ms: float) -> RoundReport:
        """Run every RAC, propagate and register its selections, expire state."""
        report = RoundReport(as_id=self.as_id, now_ms=now_ms)
        all_selections: List[RACSelection] = []
        for rac in self.racs:
            selections, rac_report = rac.process(
                database=self.ingress.database,
                egress_interfaces=self.view.interface_ids(),
                intra_latency_ms=self.view.intra_latency_ms,
                local_as=self.as_id,
            )
            report.rac_reports.append(rac_report)
            all_selections.extend(selections)

        self.egress.propagate(all_selections)
        self.egress.register(all_selections, now_ms=now_ms)
        self.ingress.expire(now_ms)
        self.egress.expire(now_ms)
        return report

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pull_results_for(self, algorithm_id: Optional[str] = None) -> List[Tuple[Beacon, float]]:
        """Return returned pull beacons, optionally filtered by algorithm id."""
        if algorithm_id is None:
            return list(self.pull_results)
        return [
            (beacon, at_ms)
            for beacon, at_ms in self.pull_results
            if beacon.algorithm_id == algorithm_id
        ]

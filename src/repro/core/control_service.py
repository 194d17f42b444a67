"""The control services: one AS's complete control plane.

:class:`ControlService` is what every AS runs, whichever way it selects
paths: identity and wiring (topology view, transport, beacon builder,
ingress gateway, path service, query frontend, revocation state) and the
whole fabric-facing surface — typed-message dispatch, beacon admission
with its negative-cache bounce, the revocation flood, path-registration
relay and path-query serving.  A flavour adds *selection* on top:
``originate`` and ``run_round``.

:class:`IrecControlService` wires the intra-AS components of §V — routing
algorithm containers and the egress gateway, plus pull-based and on-demand
routing — onto that base.  The legacy SCION baseline
(:class:`repro.scion.legacy.LegacyControlService`) puts its single
20-shortest-paths selection on the same base, which is what makes mixed
(backward-compatibility, §VII-B) deployments possible: the two differ in
how an AS selects, not in what it speaks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.algorithms.base import RoutingAlgorithm
from repro.core.algorithm_registry import AlgorithmFetcher, AlgorithmRepository
from repro.core.beacon import Beacon, BeaconBuilder, DEFAULT_VALIDITY_MS
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
    PathQueryMessage,
    PathQueryResponse,
    PathRegistrationMessage,
    RevocationMessage,
)
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.query import DEFAULT_CACHE_CAPACITY, PathQuery, PathQueryFrontend
from repro.core.rac import (
    RACConfig,
    RACExecutionReport,
    RACSelection,
    RoutingAlgorithmContainer,
)
from repro.core.revocation import DEFAULT_DEDUP_WINDOW_MS, RevocationState
from repro.core.transport import ControlPlaneTransport
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import (
    ConfigurationError,
    SignatureError,
    SimulationError,
    UnknownAlgorithmError,
)
from repro.topology.entities import LinkID, normalize_link_id


@dataclass(frozen=True)
class ControlServiceConfig:
    """Deployment knobs of one control service.

    ``originate_with_groups`` and ``register_down_segments`` only mean
    something to an IREC AS; the rest applies to either flavour.

    Attributes:
        verify_signatures: Whether the ingress gateway verifies PCB
            signature chains (disable only for very large simulations).
        beacon_validity_ms: Lifetime of originated beacons.
        registration_limit: Per-(criteria, origin, interface-group) cap of
            the path service — 20 in the paper's simulations.
        originate_with_groups: Whether originated beacons carry the
            interface-group extension.
        expiry_margin_ms: Shared expiry horizon of the AS's three stores
            (ingress database, egress database, path service): entries
            expiring within the margin are dropped together, so a beacon
            never survives in one store after another dropped it.
        revocation_dedup_window_ms: How long the service remembers
            processed revocation ``(origin, sequence)`` keys.
        query_cache_capacity: LRU bound of the path-query frontend's
            materialized-response cache.
        register_down_segments: When enabled, every registration that adds
            a segment or a criteria tag to this AS's path service is
            additionally announced back along the segment as a
            ``register_at_origin`` path-registration message, so the
            origin (core) AS learns it as a down-segment on message
            arrival.  Off by default — the extra messages would change
            pinned traces.
    """

    verify_signatures: bool = True
    beacon_validity_ms: float = DEFAULT_VALIDITY_MS
    registration_limit: int = 20
    originate_with_groups: bool = True
    expiry_margin_ms: float = 0.0
    revocation_dedup_window_ms: float = DEFAULT_DEDUP_WINDOW_MS
    query_cache_capacity: int = DEFAULT_CACHE_CAPACITY
    register_down_segments: bool = False


class ControlService:
    """The control plane every AS runs, whichever way it selects paths.

    Owns what a legacy SCION AS and an IREC AS share — the wiring and the
    fabric-facing handlers below.  A flavour subclasses it with its
    selection: ``originate(now_ms)`` and ``run_round(now_ms)``.
    """

    def __init__(
        self,
        view: LocalTopologyView,
        key_store: KeyStore,
        transport: ControlPlaneTransport,
        config: ControlServiceConfig,
    ) -> None:
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
            database=IngressDatabase(
                expiry_margin_ms=config.expiry_margin_ms,
                local_as=view.as_id,
            ),
            verify_signatures=config.verify_signatures,
        )
        self.path_service = PathService(
            max_paths_per_key=config.registration_limit,
            expiry_margin_ms=config.expiry_margin_ms,
        )
        #: The serving tier end hosts query instead of touching the path
        #: service directly; subscribes itself to the service's
        #: invalidation hook.  The simulation attaches its scheduler as
        #: the frontend's clock.
        self.query_frontend = PathQueryFrontend(
            self.path_service, capacity=config.query_cache_capacity
        )
        #: Responses to queries this AS sent, as ``(response, arrived_ms)``.
        self.query_responses: List[Tuple[PathQueryResponse, float]] = []
        self.revocations = RevocationState(
            dedup_window_ms=config.revocation_dedup_window_ms
        )
        #: Envelope sequence numbers of non-revocation messages this
        #: service originates (revocations keep their own counter: their
        #: (origin, sequence) pairs are the flood's dedup identity).
        self._message_sequence = itertools.count(1)
        #: Optional ``(message, removed_counts, now_ms)`` callback invoked
        #: after a revocation withdrew local state; the beaconing driver
        #: fans it out to its revocation listeners (e.g. the traffic
        #: engine, which breaks flows when the withdrawal *arrives*).
        self.on_withdrawal = None

    def set_policies(self, policies: Sequence) -> None:
        """Replace the ingress gateway's admission policies atomically."""
        self.ingress.policies = list(policies)

    def registered_paths_to(self, origin_as: int):
        """Return the registered paths towards ``origin_as``."""
        return self.path_service.paths_to(origin_as)

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

        Returns:
            ``(ingress_removed, paths_removed)`` counts.
        """
        failed = normalize_link_id(*link_id)
        return (
            self.ingress.database.remove_crossing_link(failed, arrival_as=self.as_id),
            self.path_service.remove_crossing_link(failed),
        )

    def invalidate_as(self, gone_as: int) -> Tuple[int, int]:
        """Withdraw all state whose AS path crosses a departed AS.

        Returns:
            ``(ingress_removed, paths_removed)`` counts.
        """
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
        failed_link: Optional[LinkID] = None,
        failed_as: Optional[int] = None,
        failed_links: Sequence[LinkID] = (),
        failed_ases: Sequence[int] = (),
        ttl_ms: Optional[float] = None,
        max_hops: Optional[int] = None,
    ) -> RevocationMessage:
        """Originate, locally apply and flood one signed revocation.

        Called by the beaconing driver on the ASes adjacent to a failure
        (the endpoints of a failed link; the neighbours of a departed AS).
        The origin withdraws its own state immediately — it detected the
        failure — and the message starts its hop-by-hop journey to
        everyone else via :meth:`on_revocation`.  Several simultaneously
        failed elements batch into one message via ``failed_links`` /
        ``failed_ases`` (one flood instead of one per element); ``ttl_ms``
        and ``max_hops`` bound the message's lifetime and propagation
        radius (see :class:`RevocationMessage`).
        """
        state = self.revocations
        message = RevocationMessage(
            origin_as=self.as_id,
            sequence=state.next_sequence(),
            created_at_ms=now_ms,
            failed_link=failed_link,
            failed_as=failed_as,
            failed_links=tuple(failed_links),
            failed_ases=tuple(failed_ases),
            ttl_ms=ttl_ms,
            max_hops=max_hops,
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
    ) -> bool:
        """Handle a revocation delivered by a neighbouring AS.

        Deduplicates by ``(origin, sequence)``, verifies the origin
        signature (when signature checking is enabled), withdraws matching
        state via :meth:`invalidate_link` / :meth:`invalidate_as` and
        re-forwards the message to the other neighbours.  Returns ``True``
        when the message was fresh and applied (and therefore
        re-forwarded, unless its scope is exhausted); ``False`` for
        duplicates, stale (TTL-expired) copies and invalid signatures.
        """
        state = self.revocations
        state.received += 1
        # TTL and scope are enforced here and only here (inlined rather than
        # message methods: this handler runs once per delivered copy
        # network-wide and method dispatch measurably costs flood throughput).
        if message.ttl_ms is not None and now_ms - message.created_at_ms > message.ttl_ms:
            # Not marked seen: staleness is a property of this copy's arrival
            # time, and dropping it must not shadow an earlier in-TTL copy.
            state.rejected_stale += 1
            return False
        if message.max_hops is not None:
            hop_path = message.hop_path
            if not hop_path or hop_path[-1] != self.as_id:
                # The transport stamps every delivery of a scoped message with
                # the receiving AS, so a copy whose hop path does not end here
                # has been tampered with (truncated to dodge the propagation
                # bound).  Not marked seen: an authentic copy must still
                # process.
                state.rejected_invalid += 1
                return False
        key = message.key
        if state.is_duplicate(key, now_ms):
            state.duplicates += 1
            return False
        if self.ingress.verify_signatures:
            try:
                message.verify(self.ingress.verifier)
            except SignatureError:
                # Not marked seen: a later authentic copy must still process.
                state.rejected_invalid += 1
                return False
        state.mark_seen(key, now_ms)
        self._apply_revocation(message, now_ms)
        if state.suppress_forwarding:
            return True
        if message.max_hops is None or len(message.hop_path) < message.max_hops:
            self._forward_revocation(message, arrival_interface=on_interface)
        return True

    def set_revocation_forwarding(self, enabled: bool) -> None:
        """Toggle re-forwarding of received revocations (Byzantine knob).

        With forwarding disabled the service still applies withdrawals
        locally but silently swallows the flood — the
        :class:`~repro.simulation.events.ForwardingSuppression` behaviour.
        """
        self.revocations.suppress_forwarding = not enabled

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
    def on_message(self, message: ControlMessage, on_interface: int, now_ms: float):
        """Handle one typed control message — the unified fabric entry point.

        Dispatches on ``message.kind``, the key :meth:`on_message_batch`
        and the collector's ledgers use; each handler is looked up on the
        instance at call time.
        """
        kind = message.kind
        if kind == "pcb":
            return self.receive_beacon(
                message.beacon, on_interface=on_interface, now_ms=now_ms
            )
        if kind == "revocation":
            return self.on_revocation(message, on_interface=on_interface, now_ms=now_ms)
        if kind == "path_registration":
            return self.receive_path_registration(message, now_ms)
        if kind == "pull_return":
            return self.receive_returned_beacon(message.beacon, now_ms=now_ms)
        if kind == "path_query":
            return self.serve_path_query(message, on_interface, now_ms)
        if kind == "path_query_response":
            return self.receive_query_response(message, now_ms=now_ms)
        raise SimulationError(f"unsupported control message {message!r}")

    def on_message_batch(
        self, entries: Sequence[Tuple[ControlMessage, int]], now_ms: float
    ):
        """Handle one drained inbox batch in arrival order.

        Messages are processed exactly as per-message dispatch would — same
        order, same ``now_ms`` (every entry of a batch arrived at the same
        scheduler tick) — so database state and withdrawal timestamps are
        identical to ``batch_size=1`` delivery.  The batch enables one
        amortization per-message delivery cannot see: several copies of the
        *same* beacon arriving together (parallel links, simultaneous
        neighbours) pay one admission — signature-chain probe included — and
        the remaining copies take the duplicate fast path, since an identical
        digest means a byte-identical beacon whose admission verdict cannot
        differ and whose database insert would be refused as a duplicate
        anyway.

        Returns:
            Per-entry handler results, in entry order.
        """
        results = []
        append = results.append
        accepted_digests = None
        # Kind strings instead of isinstance checks: this loop is the flood
        # fast path (one call per delivered message network-wide).
        for message, on_interface in entries:
            kind = message.kind
            if kind == "revocation":
                append(self.on_revocation(message, on_interface=on_interface, now_ms=now_ms))
            elif kind == "pcb":
                digest = message.beacon.digest()
                if accepted_digests is not None and digest in accepted_digests:
                    stats = self.ingress.stats
                    stats.received += 1
                    stats.duplicates += 1
                    append(False)
                    continue
                accepted = self.receive_beacon(
                    message.beacon, on_interface=on_interface, now_ms=now_ms
                )
                if accepted:
                    if accepted_digests is None:
                        accepted_digests = set()
                    accepted_digests.add(digest)
                append(accepted)
            elif kind == "path_registration":
                append(self.receive_path_registration(message, now_ms))
            else:
                append(self.on_message(message, on_interface, now_ms))
        return results

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
                beacon.links(), beacon.as_path(), now_ms
            )
            if revocation is not None:
                revocations.reoriginated += 1
                if on_interface is not None:
                    self.transport.send_message(self.as_id, on_interface, revocation)
                return False
        return self.ingress.receive(beacon, on_interface=on_interface, now_ms=now_ms)

    def receive_returned_beacon(self, beacon: Beacon, now_ms: float) -> None:
        """Handle a returned pull-based PCB: dropped unless the flavour pulls."""

    def serve_algorithm(self, algorithm_id: str) -> bytes:
        """Serve an on-demand algorithm payload: none unless the flavour publishes."""
        raise UnknownAlgorithmError(algorithm_id)

    def send_path_registration(
        self, egress_interface: int, path: RegisteredPath, now_ms: float
    ) -> PathRegistrationMessage:
        """Offer ``path`` to the neighbouring AS's path service.

        Builds a :class:`PathRegistrationMessage` on the shared envelope
        and sends it through the fabric: the offer pays per-hop latency,
        can be lost on a failed link and is counted like every other
        control message.
        """
        message = PathRegistrationMessage(
            origin_as=self.as_id,
            sequence=next(self._message_sequence),
            created_at_ms=now_ms,
            path=path,
        )
        self.transport.send_message(self.as_id, egress_interface, message)
        return message

    def receive_path_registration(
        self, message: PathRegistrationMessage, now_ms: float
    ) -> bool:
        """Register a remotely offered path at the local path service.

        The registration is re-stamped with the *arrival* time: a path that
        reaches this AS now is fresh now, which is the timestamp contract the
        convergence collector's sub-period recovery detection relies on.
        Expired segments are dropped (the offer outlived its path).

        ``register_at_origin`` messages are down-segment announcements: a
        transit AS on the segment forwards the message one hop toward the
        origin (out its own reverse/ingress interface of the segment) without
        registering, and only the origin AS registers it — registration is
        driven entirely by message arrival.  The registrar sends one per
        ``(segment, criteria tag)`` that was news to its own path service,
        not one per round (:meth:`EgressGateway.register`), so nothing here
        refreshes a down-segment the origin already holds: it stays until it
        expires or is withdrawn, and a copy lost on the way is repaired by
        the segment's successor, not by a repeat.
        """
        path = message.path
        segment = path.segment
        if segment.is_expired(now_ms):
            return False
        as_id = self.as_id
        if message.register_at_origin and segment.origin_as != as_id:
            as_path = segment.as_path()
            if as_id not in as_path:
                # Not on the segment's path: a misrouted announcement, drop it.
                return False
            ingress_interface = segment.entries[as_path.index(as_id)].ingress_interface
            if ingress_interface is None:
                return False
            self.transport.send_message(as_id, ingress_interface, message)
            return True
        return self.path_service.register(
            RegisteredPath(
                segment=segment,
                criteria_tags=path.criteria_tags,
                registered_at_ms=now_ms,
            )
        )

    def next_message_sequence(self) -> int:
        """Return the next non-revocation envelope sequence number."""
        return next(self._message_sequence)

    def send_path_query(
        self, egress_interface: int, query: PathQuery, now_ms: float
    ) -> PathQueryMessage:
        """Ask the neighbour over ``egress_interface`` for paths.

        The answer arrives later as a :class:`PathQueryResponse` through
        the fabric and lands in :attr:`query_responses`.
        """
        message = PathQueryMessage(
            origin_as=self.as_id,
            sequence=next(self._message_sequence),
            created_at_ms=now_ms,
            query=query,
        )
        self.transport.send_message(self.as_id, egress_interface, message)
        return message

    def serve_path_query(
        self, message: PathQueryMessage, on_interface: int, now_ms: float
    ) -> PathQueryResponse:
        """Serve a remote path query through the local query frontend.

        The response echoes the request's ``(origin_as, sequence)`` so the
        requester can correlate it, and travels back over the interface the
        query arrived on.  A locally dispatched query (``on_interface < 0``)
        gets its response returned instead of sent.
        """
        result = self.query_frontend.query(message.query, now_ms=now_ms)
        response = PathQueryResponse(
            origin_as=self.as_id,
            sequence=self.next_message_sequence(),
            created_at_ms=now_ms,
            query=message.query,
            paths=result.paths,
            cache_hit=result.cache_hit,
            request_origin=message.origin_as,
            request_sequence=message.sequence,
        )
        if on_interface >= 0:
            self.transport.send_message(self.as_id, on_interface, response)
        return response

    def receive_query_response(
        self, response: PathQueryResponse, now_ms: float
    ) -> None:
        """Handle the answer to a query this AS sent earlier."""
        self.query_responses.append((response, now_ms))


@dataclass
class RoundReport:
    """Outcome of one beaconing round at one AS."""

    as_id: int
    now_ms: float
    rac_reports: List[RACExecutionReport] = field(default_factory=list)
    propagated: int = 0
    registered: int = 0

    @property
    def total_processing_ms(self) -> float:
        """Return the summed RAC processing latency of the round."""
        return sum(report.total_ms for report in self.rac_reports)


class IrecControlService(ControlService):
    """The control plane of one IREC-enabled AS."""

    def __init__(
        self,
        view: LocalTopologyView,
        key_store: KeyStore,
        transport: ControlPlaneTransport,
        grouping_policy: Optional[InterfaceGroupingPolicy] = None,
        config: Optional[ControlServiceConfig] = None,
    ) -> None:
        super().__init__(view, key_store, transport, config or ControlServiceConfig())
        self.egress = EgressGateway(
            view=view,
            builder=self.builder,
            transport=transport,
            database=EgressDatabase(expiry_margin_ms=self.config.expiry_margin_ms),
            path_service=self.path_service,
            beacon_validity_ms=self.config.beacon_validity_ms,
        )
        self.racs: List[RoutingAlgorithmContainer] = []
        self.repository = AlgorithmRepository(as_id=view.as_id)
        self.pull_results: List[Tuple[Beacon, float]] = []
        if self.config.register_down_segments:
            self.egress.collect_registered = True
        policy = grouping_policy or SingleGroupPolicy()
        self.grouping: InterfaceGroupAssignment = policy.assign(view.as_info)

    # ------------------------------------------------------------------
    # routing algorithm containers
    # ------------------------------------------------------------------
    def add_static_rac(
        self,
        rac_id: str,
        algorithm: RoutingAlgorithm,
        max_paths_per_interface: int = 20,
        registration_limit: Optional[int] = None,
        use_interface_groups: bool = True,
        use_targets: bool = True,
    ) -> RoutingAlgorithmContainer:
        """Create, register and return a static RAC running ``algorithm``."""
        config = RACConfig(
            rac_id=rac_id,
            on_demand=False,
            max_paths_per_interface=max_paths_per_interface,
            registration_limit=registration_limit
            if registration_limit is not None
            else self.config.registration_limit,
            use_interface_groups=use_interface_groups,
            use_targets=use_targets,
        )
        rac = RoutingAlgorithmContainer(config=config, algorithm=algorithm)
        self.racs.append(rac)
        return rac

    def add_on_demand_rac(
        self,
        rac_id: str,
        max_paths_per_interface: int = 20,
        registration_limit: Optional[int] = None,
        cache_enabled: bool = True,
    ) -> RoutingAlgorithmContainer:
        """Create, register and return an on-demand RAC."""
        fetcher = AlgorithmFetcher(
            transport=lambda origin_as, algorithm_id: self.transport.fetch_algorithm(
                self.as_id, origin_as, algorithm_id
            ),
            cache_enabled=cache_enabled,
        )
        manager = OnDemandAlgorithmManager(fetcher=fetcher, cache_enabled=cache_enabled)
        config = RACConfig(
            rac_id=rac_id,
            on_demand=True,
            max_paths_per_interface=max_paths_per_interface,
            registration_limit=registration_limit
            if registration_limit is not None
            else self.config.registration_limit,
        )
        rac = RoutingAlgorithmContainer(config=config, on_demand_manager=manager)
        self.racs.append(rac)
        return rac

    def remove_rac(self, rac_id: str) -> bool:
        """Remove the RAC with ``rac_id``; return whether one was removed.

        Hot-swapping an algorithm (dynamic scenarios) is remove + add: the
        replacement RAC starts from fresh algorithm state, as a freshly
        deployed container would.
        """
        remaining = [rac for rac in self.racs if rac.config.rac_id != rac_id]
        removed = len(remaining) != len(self.racs)
        self.racs = remaining
        return removed

    # ------------------------------------------------------------------
    # dynamic-topology invalidation
    # ------------------------------------------------------------------
    def invalidate_link(self, link_id: LinkID) -> Tuple[int, int]:
        """Withdraw all state crossing a failed link — returned pull beacons
        over it included, before an orchestrator can consume them."""
        failed = normalize_link_id(*link_id)
        if self.pull_results:
            self.pull_results = [
                (beacon, at_ms)
                for beacon, at_ms in self.pull_results
                if failed not in beacon.link_set()
            ]
        return super().invalidate_link(failed)

    def invalidate_as(self, gone_as: int) -> Tuple[int, int]:
        """Withdraw all state whose AS path crosses a departed AS."""
        if self.pull_results:
            self.pull_results = [
                (beacon, at_ms)
                for beacon, at_ms in self.pull_results
                if not beacon.contains_as(gone_as)
            ]
        return super().invalidate_as(gone_as)

    # ------------------------------------------------------------------
    # pull-based and on-demand routing
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def publish_algorithm(self, algorithm_id: str, payload: bytes) -> str:
        """Publish an on-demand payload; return its hash for PCB extensions."""
        return self.repository.publish(algorithm_id, payload)

    def originate(self, now_ms: float) -> List[Beacon]:
        """Originate the periodic (push) beacons of this AS.

        One beacon is created per local interface; when interface groups
        are enabled, each beacon carries the group of its interface.
        """
        originated: List[Beacon] = []
        attached = set(self.view.interface_ids())
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
        interfaces: Optional[Sequence[int]] = None,
    ) -> List[Beacon]:
        """Originate pull-based beacons towards ``target_as``.

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
        return self.egress.originate(now_ms=now_ms, interfaces=interfaces, extensions=extensions)

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

        report.propagated = self.egress.propagate(all_selections, now_ms=now_ms)
        report.registered = self.egress.register(all_selections, now_ms=now_ms)
        if self.config.register_down_segments:
            # Announce each registration that was news to the local path
            # service (EgressGateway.register holds the rule) back along its
            # segment: the message hops toward the origin, which registers it
            # as a down-segment on arrival (see receive_path_registration).
            for path, arrival_interface in self.egress.take_registered():
                if arrival_interface is None:
                    continue
                announcement = PathRegistrationMessage(
                    origin_as=self.as_id,
                    sequence=next(self._message_sequence),
                    created_at_ms=now_ms,
                    path=path,
                    register_at_origin=True,
                )
                self.transport.send_message(self.as_id, arrival_interface, announcement)
                self.egress.stats.announced += 1
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

"""The egress gateway (paper §V-D).

The egress gateway is responsible for everything that leaves the AS's
control plane:

* **PCB initialization** — originating fresh beacons on the AS's egress
  interfaces with static metadata, optional Target / Algorithm /
  InterfaceGroup extensions, and the origin's signature,
* **PCB propagation** — taking the per-egress-interface optimal beacons
  selected by the RACs, deduplicating them against the egress database
  (which only stores beacon hashes), extending them with the local AS entry
  (including intra-AS latency between ingress and egress interface and the
  egress link's metadata), signing and sending them to the corresponding
  neighbours,
* **pull return** — sending pull-based beacons whose target is the local AS
  back to their origin instead of propagating them, and
* **path registration** — terminating selected beacons (once per stored
  ingress record, which keeps the segment) and registering them at the
  local path service, tagged with the criteria they were optimized for,
  and announcing each registration that was news back along its segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.core.beacon import Beacon, BeaconBuilder
from repro.core.databases import EgressDatabase, PathService, RegisteredPath, Registration
from repro.core.extensions import ExtensionSet
from repro.core.local_view import LocalTopologyView
from repro.core.messages import PathRegistrationMessage, PCBMessage
from repro.core.rac import RACSelection
from repro.core.transport import ControlPlaneTransport
from repro.exceptions import GatewayError, LoopError
from repro.topology.entities import LinkID


@dataclass
class EgressStats:
    """Counters kept by the egress gateway."""

    originated: int = field(default=0, init=False)
    propagated: int = field(default=0, init=False)
    suppressed_duplicates: int = field(default=0, init=False)
    registered: int = field(default=0, init=False)
    #: Registrations that added neither a digest nor a criteria tag to the
    #: local path service, and down-segment announcements sent.  Both move
    #: only with ``register_down_segments`` on; ``announced`` over
    #: ``registered`` is the share of registrations that were news.
    reregistered: int = field(default=0, init=False)
    announced: int = field(default=0, init=False)


@dataclass
class EgressGateway:
    """Originates, propagates, returns and registers beacons for one AS.

    The gateway keeps no per-segment state of its own: :meth:`register`
    terminates a stored record once and keeps the segment on the record
    (``CandidateBeacon._segment``), so the segment lives exactly as long
    as the ingress database holds the record.
    """

    view: LocalTopologyView
    builder: BeaconBuilder
    transport: ControlPlaneTransport
    database: EgressDatabase = field(default_factory=EgressDatabase)
    path_service: PathService = field(default_factory=PathService)
    #: When enabled, every registration that was news to the local path
    #: service (:meth:`register` holds the rule) is announced back along its
    #: segment as a :class:`PathRegistrationMessage`.
    register_down_segments: bool = False
    stats: EgressStats = field(default_factory=EgressStats, init=False)

    @property
    def as_id(self) -> int:
        """Return the local AS identifier."""
        return self.view.as_id

    # ------------------------------------------------------------------
    # origination
    # ------------------------------------------------------------------
    def originate(
        self,
        now_ms: float,
        interfaces: Optional[Sequence[int]] = None,
        extensions: Optional[ExtensionSet] = None,
    ) -> List[Beacon]:
        """Originate one beacon per egress interface and send it.

        Args:
            now_ms: Current simulated time.
            interfaces: Interfaces to originate on; defaults to all local
                interfaces.
            extensions: Extensions to stamp on every originated beacon
                (e.g. a target for pull-based routing or an algorithm for
                on-demand routing).  The interface-group extension is the
                caller's responsibility (see the control service, which
                knows the grouping assignment).

        Returns:
            The originated beacons, in interface order.
        """
        selected = tuple(interfaces) if interfaces is not None else self.view.interface_ids()
        originated = []
        for interface_id in selected:
            static_info = self.view.static_info_for(None, interface_id)
            beacon = self.builder.originate(
                egress_interface=interface_id,
                created_at_ms=now_ms,
                static_info=static_info,
                extensions=extensions,
            )
            self.transport.send_message(self.as_id, interface_id, PCBMessage(beacon))
            self.stats.originated += 1
            originated.append(beacon)
        return originated

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self, selections: Iterable[RACSelection]) -> None:
        """Propagate RAC-selected beacons to the corresponding neighbours.

        Pull-based beacons whose target is the local AS are returned to
        their origin instead (once per beacon, regardless of how many RACs
        selected them).
        """
        for selection in selections:
            beacon = selection.beacon
            digest = beacon.digest()

            if beacon.target_as == self.as_id:
                self._return_to_origin(selection, digest)
                continue

            candidate_interfaces = self._loop_free_interfaces(
                beacon, selection.egress_interfaces
            )
            fresh = self.database.filter_new_interfaces(
                digest, candidate_interfaces, expires_at_ms=beacon.expires_at_ms()
            )
            ingress_interface = selection.stored.ingress_interface
            arrival = self._arrival(ingress_interface)
            for egress_interface in fresh:
                extended = self.builder.extend(
                    beacon,
                    ingress_interface=ingress_interface,
                    egress_interface=egress_interface,
                    static_info=self.view.static_info_for(ingress_interface, egress_interface),
                    arrival=arrival,
                )
                self.transport.send_message(self.as_id, egress_interface, PCBMessage(extended))
                self.stats.propagated += 1

    def _arrival(self, interface_id: Optional[int]) -> Optional[LinkID]:
        """Return the topology's ``Link.key`` of the link on a local interface, if any."""
        link = self.view.links_by_interface.get(interface_id)
        return None if link is None else link.key

    def _loop_free_interfaces(
        self, beacon: Beacon, interfaces: Sequence[int]
    ) -> List[int]:
        """Drop egress interfaces whose neighbouring AS is already on the path."""
        result = []
        neighbor_as = self.view.neighbor_as
        for interface_id in interfaces:
            if not beacon.contains_as(neighbor_as(interface_id)):
                result.append(interface_id)
        return result

    def _return_to_origin(self, selection: RACSelection, digest: str) -> None:
        """Terminate a pull beacon at its target and send it back to the origin."""
        already_returned = self.database.filter_new_interfaces(
            digest, [-1], expires_at_ms=selection.beacon.expires_at_ms()
        )
        if not already_returned:
            self.stats.suppressed_duplicates += 1
            return
        ingress_interface = selection.stored.ingress_interface
        terminated = self.builder.terminate(
            selection.beacon,
            ingress_interface=ingress_interface,
            static_info=self.view.static_info_for(ingress_interface, None),
            arrival=self._arrival(ingress_interface),
        )
        self.transport.return_beacon_to_origin(self.as_id, terminated)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, selections: Iterable[RACSelection], now_ms: float) -> None:
        """Terminate and register selected beacons at the local path service.

        Each RAC's registrations are capped by its configured registration
        limit through the path service's per-(criteria, origin, group)
        quota.  A stored record is terminated (and signed) once: the segment
        is kept on the record and every later registration of it reuses
        that object.  A record withdrawn from the ingress database takes its
        segment along, so a beacon received again is terminated again, to a
        segment with an equal digest.

        With ``register_down_segments`` on, a registration is announced
        back along its segment (out the interface the beacon arrived on)
        only when the local path service reports it as news
        (:class:`Registration`): the segment's digest was not held, or the
        stored record did not carry one of the selection's criteria tags.
        A repeat of a known ``(digest, tag)`` changes nothing in the path
        service, counts in ``stats.registered`` and ``stats.reregistered``,
        and sends nothing.  The path service is
        the only memory of what was announced before, so a path withdrawn by
        revocation, AS departure or expiry is news again when it returns.
        """
        announce = self.register_down_segments
        for selection in selections:
            stored = selection.stored
            beacon = stored.beacon
            if beacon.origin_as == self.as_id:
                continue
            arrival_interface = stored.ingress_interface
            segment = stored._segment
            if segment is None:
                try:
                    segment = self.builder.terminate(
                        beacon,
                        ingress_interface=arrival_interface,
                        static_info=self.view.static_info_for(arrival_interface, None),
                        arrival=self._arrival(arrival_interface),
                    )
                except LoopError as exc:
                    raise GatewayError(
                        f"cannot terminate beacon for registration: {exc}"
                    ) from exc
                object.__setattr__(stored, "_segment", segment)
            path = RegisteredPath(
                segment=segment, criteria_tags=selection.criteria_tags, registered_at_ms=now_ms
            )
            outcome = self.path_service.register(path)
            if not outcome:
                continue
            self.stats.registered += 1
            if not announce:
                continue
            if outcome is Registration.REPEAT:
                self.stats.reregistered += 1
            elif arrival_interface is not None:
                self.transport.send_message(
                    self.as_id, arrival_interface, PathRegistrationMessage(path)
                )
                self.stats.announced += 1

    def expire(self, now_ms: float) -> None:
        """Expire outdated entries from the egress database and path service."""
        self.database.remove_expired(now_ms)
        self.path_service.remove_expired(now_ms)

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
* **path registration** — terminating selected beacons (once per beacon and
  arrival interface) and registering them at the local path service, tagged
  with the criteria they were optimized for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.beacon import Beacon, BeaconBuilder, DEFAULT_VALIDITY_MS
from repro.core.databases import EgressDatabase, PathService, RegisteredPath
from repro.core.extensions import ExtensionSet
from repro.core.local_view import LocalTopologyView
from repro.core.messages import PCBMessage
from repro.core.rac import RACSelection
from repro.core.transport import ControlPlaneTransport
from repro.exceptions import GatewayError, LoopError


@dataclass
class EgressStats:
    """Counters kept by the egress gateway."""

    originated: int = 0
    propagated: int = 0
    returned_to_origin: int = 0
    suppressed_duplicates: int = 0
    suppressed_loops: int = 0
    registered: int = 0
    #: Registrations that added neither a digest nor a criteria tag to the
    #: local path service, and down-segment announcements sent.  Both move
    #: only with ``collect_registered`` on; ``announced`` over ``registered``
    #: is the share of registrations that were news.
    reregistered: int = 0
    announced: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.originated = 0
        self.propagated = 0
        self.returned_to_origin = 0
        self.suppressed_duplicates = 0
        self.suppressed_loops = 0
        self.registered = 0
        self.reregistered = 0
        self.announced = 0


@dataclass
class EgressGateway:
    """Originates, propagates, returns and registers beacons for one AS."""

    view: LocalTopologyView
    builder: BeaconBuilder
    transport: ControlPlaneTransport
    database: EgressDatabase = field(default_factory=EgressDatabase)
    path_service: PathService = field(default_factory=PathService)
    beacon_validity_ms: float = DEFAULT_VALIDITY_MS
    stats: EgressStats = field(default_factory=EgressStats)
    #: When enabled, the registrations that were news to the local path
    #: service (:meth:`register` holds the rule) are additionally collected
    #: as ``(path, arrival_interface)`` pairs until :meth:`take_registered`
    #: drains them — the down-segment announcement feed.  Off by default so
    #: the registration hot path stays allocation-free.
    collect_registered: bool = False
    _registered_feed: List[Tuple[RegisteredPath, Optional[int]]] = field(
        default_factory=list
    )
    #: Terminated (signed) segment per ``(beacon digest, arrival interface)``:
    #: a selection repeated round after round is terminated once, not once
    #: per round.  :meth:`expire` drops the segments that ran out.
    _terminated: Dict[Tuple[str, Optional[int]], Beacon] = field(default_factory=dict)
    #: Envelope sequence numbers of the PCB messages this gateway sends.
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))

    def take_registered(self) -> List[Tuple[RegisteredPath, Optional[int]]]:
        """Drain and return the collected ``(path, arrival_interface)`` pairs."""
        drained = self._registered_feed
        self._registered_feed = []
        return drained

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
                validity_ms=self.beacon_validity_ms,
            )
            self.transport.send_message(
                self.as_id,
                interface_id,
                PCBMessage(
                    origin_as=self.as_id,
                    sequence=next(self._sequence),
                    created_at_ms=now_ms,
                    beacon=beacon,
                ),
            )
            self.stats.originated += 1
            originated.append(beacon)
        return originated

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def propagate(self, selections: Iterable[RACSelection], now_ms: float) -> int:
        """Propagate RAC-selected beacons to the corresponding neighbours.

        Pull-based beacons whose target is the local AS are returned to
        their origin instead (once per beacon, regardless of how many RACs
        selected them).

        Returns:
            The number of PCBs actually sent to neighbours.
        """
        sent = 0
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
            for egress_interface in fresh:
                extended = self.builder.extend(
                    beacon,
                    ingress_interface=selection.stored.received_on_interface,
                    egress_interface=egress_interface,
                    static_info=self.view.static_info_for(
                        selection.stored.received_on_interface, egress_interface
                    ),
                )
                self.transport.send_message(
                    self.as_id,
                    egress_interface,
                    PCBMessage(
                        origin_as=self.as_id,
                        sequence=next(self._sequence),
                        created_at_ms=now_ms,
                        beacon=extended,
                    ),
                )
                self.stats.propagated += 1
                sent += 1
        return sent

    def _loop_free_interfaces(
        self, beacon: Beacon, interfaces: Sequence[int]
    ) -> List[int]:
        """Drop egress interfaces whose neighbouring AS is already on the path."""
        result = []
        neighbor_as = self.view.neighbor_as
        for interface_id in interfaces:
            if beacon.contains_as(neighbor_as(interface_id)):
                self.stats.suppressed_loops += 1
                continue
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
        terminated = self.builder.terminate(
            selection.beacon,
            ingress_interface=selection.stored.received_on_interface,
            static_info=self.view.static_info_for(
                selection.stored.received_on_interface, None
            ),
        )
        self.transport.return_beacon_to_origin(self.as_id, terminated)
        self.stats.returned_to_origin += 1

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, selections: Iterable[RACSelection], now_ms: float) -> int:
        """Terminate and register selected beacons at the local path service.

        Each RAC's registrations are capped by its configured registration
        limit through the path service's per-(criteria, origin, group)
        quota.

        With ``collect_registered`` on, a registration is fed to
        :meth:`take_registered` only when it is news to the local path
        service: the segment's digest was not held, or the stored record did
        not carry the selection's criteria tag.  A repeat of a known
        ``(digest, tag)`` is registered like any other (timestamp refresh,
        listener notification, ``stats.registered``) and counted in
        ``stats.reregistered``.  The path service is the only memory of what
        was fed before, so a path withdrawn by revocation, AS departure or
        expiry is news again when it returns.

        Returns:
            The number of paths newly registered (or merged).
        """
        registered = 0
        collect = self.collect_registered
        for selection in selections:
            beacon = selection.beacon
            if beacon.origin_as == self.as_id:
                continue
            arrival_interface = selection.stored.received_on_interface
            key = (beacon.digest(), arrival_interface)
            segment = self._terminated.get(key)
            if segment is None:
                try:
                    segment = self.builder.terminate(
                        beacon,
                        ingress_interface=arrival_interface,
                        static_info=self.view.static_info_for(arrival_interface, None),
                    )
                except LoopError as exc:
                    raise GatewayError(
                        f"cannot terminate beacon for registration: {exc}"
                    ) from exc
                self._terminated[key] = segment
            path = RegisteredPath(
                segment=segment,
                criteria_tags=(selection.criteria_tag,),
                registered_at_ms=now_ms,
            )
            known = self.path_service.get(segment.digest()) if collect else None
            if self.path_service.register(path):
                self.stats.registered += 1
                registered += 1
                if collect:
                    if known is None or selection.criteria_tag not in known.criteria_tags:
                        self._registered_feed.append((path, arrival_interface))
                    else:
                        self.stats.reregistered += 1
        return registered

    def expire(self, now_ms: float) -> Tuple[int, int]:
        """Expire outdated entries from the egress database and path service."""
        self._terminated = {
            key: segment
            for key, segment in self._terminated.items()
            if not segment.is_expired(now_ms)
        }
        return (
            self.database.remove_expired(now_ms),
            self.path_service.remove_expired(now_ms),
        )

"""Control-plane transport abstraction.

Control services interact across AS boundaries through one typed message
fabric (:mod:`repro.core.messages`): PCBs, revocations, path
registrations and path queries are all
:class:`~repro.core.messages.ControlMessage`\\ s a sender frames itself
and hands to :meth:`~ControlPlaneTransport.send_message`, which delivers
them over one link to the far end's ``on_message`` dispatch.
``return_beacon_to_origin`` is the fabric's second *routing mode*, not a
second framing: the returned pull beacon travels its own multi-hop reverse
path in one step (no link, no inbox), framed as a typed
:class:`~repro.core.messages.PullReturnMessage` and dispatched like every
other message.  Fetching an on-demand algorithm payload stays a
synchronous round trip.  The transport is abstracted behind a small
protocol so that

* the discrete-event simulation can deliver messages with realistic link
  delays, per-AS inboxes and batched drains, and count propagated messages
  per interface and period (Figure 8c),
* unit tests can use :class:`LoopbackTransport`, which delivers
  synchronously to in-process control services, and
* the micro-benchmarks can run a single control service with a
  :class:`NullTransport` that swallows messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Protocol, Tuple

from repro.core.beacon import Beacon
from repro.core.messages import ControlMessage, PCBMessage, PullReturnMessage
from repro.exceptions import SimulationError, UnknownASError


class ControlPlaneTransport(Protocol):
    """The inter-AS operations a control service relies on."""

    def send_message(
        self, sender_as: int, egress_interface: int, message: ControlMessage
    ) -> None:
        """Deliver ``message`` over the link attached to ``egress_interface``."""

    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Return a terminated pull-based ``beacon`` to its origin AS."""

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Fetch an on-demand algorithm payload from ``origin_as``."""


@dataclass
class NullTransport:
    """A transport that records outgoing messages but delivers nothing.

    Used by micro-benchmarks that exercise a single AS in isolation.
    """

    sent: List[Tuple[int, int, Beacon]] = field(default_factory=list)
    returned: List[Tuple[int, Beacon]] = field(default_factory=list)
    revoked: List[Tuple[int, int, object]] = field(default_factory=list)
    messages: List[Tuple[int, int, ControlMessage]] = field(default_factory=list)
    payloads: Dict[Tuple[int, str], bytes] = field(default_factory=dict)

    def send_message(
        self, sender_as: int, egress_interface: int, message: ControlMessage
    ) -> None:
        """Record the typed message without delivering it."""
        self.messages.append((sender_as, egress_interface, message))
        if isinstance(message, PCBMessage):
            self.sent.append((sender_as, egress_interface, message.beacon))
        elif message.kind == "revocation":
            self.revoked.append((sender_as, egress_interface, message))

    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Record the return, typed, without delivering it."""
        self.returned.append((sender_as, beacon))
        self.messages.append(
            (
                sender_as,
                -1,
                PullReturnMessage(
                    origin_as=sender_as,
                    sequence=len(self.messages) + 1,
                    created_at_ms=0.0,
                    beacon=beacon,
                ),
            )
        )

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Serve a payload from the locally configured table."""
        try:
            return self.payloads[(origin_as, algorithm_id)]
        except KeyError:
            raise SimulationError(
                f"no payload configured for ({origin_as}, {algorithm_id!r})"
            ) from None


@dataclass
class LoopbackTransport:
    """Synchronous in-process delivery between registered control services.

    Control services register themselves under their AS identifier; sending
    a message looks up the link's far end in the shared topology and invokes
    the destination service's ``on_message`` dispatch immediately.  Time is
    whatever the caller passes via :attr:`clock`.
    """

    topology: "object"  # repro.topology.graph.Topology; kept loose to avoid import cycles
    clock: Callable[[], float] = lambda: 0.0
    services: Dict[int, "object"] = field(default_factory=dict)
    sent_count: int = 0
    revocations_sent: int = 0
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))

    def register(self, service: "object") -> None:
        """Register a control service (anything with ``as_id`` and handlers)."""
        self.services[service.as_id] = service

    def send_message(
        self, sender_as: int, egress_interface: int, message: ControlMessage
    ) -> None:
        """Deliver ``message`` synchronously to the far end of the link."""
        link = self.topology.link_of_interface((sender_as, egress_interface))
        remote_as, remote_interface = link.other_end((sender_as, egress_interface))
        service = self.services.get(remote_as)
        if service is None:
            raise UnknownASError(remote_as)
        if isinstance(message, PCBMessage):
            self.sent_count += 1
        elif message.kind == "revocation":
            self.revocations_sent += 1
        if message.needs_hop_tracking():
            message = message.with_hop(remote_as)
        service.on_message(message, on_interface=remote_interface, now_ms=self.clock())

    def return_beacon_to_origin(self, sender_as: int, beacon: Beacon) -> None:
        """Deliver a returned pull-based beacon to its origin's control service.

        Path-travel delivery: the beacon is framed as a
        :class:`PullReturnMessage` and handed straight to the origin's
        ``on_message`` dispatch, which routes it to
        ``receive_returned_beacon``.
        """
        service = self.services.get(beacon.origin_as)
        if service is None:
            raise UnknownASError(beacon.origin_as)
        message = PullReturnMessage(
            origin_as=sender_as,
            sequence=next(self._sequence),
            created_at_ms=self.clock(),
            beacon=beacon,
        )
        service.on_message(message, on_interface=-1, now_ms=self.clock())

    def fetch_algorithm(self, requester_as: int, origin_as: int, algorithm_id: str) -> bytes:
        """Fetch a payload directly from the origin's control service."""
        service = self.services.get(origin_as)
        if service is None:
            raise UnknownASError(origin_as)
        return service.serve_algorithm(algorithm_id)

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
  per interface and period (Figure 8c) — the one delivering transport,
  :class:`repro.simulation.network.SimulatedTransport`, which multi-AS
  unit tests use too — and
* single-AS unit tests can use :class:`NullTransport`, a recording fake
  that delivers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Tuple

from repro.core.beacon import Beacon
from repro.core.messages import ControlMessage, PCBMessage, PullReturnMessage
from repro.exceptions import SimulationError


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

    The recording fake for unit tests that exercise a single AS in
    isolation.
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

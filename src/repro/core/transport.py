"""Control-plane transport abstraction.

Control services interact across AS boundaries through one typed message
fabric (:mod:`repro.core.messages`): PCBs, revocations and down-segment
announcements are all :class:`~repro.core.messages.ControlMessage`\\ s a
sender frames itself and hands to
:meth:`~ControlPlaneTransport.send_message`, which delivers them over one
link to the far end's ``on_message_batch`` dispatch.
``return_beacon_to_origin`` is the fabric's second *routing mode*, not a
message type: the returned pull beacon travels its own multi-hop reverse
path in one step (no link, no inbox) and is handed straight to the
origin's ``receive_returned_beacon``.  Fetching an on-demand algorithm
payload stays a synchronous round trip.  The transport is abstracted
behind a small protocol so that

* the discrete-event simulation can deliver messages with realistic link
  delays, per-AS inboxes and batched drains, and count propagated messages
  per interface and period (Figure 8c) — the one delivering transport,
  :class:`repro.simulation.network.SimulatedTransport`, which multi-AS
  unit tests use too — and
* single-AS unit tests can use a recording fake that delivers nothing.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.beacon import Beacon
from repro.core.messages import ControlMessage


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

"""Typed control-plane messages: the vocabulary of the unified message fabric.

The control plane of the paper is one conversation among ASes — beacons,
down-segment announcements and revocations all travel over the same
inter-AS links.  Every such interaction is a :class:`ControlMessage`,
and one generic transport path
(:meth:`repro.simulation.network.SimulatedTransport.send_message`) routes
all of them with uniform per-hop latency, loss and metrics treatment.
A PCB or a down-segment announcement carries only its payload: the
beacon's header already names its origin and creation time.  A
revocation, which every receiver deduplicates and verifies, also carries
its origin, a per-origin sequence number and its origination time.

Message types
-------------

* :class:`PCBMessage` — one path-construction beacon in flight over one
  link (the fabric's framing of :class:`repro.core.beacon.Beacon`).
* :class:`RevocationMessage` — the signed withdrawal of one **or several**
  failed elements (inter-domain links and/or departed ASes), with
  *batching* (several failed elements in one message).
* :class:`PathRegistrationMessage` — a down-segment announcement: a
  terminated path segment travelling hop-by-hop back along the segment to
  its origin (core) AS, which registers it on arrival.

A pull-requested beacon's return to its origin is not a message type: the
transport delivers it over the beacon's own path straight to
:meth:`repro.core.control_service.IrecControlService.receive_returned_beacon`
and counts it under the ledger kind ``"pull_return"``.

A message is never copied or altered in flight.  Every receiver gets the
very object its sender sent, so a revocation flood forwards the one
original object per branch and costs O(1) per delivered copy.  No
receiver relies on that sharing: every pinned digest holds when each
delivery is a deserialized copy instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional, Tuple

from repro.core.beacon import Beacon, _slot
from repro.core.databases import RegisteredPath
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID, format_link, normalize_link_id


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base of every typed control-plane message."""

    #: Stable short name used by the transport's per-kind metrics routing.
    kind: ClassVar[str] = "control"


@dataclass(frozen=True, slots=True)
class PCBMessage(ControlMessage):
    """One path-construction beacon in flight over one inter-AS link.

    The fabric's framing of a :class:`~repro.core.beacon.Beacon`, which is
    immutable and shared: its header names its origin and creation time,
    and its own AS path doubles as its hop record.
    """

    beacon: Beacon

    kind: ClassVar[str] = "pcb"


@dataclass(frozen=True, slots=True)
class RevocationMessage(ControlMessage):
    """One signed, sequence-numbered revocation of failed network elements.

    Originated by an AS adjacent to a failure and flooded hop-by-hop; every
    receiving control service deduplicates it by ``(origin_as, sequence)``,
    withdraws matching state and re-forwards it (see
    :meth:`repro.core.control_service.IrecControlService.on_revocation`).

    A message names **at least one** failed element; several
    simultaneously failed elements batch into one message via
    ``failed_links`` / ``failed_ases``, which hold the normalised,
    de-duplicated element sets in naming order.  Its ``sequence`` is a
    64-bit field: at least 1, below 2**63.

    Attributes:
        origin_as: AS that originated the message.
        sequence: Per-origin sequence number; ``(origin_as, sequence)`` is
            the message's network-wide identity.
        created_at_ms: Simulated origination time.
        failed_links: Every revoked link named by this message.
        failed_ases: Every departed AS named by this message.
        signature: Signature of ``origin_as`` over the canonical encoding;
            empty until :meth:`signed` fills it in a copy.
    """

    origin_as: int
    sequence: int
    created_at_ms: float
    failed_links: Tuple[LinkID, ...] = ()
    failed_ases: Tuple[int, ...] = ()
    signature: bytes = field(default=b"", init=False)
    #: Memo of :attr:`key`: a declared slot (``init=False``), so copies
    #: start cold, and every AS a flood reaches stores the one tuple the
    #: shared message carries.
    _key: Optional[Tuple[int, int]] = _slot()
    _failed_link_set: Optional[frozenset] = _slot()
    _failed_as_set: Optional[frozenset] = _slot()
    _encoded_unsigned: Optional[str] = _slot()

    kind: ClassVar[str] = "revocation"

    def __post_init__(self) -> None:
        links = []
        for link in self.failed_links:
            normalised = normalize_link_id(*link)
            if normalised not in links:
                links.append(normalised)
        ases = []
        for as_id in self.failed_ases:
            if int(as_id) not in ases:
                ases.append(int(as_id))
        if not links and not ases:
            raise ConfigurationError(
                "a revocation names at least one failed element (link or AS)"
            )
        object.__setattr__(self, "failed_links", tuple(links))
        object.__setattr__(self, "failed_ases", tuple(ases))
        if not 1 <= self.sequence < 2**63:
            # A sequence is a 64-bit field: every AS's withdrawal ledger
            # keeps it as one (repro.core.revocation.WithdrawalLedger).
            raise ConfigurationError(
                f"sequence must be in [1, 2**63), got {self.sequence}"
            )

    @property
    def key(self) -> Tuple[int, int]:
        """Return the network-wide identity ``(origin_as, sequence)`` (memoized)."""
        key = self._key
        if key is None:
            key = (self.origin_as, self.sequence)
            object.__setattr__(self, "_key", key)
        return key

    @property
    def failed_link_set(self) -> frozenset:
        """Return the revoked links as a frozenset (memoized)."""
        links = self._failed_link_set
        if links is None:
            links = frozenset(self.failed_links)
            object.__setattr__(self, "_failed_link_set", links)
        return links

    @property
    def failed_as_set(self) -> frozenset:
        """Return the departed ASes as a frozenset (memoized)."""
        ases = self._failed_as_set
        if ases is None:
            ases = frozenset(self.failed_ases)
            object.__setattr__(self, "_failed_as_set", ases)
        return ases

    def encode_unsigned(self) -> str:
        """Return the canonical encoding without the signature (memoized).

        Single-element messages keep the exact pre-fabric encoding, so their
        signatures are byte-identical to the first revocation messages'.
        """
        encoded = self._encoded_unsigned
        if encoded is not None:
            return encoded
        parts = [f"link={format_link(link)}" for link in self.failed_links]
        parts.extend(f"as={as_id}" for as_id in self.failed_ases)
        element = ";".join(parts)
        encoded = (
            f"revocation(origin={self.origin_as},seq={self.sequence},"
            f"created={self.created_at_ms:.3f},{element})"
        )
        object.__setattr__(self, "_encoded_unsigned", encoded)
        return encoded

    def signed(self, signer: Signer) -> "RevocationMessage":
        """Return a copy carrying ``signer``'s signature over the encoding."""
        signed = replace(self)
        object.__setattr__(signed, "signature", signer.sign(self.encode_unsigned().encode("utf-8")))
        return signed

    def verify(self, verifier: Verifier) -> None:
        """Raise :class:`SignatureError` unless the origin's signature is valid."""
        verifier.verify(
            self.origin_as, self.encode_unsigned().encode("utf-8"), self.signature
        )

    def trace_label(self) -> str:
        """Return the stable one-line trace representation of the message.

        Single-element messages keep the exact pre-fabric label (pinned by
        the golden traces); batched messages join their elements with
        ``+``.
        """
        parts = [f"link {format_link(link)}" for link in self.failed_links]
        parts.extend(f"as {as_id}" for as_id in self.failed_ases)
        element = "+".join(parts)
        return f"revoke {element} origin={self.origin_as} seq={self.sequence}"


@dataclass(frozen=True, slots=True)
class PathRegistrationMessage(ControlMessage):
    """A down-segment announcement: a terminated segment sent to its origin.

    The AS that registered the segment sends it back out the interface the
    beacon arrived on; every transit AS on the segment forwards it one hop
    further toward the origin (out its own ingress interface of the
    segment) without registering it, and the origin (core) AS registers
    it as a down-segment — driven by message arrival, not by direct call.
    Any other AS drops it.  The message pays per-hop latency, can be lost
    on a failed link and is counted like every other control message; the
    origin registers the path with the *arrival* time as its registration
    timestamp (the freshness contract the convergence collector relies
    on).
    """

    path: RegisteredPath

    kind: ClassVar[str] = "path_registration"

"""Typed control-plane messages: the vocabulary of the unified message fabric.

The control plane of the paper is one conversation among ASes — beacons,
path registrations and revocations all travel over the same inter-AS links
— yet the reproduction grew three parallel transport code paths, each with
its own latency accounting, loss handling and metrics hooks.  This module
is the common vocabulary that collapses them: every inter-AS control-plane
interaction is a :class:`ControlMessage` carrying a shared **envelope**
(origin AS, per-origin sequence number, origination time, hop path and a
wire-size estimate), and one generic transport path
(:meth:`repro.simulation.network.SimulatedTransport.send_message`) routes
all of them with uniform per-hop latency, loss and metrics treatment.

Message types
-------------

* :class:`PCBMessage` — one path-construction beacon in flight over one
  link (the fabric's framing of :class:`repro.core.beacon.Beacon`, built
  by the sending AS: its id as origin, its own sequence).
* :class:`RevocationMessage` — the signed withdrawal of one **or several**
  failed elements (inter-domain links and/or departed ASes).  Riding the
  shared envelope it gained *batching* (several failed elements in one
  message), *TTL* (``ttl_ms``: receivers drop copies older than the TTL
  instead of applying stale withdrawals) and *scope limiting*
  (``max_hops``: the flood stops re-forwarding once a copy has traversed
  that many hops — the envelope's hop path is the witness).
* :class:`PathRegistrationMessage` — a terminated path segment offered to
  a neighbouring AS's path service, turning path registration from a
  direct method call into first-class control-plane traffic.  With
  ``register_at_origin`` set, the message travels hop-by-hop back along
  the segment and is registered as a *down-segment* at the origin (core)
  AS — driven by message arrival, not by direct call.
* :class:`PullReturnMessage` — a pull-requested beacon travelling back to
  the AS that asked for it.  ``transport.return_beacon_to_origin`` frames
  the returned beacon as this message and delivers it — over the beacon's
  own reverse path, not one link — through the same ``on_message``
  dispatch as every other control message.
* :class:`PathQueryMessage` / :class:`PathQueryResponse` — a typed path
  lookup against a remote AS's query frontend and its materialized
  answer, correlated by the requester's ``(origin_as, sequence)``.

Hop tracking
------------

The envelope's ``hop_path`` records the ASes a copy traversed.  Stamping a
hop copies the (frozen) message, so the fabric only does it when a message
*needs* it (:meth:`ControlMessage.needs_hop_tracking` — e.g. a
scope-limited revocation).  The unscoped revocation flood therefore still
forwards the one original object per branch, keeping the per-message flood
cost O(1) — see the ROADMAP's flood fast-path invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple, Optional, Tuple

from repro.core.beacon import Beacon, _slot
from repro.core.databases import RegisteredPath
from repro.core.query import PathQuery
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import ConfigurationError
from repro.topology.entities import LinkID, normalize_link_id

def _format_link(link_id: LinkID) -> str:
    (as_a, if_a), (as_b, if_b) = link_id
    return f"{as_a}.{if_a}-{as_b}.{if_b}"


class MessageEnvelope(NamedTuple):
    """The shared envelope every control-plane message exposes.

    A read-only view assembled on demand from the message's own fields —
    the envelope is the *contract* (what every message must answer), not a
    second copy of the data.
    """

    origin_as: int
    sequence: int
    created_at_ms: float
    hop_path: Tuple[int, ...]
    size_bytes: int


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base of every typed control-plane message.

    Attributes:
        origin_as: AS that originated the message.
        sequence: Per-origin sequence number; ``(origin_as, sequence)`` is
            the message's network-wide identity for types that deduplicate.
        created_at_ms: Simulated origination time.
        hop_path: ASes a copy traversed so far, in order.  Only populated
            for messages whose semantics need it (see
            :meth:`needs_hop_tracking`); the fabric stamps it on delivery.
    """

    origin_as: int
    sequence: int
    created_at_ms: float
    hop_path: Tuple[int, ...] = ()
    #: ECN-style congestion signal: set by a bounded inbox in ``mark``
    #: overflow mode instead of tail-dropping the message.  Not part of
    #: any message's wire encoding or identity.
    congestion_marked: bool = False
    #: Memo of :meth:`size_bytes`: a declared slot (``init=False``), so
    #: ``with_hop`` / ``with_congestion_mark`` copies start cold.
    _size_bytes: Optional[int] = _slot()
    #: Memo of :attr:`key`, the same idiom: every AS a flood reaches stores
    #: the one tuple the shared message carries.
    _key: Optional[Tuple[int, int]] = _slot()

    #: Stable short name used by the transport's per-kind metrics routing.
    kind: ClassVar[str] = "control"

    @property
    def key(self) -> Tuple[int, int]:
        """Return the network-wide identity ``(origin_as, sequence)`` (memoized)."""
        key = self._key
        if key is None:
            key = (self.origin_as, self.sequence)
            object.__setattr__(self, "_key", key)
        return key

    @property
    def hop_count(self) -> int:
        """Return how many hops this copy has traversed."""
        return len(self.hop_path)

    @property
    def envelope(self) -> MessageEnvelope:
        """Return the shared envelope view of this message."""
        return MessageEnvelope(
            origin_as=self.origin_as,
            sequence=self.sequence,
            created_at_ms=self.created_at_ms,
            hop_path=self.hop_path,
            size_bytes=self.size_bytes(),
        )

    def with_hop(self, as_id: int) -> "ControlMessage":
        """Return a copy whose hop path records arrival at ``as_id``."""
        return replace(self, hop_path=(*self.hop_path, int(as_id)))

    def with_congestion_mark(self) -> "ControlMessage":
        """Return a copy flagged as congestion-marked (ECN-style).

        Only called by a bounded inbox in ``mark`` overflow mode, so the
        copy cost is confined to actual overflow events.
        """
        return replace(self, congestion_marked=True)

    def needs_hop_tracking(self) -> bool:
        """Return whether the fabric must stamp hops onto this message.

        Stamping copies the frozen message once per delivered hop; the
        default is ``False`` so high-volume messages (PCBs, unscoped
        revocation floods) stay copy-free on the fast path.
        """
        return False

    def size_bytes(self) -> int:
        """Return the estimated wire size of the message (memoized)."""
        size = self._size_bytes
        if size is None:
            size = self._measure_size()
            object.__setattr__(self, "_size_bytes", size)
        return size

    def _measure_size(self) -> int:
        """Compute the wire size :meth:`size_bytes` memoizes."""
        raise NotImplementedError

    def trace_label(self) -> str:
        """Return the stable one-line trace representation of the message."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class PCBMessage(ControlMessage):
    """One path-construction beacon in flight over one inter-AS link.

    The fabric's framing of a :class:`~repro.core.beacon.Beacon`: the
    beacon itself is immutable and shared, the message adds the envelope
    (the beacon's own AS path doubles as its historical hop record, so
    PCBs never need fabric-side hop stamping).
    """

    beacon: Optional[Beacon] = None

    kind: ClassVar[str] = "pcb"

    def __post_init__(self) -> None:
        if self.beacon is None:
            raise ConfigurationError("a PCB message carries exactly one beacon")

    def _measure_size(self) -> int:
        """The size of the beacon's canonical encoding."""
        return self.beacon.encoded_size()

    def trace_label(self) -> str:
        return (
            f"pcb digest={self.beacon.digest()[:12]} origin={self.origin_as} "
            f"seq={self.sequence}"
        )


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
    de-duplicated element sets in naming order.

    Attributes:
        failed_links: Every revoked link named by this message.
        failed_ases: Every departed AS named by this message.
        ttl_ms: Optional time-to-live: a copy delivered more than
            ``ttl_ms`` after ``created_at_ms`` is stale and dropped
            (neither applied nor re-forwarded).
        max_hops: Optional scope limit: a copy that has already traversed
            ``max_hops`` hops is applied locally but not re-forwarded.
            Setting it enables fabric hop stamping.
        signature: Signature of ``origin_as`` over the canonical encoding.
    """

    failed_links: Tuple[LinkID, ...] = ()
    failed_ases: Tuple[int, ...] = ()
    ttl_ms: Optional[float] = None
    max_hops: Optional[int] = None
    signature: bytes = b""
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
        if self.sequence < 1:
            raise ConfigurationError(f"sequence must be positive, got {self.sequence}")
        if self.ttl_ms is not None and self.ttl_ms <= 0:
            raise ConfigurationError(f"ttl_ms must be positive, got {self.ttl_ms}")
        if self.max_hops is not None and self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1, got {self.max_hops}")

    def needs_hop_tracking(self) -> bool:
        """Scope-limited revocations need the hop path as their witness."""
        return self.max_hops is not None

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

        Single-element messages without TTL/scope keep the exact pre-fabric
        encoding, so their signatures are byte-identical to PR 4's.
        """
        encoded = self._encoded_unsigned
        if encoded is not None:
            return encoded
        parts = [f"link={_format_link(link)}" for link in self.failed_links]
        parts.extend(f"as={as_id}" for as_id in self.failed_ases)
        element = ";".join(parts)
        extras = ""
        if self.ttl_ms is not None:
            extras += f",ttl={self.ttl_ms:.3f}"
        if self.max_hops is not None:
            extras += f",scope={self.max_hops}"
        encoded = (
            f"revocation(origin={self.origin_as},seq={self.sequence},"
            f"created={self.created_at_ms:.3f},{element}{extras})"
        )
        object.__setattr__(self, "_encoded_unsigned", encoded)
        return encoded

    def _measure_size(self) -> int:
        """The size of the canonical encoding plus the signature."""
        return len(self.encode_unsigned()) + len(self.signature)

    def signed(self, signer: Signer) -> "RevocationMessage":
        """Return a copy carrying ``signer``'s signature over the encoding."""
        signature = signer.sign(self.encode_unsigned().encode("utf-8"))
        return replace(self, signature=signature)

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
        parts = [f"link {_format_link(link)}" for link in self.failed_links]
        parts.extend(f"as {as_id}" for as_id in self.failed_ases)
        element = "+".join(parts)
        return f"revoke {element} origin={self.origin_as} seq={self.sequence}"


@dataclass(frozen=True, slots=True)
class PathRegistrationMessage(ControlMessage):
    """A terminated path segment offered to a neighbouring AS's path service.

    Turns path registration — previously a direct method call on the local
    path service — into first-class control-plane traffic: the message pays
    per-hop latency, can be lost on a failed link, and is counted by the
    metrics collector like every other control message.  The receiving
    service registers the carried path with the *arrival* time as its
    registration timestamp (the freshness contract the convergence
    collector relies on).
    """

    path: Optional[RegisteredPath] = None
    #: When set, the message is not for the adjacent AS but for the
    #: segment's *origin*: transit ASes on the segment forward it one hop
    #: toward the origin (their own reverse interface), and only the
    #: origin registers it — as a down-segment.  Default off, so existing
    #: neighbour registration is untouched.
    register_at_origin: bool = False

    kind: ClassVar[str] = "path_registration"

    def __post_init__(self) -> None:
        if self.path is None:
            raise ConfigurationError(
                "a path-registration message carries exactly one registered path"
            )

    def _measure_size(self) -> int:
        """The size of the carried segment's canonical encoding."""
        return self.path.segment.encoded_size()

    def trace_label(self) -> str:
        return (
            f"register origin={self.path.segment.origin_as} "
            f"from={self.origin_as} seq={self.sequence}"
        )


@dataclass(frozen=True, slots=True)
class PullReturnMessage(ControlMessage):
    """A pull-requested beacon travelling back to the requesting AS.

    What ``transport.return_beacon_to_origin`` delivers.  Like a PCB, the
    carried beacon's own AS path is the historical hop record, so no
    fabric-side hop stamping is needed; the message travels the beacon's
    full reverse path in one simulated step (latency = the beacon's
    end-to-end propagation delay).
    """

    beacon: Optional[Beacon] = None

    kind: ClassVar[str] = "pull_return"

    def __post_init__(self) -> None:
        if self.beacon is None:
            raise ConfigurationError("a pull-return message carries exactly one beacon")

    def _measure_size(self) -> int:
        """The size of the beacon's canonical encoding."""
        return self.beacon.encoded_size()

    def trace_label(self) -> str:
        return (
            f"pull-return digest={self.beacon.digest()[:12]} "
            f"origin={self.origin_as} seq={self.sequence}"
        )


@dataclass(frozen=True, slots=True)
class PathQueryMessage(ControlMessage):
    """A typed path lookup sent to a neighbouring AS's query frontend.

    The envelope's ``(origin_as, sequence)`` identifies the request; the
    responder echoes it in :class:`PathQueryResponse` so the requester can
    correlate answers.
    """

    query: Optional[PathQuery] = None

    kind: ClassVar[str] = "path_query"

    def __post_init__(self) -> None:
        if self.query is None:
            raise ConfigurationError("a path-query message carries exactly one query")

    def _measure_size(self) -> int:
        """The (small, fixed-ish) wire size: key fields + policy."""
        return 24 + len(self.query.policy_key())

    def trace_label(self) -> str:
        return (
            f"query origin={self.query.origin_as} from={self.origin_as} "
            f"seq={self.sequence}"
        )


@dataclass(frozen=True, slots=True)
class PathQueryResponse(ControlMessage):
    """The materialized answer to one :class:`PathQueryMessage`.

    Attributes:
        query: The query being answered.
        paths: The served paths, in the frontend's (registration) order.
        cache_hit: Whether the frontend served this from its LRU cache —
            observability only, never part of identity or wire size.
        request_origin: ``origin_as`` of the request being answered.
        request_sequence: ``sequence`` of the request being answered.
    """

    query: Optional[PathQuery] = None
    paths: Tuple[RegisteredPath, ...] = ()
    cache_hit: bool = False
    request_origin: int = 0
    request_sequence: int = 0

    kind: ClassVar[str] = "path_query_response"

    def __post_init__(self) -> None:
        if self.query is None:
            raise ConfigurationError("a path-query response names the query it answers")

    def _measure_size(self) -> int:
        """The summed segment encodings plus the echoed query."""
        return (
            24
            + len(self.query.policy_key())
            + sum(path.segment.encoded_size() for path in self.paths)
        )

    def trace_label(self) -> str:
        return (
            f"query-response origin={self.query.origin_as} paths={len(self.paths)} "
            f"from={self.origin_as} seq={self.sequence}"
        )

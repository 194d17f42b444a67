"""Path-construction beacons (PCBs).

A beacon records one inter-domain path from its **origin AS** to the AS
currently holding it, at the granularity of (AS, ingress interface, egress
interface) hops, together with per-hop static performance metadata and a
signature chain: every AS signs the entry it appends, over everything that
precedes it (paper §III).

Beacons are immutable.  Propagating a beacon to a neighbour produces a new
beacon with one more :class:`ASEntry`; registering a beacon at the local
path service produces a *terminated* beacon whose last entry has no egress
interface.  The :class:`BeaconBuilder` owned by each AS's egress gateway is
the only component that creates or extends beacons, which keeps the signing
logic in one place.

Fast-path invariants
--------------------

Beacons and their entries are **immutable**, which makes every derived
value cacheable: canonical encodings, the SHA-256 digest (the canonical
identity used for deduplication everywhere), the prefix-digest chain and
the accumulated path metrics are all computed at most once per object and
memoized in a declared slot of the record (``init=False``,
``compare=False``, so the memos are invisible to construction, equality,
hashing and ``repr``).  An accessor reads its slot and only on ``None``
computes and stores; neither record has a per-instance dictionary.

A child beacon is its parent plus one entry, so it **inherits** what the
parent has already derived instead of deriving it again: the parent's
:class:`ASEntry` objects (each keeps one encoding), the same
header-encoding string, the parent's AS path and link ids plus one element
each, and — as a *known prefix* to continue from — the parent's encoded
bytes and digest chain.  A chain of ``L`` beacons therefore holds ``O(L)``
digest strings, link ids and entry encodings in total instead of
``O(L²)``, and extending costs ``O(1)`` derived state.  Only
:meth:`Beacon.with_entry` — the one place that knows "child = parent + one
entry" — hands state down, and what it hands down are derived immutables
(``bytes`` / ``tuple`` / ``str``), never the parent object: ancestors are
not kept alive, and a beacon built any other way (constructed directly,
``dataclasses.replace``d, hence every tampered copy) starts cold.  Every
derivation is written once, as "continue from the longest known prefix";
cold is its empty-prefix case, not a second implementation.

The digest is defined as ``sha256(header | entry_0 | … | entry_{L-1})``;
element ``i`` of the :meth:`Beacon.prefix_digests` chain is the digest the
beacon had when entry ``i`` was its last entry.  The ingress gateway keys
its verified-prefix cache on this chain, so both dedup and incremental
re-verification come out of one pass over the encoding.  Signatures are
always checked against the entries' own encodings, never against
inherited state.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto.hashing import beacon_digest, count_crypto_op
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError
from repro.core.extensions import ExtensionSet
from repro.core.staticinfo import StaticInfo
from repro.topology.entities import InterfaceID, LinkID, normalize_link_id

#: Default beacon validity: SCION caps PCB lifetimes with a global upper
#: bound; we use six hours of simulated time.
DEFAULT_VALIDITY_MS = 6.0 * 60.0 * 60.0 * 1000.0

_beacon_sequence = itertools.count(1)


def _slot():
    """Declare a derived value's slot: reset by ``replace``, outside ``==`` / hash / repr."""
    return field(default=None, init=False, repr=False, compare=False)


def _encode_unsigned(
    as_id: int, ingress: Optional[int], egress: Optional[int], static_info: StaticInfo
) -> str:
    """Return the canonical encoding of an entry's fields without its signature."""
    return f"entry(as={as_id},in={ingress},out={egress},{static_info.encode()})"


def _encode_header(
    origin_as: int, created_at_ms: float, validity_ms: float, extensions: ExtensionSet
) -> str:
    """Return the canonical encoding of a beacon header."""
    return (
        f"pcb(origin={origin_as},created={created_at_ms:.3f},"
        f"validity={validity_ms:.3f},{extensions.encode()})"
    )


def _extend_as_path(known: Tuple[int, ...], entries: Tuple["ASEntry", ...]) -> Tuple[int, ...]:
    """Continue ``known``, the AS path of a prefix of ``entries``, to the last entry."""
    return known + tuple(entry.as_id for entry in entries[len(known) :])


def _extend_links(known: Tuple[LinkID, ...], entries: Tuple["ASEntry", ...]) -> Tuple[LinkID, ...]:
    """Continue ``known``, the link ids among a prefix of ``entries``, to the last entry."""
    result = list(known)
    for previous, current in zip(entries[len(known) :], entries[len(known) + 1 :]):
        if previous.egress_interface is None or current.ingress_interface is None:
            raise BeaconError("interior beacon entries must specify both interfaces")
        a: InterfaceID = (previous.as_id, previous.egress_interface)
        b: InterfaceID = (current.as_id, current.ingress_interface)
        result.append(normalize_link_id(a, b))
    return tuple(result)


@dataclass(frozen=True, slots=True)
class ASEntry:
    """One AS hop of a beacon.

    Attributes:
        as_id: The AS that appended this entry.
        ingress_interface: Local interface on which the beacon was received;
            ``None`` for the origin entry.
        egress_interface: Local interface over which the beacon was (or will
            be) propagated; ``None`` for a terminal entry created at
            registration time.
        static_info: Per-hop performance metadata.
        signature: Signature of ``as_id`` over the beacon prefix ending in
            this entry.
    """

    as_id: int
    ingress_interface: Optional[int]
    egress_interface: Optional[int]
    static_info: StaticInfo = field(default_factory=StaticInfo)
    signature: bytes = b""
    _encoded: Optional[str] = _slot()

    def encode_unsigned(self) -> str:
        """Return the canonical encoding of the entry without its signature.

        An entry keeps one encoding: this is :meth:`encode` minus its
        ``sig(<hex>)`` tail, whose length the signature fixes.
        """
        return self.encode()[: -(len("sig()") + 2 * len(self.signature))]

    def encode(self) -> str:
        """Return the canonical encoding including the signature.

        The encoding is memoized: entries are immutable, so it is computed
        at most once per entry object.
        """
        encoded = self._encoded
        if encoded is None:
            encoded = _encode_unsigned(
                self.as_id, self.ingress_interface, self.egress_interface, self.static_info
            ) + f"sig({self.signature.hex()})"
            object.__setattr__(self, "_encoded", encoded)
        return encoded


@dataclass(frozen=True, slots=True)
class Beacon:
    """An immutable path-construction beacon.

    Attributes:
        origin_as: AS that originated the beacon.
        created_at_ms: Simulated creation timestamp in milliseconds.
        validity_ms: Lifetime after which the beacon expires.
        entries: AS entries from the origin to the current holder.
        extensions: IREC extensions set by the origin AS.
        beacon_id: Monotonic identifier, unique within one process; used
            only for diagnostics, never for protocol decisions.

    The underscored slots hold derived values, ``None`` until asked for or
    handed down by :meth:`with_entry` (``_parent_*``: the known prefix);
    :meth:`repro.core.criteria.StandardMetrics.vector_for` keeps ``_metric_vectors``.
    """

    origin_as: int
    created_at_ms: float
    entries: Tuple[ASEntry, ...]
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    validity_ms: float = DEFAULT_VALIDITY_MS
    beacon_id: int = field(default_factory=lambda: next(_beacon_sequence))
    _as_path: Optional[Tuple[int, ...]] = _slot()
    _links: Optional[Tuple[LinkID, ...]] = _slot()
    _link_set: Optional[frozenset] = _slot()
    _total_latency_ms: Optional[float] = _slot()
    _bottleneck_bandwidth_mbps: Optional[float] = _slot()
    _header_encoding: Optional[str] = _slot()
    _encoded: Optional[bytes] = _slot()
    _prefix_digests: Optional[Tuple[str, ...]] = _slot()
    _digest: Optional[str] = _slot()
    _parent_encoded: Optional[bytes] = _slot()
    _parent_digests: Optional[Tuple[str, ...]] = _slot()
    _metric_vectors: Optional[dict] = _slot()

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def hop_count(self) -> int:
        """Return the number of AS entries (AS-level path length)."""
        return len(self.entries)

    @property
    def last_entry(self) -> ASEntry:
        """Return the most recently appended entry."""
        if not self.entries:
            raise BeaconError("beacon has no entries")
        return self.entries[-1]

    @property
    def last_as(self) -> int:
        """Return the AS that appended the last entry."""
        return self.last_entry.as_id

    @property
    def origin_interface(self) -> Optional[int]:
        """Return the egress interface of the origin entry."""
        if not self.entries:
            return None
        return self.entries[0].egress_interface

    @property
    def is_terminated(self) -> bool:
        """Return whether the beacon has been terminated (registered)."""
        return bool(self.entries) and self.entries[-1].egress_interface is None

    @property
    def target_as(self) -> Optional[int]:
        """Return the pull-based target AS, if any."""
        return self.extensions.target.target_as if self.extensions.target else None

    @property
    def algorithm_id(self) -> Optional[str]:
        """Return the on-demand algorithm identifier, if any."""
        return self.extensions.algorithm.algorithm_id if self.extensions.algorithm else None

    @property
    def interface_group_id(self) -> Optional[int]:
        """Return the origin interface-group identifier, if any."""
        if self.extensions.interface_group is None:
            return None
        return self.extensions.interface_group.group_id

    def as_path(self) -> Tuple[int, ...]:
        """Return the sequence of AS identifiers from the origin onwards."""
        path = self._as_path
        if path is None:
            path = _extend_as_path((), self.entries)
            object.__setattr__(self, "_as_path", path)
        return path

    def contains_as(self, as_id: int) -> bool:
        """Return whether ``as_id`` already appears on the beacon's path."""
        return as_id in self.as_path()

    def links(self) -> Tuple[LinkID, ...]:
        """Return the inter-domain links traversed, as normalised link ids.

        The link between consecutive entries ``i`` and ``i + 1`` connects
        the egress interface of entry ``i`` with the ingress interface of
        entry ``i + 1``.  The tuple is memoized: link-state checks run on
        every in-flight delivery of a dynamic scenario and revocation
        purges probe it per stored beacon, so the walk must not repeat.
        """
        links = self._links
        if links is None:
            links = _extend_links((), self.entries)
            object.__setattr__(self, "_links", links)
        return links

    def link_set(self) -> frozenset:
        """Return :meth:`links` as a memoized frozenset for containment checks."""
        link_set = self._link_set
        if link_set is None:
            link_set = frozenset(self.links())
            object.__setattr__(self, "_link_set", link_set)
        return link_set

    def interfaces(self) -> Tuple[InterfaceID, ...]:
        """Return every (AS, interface) pair that appears on the beacon."""
        result: List[InterfaceID] = []
        for entry in self.entries:
            if entry.ingress_interface is not None:
                result.append((entry.as_id, entry.ingress_interface))
            if entry.egress_interface is not None:
                result.append((entry.as_id, entry.egress_interface))
        return tuple(result)

    # ------------------------------------------------------------------
    # accumulated metrics
    # ------------------------------------------------------------------
    def total_latency_ms(self) -> float:
        """Return the accumulated latency from the origin to the holder.

        Sums every entry's intra-AS latency and every traversed link's
        latency.  For a non-terminated beacon the last entry's egress link
        latency is included, i.e. the value is the latency up to the ingress
        interface of the *next* AS (the one about to receive the beacon),
        matching what that AS observes when optimizing received paths.

        The value is memoized — beacons are immutable, so the walk over the
        entries happens at most once per beacon object.
        """
        latency = self._total_latency_ms
        if latency is None:
            latency = sum(entry.static_info.hop_latency_ms for entry in self.entries)
            object.__setattr__(self, "_total_latency_ms", latency)
        return latency

    def bottleneck_bandwidth_mbps(self) -> float:
        """Return the bottleneck (minimum) link bandwidth along the path (memoized)."""
        bottleneck = self._bottleneck_bandwidth_mbps
        if bottleneck is None:
            bandwidths = [
                entry.static_info.link_bandwidth_mbps
                for entry in self.entries
                if entry.static_info.link_bandwidth_mbps is not None
            ]
            bottleneck = min(bandwidths) if bandwidths else float("inf")
            object.__setattr__(self, "_bottleneck_bandwidth_mbps", bottleneck)
        return bottleneck

    # ------------------------------------------------------------------
    # lifecycle and integrity
    # ------------------------------------------------------------------
    def is_expired(self, now_ms: float) -> bool:
        """Return whether the beacon has passed its validity horizon."""
        return now_ms >= self.created_at_ms + self.validity_ms

    def expires_at_ms(self) -> float:
        """Return the absolute simulated expiry time."""
        return self.created_at_ms + self.validity_ms

    def header_encoding(self) -> str:
        """Return the canonical encoding of the beacon header (memoized)."""
        header = self._header_encoding
        if header is None:
            header = _encode_header(
                self.origin_as, self.created_at_ms, self.validity_ms, self.extensions
            )
            object.__setattr__(self, "_header_encoding", header)
        return header

    def _known_prefix(self) -> Tuple[bytes, Tuple[str, ...]]:
        """Return the encoding and digest chain of the longest known prefix.

        That is all entries but the last when :meth:`with_entry` left the
        parent's bytes and chain, otherwise the header alone with an empty
        chain — the cold case.  The chain's length says how many entries
        the prefix covers.
        """
        digests = self._parent_digests
        if digests is None:
            return self.header_encoding().encode("utf-8"), ()
        return self._parent_encoded, digests

    def encode(self) -> bytes:
        """Return the full canonical encoding (used for hashing/dedup, memoized)."""
        encoded = self._encoded
        if encoded is None:
            count_crypto_op("beacon_encode")
            prefix, known = self._known_prefix()
            parts = [prefix]
            parts.extend(entry.encode().encode("utf-8") for entry in self.entries[len(known) :])
            encoded = b"|".join(parts)
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    def prefix_digests(self) -> Tuple[str, ...]:
        """Return the digest chain of the beacon's prefixes (memoized).

        Element ``i`` is the SHA-256 hex digest of
        ``header | entry_0 | … | entry_i`` — i.e. exactly the
        :meth:`digest` the beacon had when entry ``i`` was its last entry.
        The chain continues the known prefix's: it hashes that prefix's
        bytes and then each further entry, snapshotting the state after
        every one, so it is one pass over the encoding and never
        materialises this beacon's own.  The ingress gateway keys its
        verified-prefix cache on these values.
        """
        chain = self._prefix_digests
        if chain is None:
            count_crypto_op("beacon_digest")
            prefix, known = self._known_prefix()
            state = hashlib.sha256(prefix)
            digests = list(known)
            for entry in self.entries[len(known) :]:
                state.update(b"|")
                state.update(entry.encode().encode("utf-8"))
                digests.append(state.hexdigest())
            chain = tuple(digests)
            object.__setattr__(self, "_prefix_digests", chain)
        return chain

    def digest(self) -> str:
        """Return the SHA-256 hex digest of the full encoding (memoized)."""
        digest = self._digest
        if digest is None:
            digest = self.prefix_digests()[-1] if self.entries else beacon_digest(self.encode())
            object.__setattr__(self, "_digest", digest)
        return digest

    def verify(self, verifier: Verifier) -> None:
        """Verify the complete signature chain.

        Raises:
            SignatureError: If any entry's signature is invalid.
            BeaconError: If the beacon has no entries.
        """
        self.verify_suffix(verifier, first_entry=0)

    def verify_suffix(self, verifier: Verifier, first_entry: int) -> None:
        """Verify the signatures of entries ``first_entry`` onwards.

        The signed prefixes are built from one growing buffer instead of
        being re-joined from scratch per entry, out of the entries' own
        (memoized) encodings — never out of inherited state — so the string
        work is linear in the encoding size.
        Skipping already-verified prefixes is only sound when the caller
        knows the prefix ending at ``first_entry - 1`` was verified against
        the same key material — that is what the ingress gateway's
        verified-prefix cache establishes.

        Raises:
            SignatureError: If any checked entry's signature is invalid.
            BeaconError: If the beacon has no entries or ``first_entry`` is
                out of range.
        """
        if not self.entries:
            raise BeaconError("cannot verify a beacon without entries")
        if not 0 <= first_entry <= len(self.entries):
            raise BeaconError(f"entry index {first_entry} out of range")
        prefix_parts = [self.header_encoding()]
        prefix_parts.extend(entry.encode() for entry in self.entries[:first_entry])
        prefix = "|".join(prefix_parts)
        for entry in self.entries[first_entry:]:
            signed = f"{prefix}|{entry.encode_unsigned()}".encode("utf-8")
            verifier.verify(entry.as_id, signed, entry.signature)
            prefix = f"{prefix}|{entry.encode()}"

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def require_extendable_by(self, as_id: int) -> None:
        """Raise unless ``as_id`` may append an entry (open beacon, no loop)."""
        if self.is_terminated:
            raise BeaconError("cannot extend a terminated beacon")
        if self.contains_as(as_id):
            raise LoopError(
                f"AS {as_id} already on path {self.as_path()}; refusing to create a loop"
            )

    def with_entry(self, entry: ASEntry) -> "Beacon":
        """Return a new beacon with ``entry`` appended (no loop allowed).

        The child inherits what this beacon has already derived (see the
        module docstring): the values land in the slots the accessors
        read, the encoded bytes and the digest chain as the prefix
        :meth:`_known_prefix` continues from.
        """
        self.require_extendable_by(entry.as_id)
        entries = self.entries + (entry,)
        child = Beacon(
            self.origin_as, self.created_at_ms, entries, self.extensions, self.validity_ms
        )
        hand_down = object.__setattr__
        hand_down(child, "_header_encoding", self.header_encoding())
        hand_down(child, "_as_path", _extend_as_path(self.as_path(), entries))
        # An entry without an ingress interface is left for links() to reject.
        if self._links is not None and entry.ingress_interface is not None:
            hand_down(child, "_links", _extend_links(self._links, entries))
        if self._encoded is not None and self._prefix_digests is not None:
            hand_down(child, "_parent_encoded", self._encoded)
            hand_down(child, "_parent_digests", self._prefix_digests)
        return child


@dataclass
class BeaconBuilder:
    """Creates, extends and terminates beacons on behalf of one AS.

    The builder encapsulates the signing logic: it signs the new entry over
    the correctly chained prefix *before* it constructs anything, so every
    operation makes one signed :class:`ASEntry` and one :class:`Beacon`.
    It is owned by the AS's egress gateway.
    """

    as_id: int
    signer: Signer

    def originate(
        self,
        egress_interface: int,
        created_at_ms: float,
        static_info: Optional[StaticInfo] = None,
        extensions: Optional[ExtensionSet] = None,
        validity_ms: float = DEFAULT_VALIDITY_MS,
    ) -> Beacon:
        """Create a fresh beacon leaving this AS over ``egress_interface``."""
        extensions = extensions or ExtensionSet()
        header = _encode_header(self.as_id, created_at_ms, validity_ms, extensions)
        entry = self._signed_entry(header.encode("utf-8"), None, egress_interface, static_info)
        return Beacon(self.as_id, created_at_ms, (entry,), extensions, validity_ms)

    def extend(
        self,
        beacon: Beacon,
        ingress_interface: int,
        egress_interface: int,
        static_info: Optional[StaticInfo] = None,
    ) -> Beacon:
        """Append this AS's hop to ``beacon`` for propagation."""
        beacon.require_extendable_by(self.as_id)
        return beacon.with_entry(
            self._signed_entry(beacon.encode(), ingress_interface, egress_interface, static_info)
        )

    def terminate(
        self,
        beacon: Beacon,
        ingress_interface: int,
        static_info: Optional[StaticInfo] = None,
    ) -> Beacon:
        """Append a terminal (no-egress) entry, producing a registrable segment."""
        beacon.require_extendable_by(self.as_id)
        return beacon.with_entry(
            self._signed_entry(beacon.encode(), ingress_interface, None, static_info)
        )

    def _signed_entry(
        self,
        prefix: bytes,
        ingress_interface: Optional[int],
        egress_interface: Optional[int],
        static_info: Optional[StaticInfo],
    ) -> ASEntry:
        """Return this AS's entry, signed over ``prefix`` and its own unsigned encoding.

        ``prefix`` is what precedes the entry: the header at origination,
        otherwise the beacon's full encoding, previous signatures included,
        which chains the signatures together.
        """
        static_info = static_info or StaticInfo()
        unsigned = _encode_unsigned(self.as_id, ingress_interface, egress_interface, static_info)
        signature = self.signer.sign(prefix + b"|" + unsigned.encode("utf-8"))
        return ASEntry(self.as_id, ingress_interface, egress_interface, static_info, signature)

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
value cacheable: the SHA-256 digest (the canonical identity used for
deduplication everywhere), the wire parts, the encoded size and the
accumulated path metrics are all computed at most once per object and
memoized in a declared slot of the record (``init=False``,
``compare=False``, so the memos are invisible to construction, equality,
hashing and ``repr``).  An accessor reads its slot and only on ``None``
computes and stores; neither record has a per-instance dictionary.

**An entry owns its bytes.**  The canonical encoding is
``header | entry_0 | … | entry_{L-1}``; an :class:`ASEntry` keeps one memo,
its *wire part* ``b"|" + encoding``, and a beacon keeps :meth:`Beacon.wire`,
a tuple of references: the header part, then its entries' own parts.  A
terminal entry (no egress interface) keeps no memo: a registered segment
is never extended, so its last part is encoded for the segment's digest
and held only by a segment whose own wire tuple was asked for.
:meth:`Beacon.encode` joins the parts on demand — only signing needs the
joined bytes; the RAC's IPC marshal gathers the parts and sizes come from
:meth:`Beacon.encoded_size`.

**A beacon is its parent plus one hop.**  :meth:`Beacon.with_entry` — the
one place that knows "child = parent + one entry" — fills exactly two
slots: ``_parent``, the beacon it extends, and ``_link``, the one new link
id (the topology's own ``Link.key`` object when the builder is handed the
arrival link and it names the same link).  Every derivation is the
parent's value plus one element: :meth:`Beacon.wire` and
:meth:`Beacon.as_path` continue the parent's memo on first call,
:meth:`Beacon.digest` hashes the parent's wire parts and then the new
entry's part, :meth:`Beacon.links` continues the nearest ancestor's memo
with one ``_link`` per hop (the stores' link indexes read the same walk
through :meth:`Beacon.walk_links`, which keeps no memo), and
:meth:`Beacon.prefix_digests` reads the ancestors' digests back along
``_parent`` and keeps no memo either.  A chain of
``L`` beacons therefore holds ``O(L)`` link ids, digest strings and entry
bytes in total; the ``_as_path`` and ``_wire`` memos a RAC candidate keeps
(the loop check, the tie-break sort key, signing and the IPC marshal read
them) are ``O(L)`` per beacon.  A terminated beacon -- a registered
segment, never a RAC candidate -- fills neither ``_as_path`` nor
``_links``: both extend the parent's value and return it unstored, as its
terminal entry's wire part is.  Holding the parent is bounded: a child
shares its header, and so its expiry, with every ancestor, so ``_parent``
keeps no beacon alive past the validity of the child that holds it.  A
beacon without a parent is *cold* (constructed directly or a
``dataclasses.replace`` copy, hence every tampered copy) and derives from
its own entries; cold is the no-parent case of each derivation, not a second
implementation.  A pickled beacon ships its ancestors.

The digest is defined as ``sha256(header | entry_0 | … | entry_{L-1})``;
element ``i`` of the :meth:`Beacon.prefix_digests` chain is the digest the
beacon had when entry ``i`` was its last entry.  The ingress gateway keys
its verified-prefix cache on this chain, so dedup and incremental
re-verification share one digest per beacon.  Signatures are always
checked against the beacon's own header and the entries' own wire parts,
never against inherited state.
"""

from __future__ import annotations

import hashlib
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
) -> bytes:
    """Return the canonical encoding of a beacon header, the first wire part."""
    return (
        f"pcb(origin={origin_as},created={created_at_ms:.3f},"
        f"validity={validity_ms:.3f},{extensions.encode()})"
    ).encode("utf-8")


def _derive_links(entries: Tuple["ASEntry", ...]) -> Tuple[LinkID, ...]:
    """Return the link ids between consecutive ``entries``, derived from their interfaces."""
    result = []
    for previous, current in zip(entries, entries[1:]):
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
    _wire: Optional[bytes] = _slot()

    def wire(self) -> bytes:
        """Return the entry's part of a beacon encoding: ``b"|"`` + its canonical encoding.

        The entry's one encoding, memoized when the entry has an egress
        interface: every beacon whose chain holds the entry holds this same
        ``bytes`` object.  A terminal entry keeps no memo: nothing extends
        a segment, so its part is read once, for the segment's digest, and
        a segment that is marshalled holds the part in its own wire tuple.
        """
        wire = self._wire
        if wire is None:
            wire = (
                "|"
                + _encode_unsigned(
                    self.as_id, self.ingress_interface, self.egress_interface, self.static_info
                )
                + f"sig({self.signature.hex()})"
            ).encode("utf-8")
            if self.egress_interface is not None:
                object.__setattr__(self, "_wire", wire)
        return wire

    def unsigned_wire(self) -> bytes:
        """Return :meth:`wire` minus its ``sig(<hex>)`` tail, whose length the signature fixes."""
        return self.wire()[: -(len("sig()") + 2 * len(self.signature))]


@dataclass(frozen=True, slots=True)
class Beacon:
    """An immutable path-construction beacon.

    Attributes:
        origin_as: AS that originated the beacon.
        created_at_ms: Simulated creation timestamp in milliseconds.
        validity_ms: Lifetime after which the beacon expires.
        entries: AS entries from the origin to the current holder.
        extensions: IREC extensions set by the origin AS.

    Equality is content equality; the :meth:`digest` is the identity the
    databases key on.  The underscored slots hold derived values, ``None``
    until asked for or filled by :meth:`with_entry` (``_parent``, the
    beacon this one extends, and ``_link``, its one new link id).
    """

    origin_as: int
    created_at_ms: float
    entries: Tuple[ASEntry, ...]
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    validity_ms: float = DEFAULT_VALIDITY_MS
    _parent: Optional["Beacon"] = _slot()
    _link: Optional[LinkID] = _slot()
    _as_path: Optional[Tuple[int, ...]] = _slot()
    _links: Optional[Tuple[LinkID, ...]] = _slot()
    _total_latency_ms: Optional[float] = _slot()
    _bottleneck_bandwidth_mbps: Optional[float] = _slot()
    _wire: Optional[Tuple[bytes, ...]] = _slot()
    _size: Optional[int] = _slot()
    _digest: Optional[str] = _slot()

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
        """Return the sequence of AS identifiers from the origin onwards.

        Memoized on an open beacon, which the loop check and the candidate
        sort read on every round.  A terminated beacon (a registered
        segment) extends its parent's memo without storing the result.
        """
        path = self._as_path
        if path is None:
            parent = self._parent
            if parent is None:
                path = tuple(entry.as_id for entry in self.entries)
            else:
                path = parent.as_path() + (self.entries[-1].as_id,)
            if not self.is_terminated:
                object.__setattr__(self, "_as_path", path)
        return path

    def contains_as(self, as_id: int) -> bool:
        """Return whether ``as_id`` already appears on the beacon's path."""
        return as_id in self.as_path()

    def links(self) -> Tuple[LinkID, ...]:
        """Return the inter-domain links traversed, as normalised link ids.

        The link between consecutive entries ``i`` and ``i + 1`` connects
        the egress interface of entry ``i`` with the ingress interface of
        entry ``i + 1``.  The tuple is memoized on an open beacon, because
        link-disjointness algorithms read it for every candidate on every
        pass; a one-off reader calls :meth:`walk_links` instead.  A
        terminated beacon (a registered segment) returns :meth:`walk_links`:
        its readers -- path probes, traffic selection, pull results -- read
        it once each, and the segment would otherwise hold the tuple for
        its whole validity.
        """
        links = self._links
        if links is None:
            links = self.walk_links()
            if not self.is_terminated:
                object.__setattr__(self, "_links", links)
        return links

    def walk_links(self) -> Tuple[LinkID, ...]:
        """Return :meth:`links` without memoizing it on this beacon or an ancestor.

        Walks ``_parent`` up to the nearest beacon that has a ``_links``
        memo or no ``_link`` (a cold beacon derives from its own entries)
        and continues from there with one ``_link`` per hop.  The stores'
        link indexes read links this way, so a stored beacon keeps a links
        tuple only when an algorithm asks for one.
        """
        hops = []
        beacon = self
        while beacon._links is None and beacon._link is not None:
            hops.append(beacon._link)
            beacon = beacon._parent
        links = beacon._links
        if links is None:
            links = _derive_links(beacon.entries)
        if hops:
            hops.reverse()
            links += tuple(hops)
        return links

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

    def wire(self) -> Tuple[bytes, ...]:
        """Return the canonical encoding as parts: the header, then every entry's wire part.

        ``b"".join`` of the parts is :meth:`encode`.  The tuple is memoized
        and holds references only: each entry part is that entry's own
        :meth:`ASEntry.wire` object (a terminal entry's part is held by this
        tuple alone), and a child's tuple is its parent's plus one part.
        """
        wire = self._wire
        if wire is None:
            parent = self._parent
            if parent is None:
                wire = (self._header_wire(), *[entry.wire() for entry in self.entries])
            else:
                wire = parent.wire() + (self.entries[-1].wire(),)
            object.__setattr__(self, "_wire", wire)
        return wire

    def encoded_size(self) -> int:
        """Return ``len(self.encode())`` without joining the parts (memoized)."""
        size = self._size
        if size is None:
            size = sum(map(len, self.wire()))
            object.__setattr__(self, "_size", size)
        return size

    def encode(self) -> bytes:
        """Return the full canonical encoding, joined from :meth:`wire` on every call."""
        count_crypto_op("beacon_encode")
        return b"".join(self.wire())

    def _header_wire(self) -> bytes:
        """Encode the header part from this beacon's own fields."""
        return _encode_header(self.origin_as, self.created_at_ms, self.validity_ms, self.extensions)

    def prefix_digests(self) -> Tuple[str, ...]:
        """Return the digest chain of the beacon's prefixes (not memoized).

        Element ``i`` is the SHA-256 hex digest of
        ``header | entry_0 | … | entry_i`` — i.e. exactly the
        :meth:`digest` the beacon had when entry ``i`` was its last entry.
        The chain is the :meth:`digest` of this beacon and of every
        ancestor along ``_parent``; the cold beacon at the top hashes its
        own parts, snapshotting the state after every one.  The ingress
        gateway keys its verified-prefix cache on these values.
        """
        below = []
        beacon = self
        while beacon._parent is not None:
            below.append(beacon.digest())
            beacon = beacon._parent
        chain = []
        if beacon.entries:
            wire = beacon.wire()
            state = hashlib.sha256(wire[0])
            for part in wire[1:-1]:
                state.update(part)
                chain.append(state.hexdigest())
            chain.append(beacon.digest())
        below.reverse()
        return (*chain, *below)

    def digest(self) -> str:
        """Return the SHA-256 hex digest of the full encoding (memoized).

        A child hashes its parent's wire parts and then its own last entry's
        part, so it materializes no wire tuple of its own.
        """
        digest = self._digest
        if digest is None:
            if not self.entries:
                digest = beacon_digest(self.encode())
            else:
                count_crypto_op("beacon_digest")
                parent = self._parent
                if parent is None:
                    parts = self.wire()
                else:
                    parts = (*parent.wire(), self.entries[-1].wire())
                state = hashlib.sha256()
                for part in parts:
                    state.update(part)
                digest = state.hexdigest()
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

        The signed messages are built in bytes from one growing prefix, out
        of the header encoded from this beacon's own fields and the
        entries' own wire parts — never out of :meth:`wire` or other
        inherited state — so the byte work is linear in the encoding size.
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
        prefix = b"".join([self._header_wire(), *[e.wire() for e in self.entries[:first_entry]]])
        for entry in self.entries[first_entry:]:
            verifier.verify(entry.as_id, prefix + entry.unsigned_wire(), entry.signature)
            prefix += entry.wire()

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

    def with_entry(self, entry: ASEntry, arrival: Optional[LinkID] = None) -> "Beacon":
        """Return a new beacon with ``entry`` appended (no loop allowed).

        The child holds this beacon as ``_parent`` and its one new link id
        as ``_link``, and nothing else derived (see the module docstring):
        each accessor continues the parent's value on first call.
        ``arrival`` is the topology's id of the link the beacon arrived on;
        ``_link`` is that object when it names the same link.
        """
        self.require_extendable_by(entry.as_id)
        entries = self.entries + (entry,)
        child = Beacon(
            self.origin_as, self.created_at_ms, entries, self.extensions, self.validity_ms
        )
        object.__setattr__(child, "_parent", self)
        # An entry without an ingress interface is left for links() to reject.
        if self.entries and entry.ingress_interface is not None:
            last = self.entries[-1]
            link = normalize_link_id(
                (last.as_id, last.egress_interface), (entry.as_id, entry.ingress_interface)
            )
            object.__setattr__(child, "_link", arrival if link == arrival else link)
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
        entry = self._signed_entry(header, None, egress_interface, static_info)
        return Beacon(self.as_id, created_at_ms, (entry,), extensions, validity_ms)

    def extend(
        self,
        beacon: Beacon,
        ingress_interface: int,
        egress_interface: int,
        static_info: Optional[StaticInfo] = None,
        arrival: Optional[LinkID] = None,
    ) -> Beacon:
        """Append this AS's hop to ``beacon`` for propagation.

        ``arrival`` is the topology's id of the link the beacon arrived on
        (:meth:`Beacon.with_entry`).
        """
        beacon.require_extendable_by(self.as_id)
        return beacon.with_entry(
            self._signed_entry(beacon.encode(), ingress_interface, egress_interface, static_info),
            arrival,
        )

    def terminate(
        self,
        beacon: Beacon,
        ingress_interface: int,
        static_info: Optional[StaticInfo] = None,
        arrival: Optional[LinkID] = None,
    ) -> Beacon:
        """Append a terminal (no-egress) entry, producing a registrable segment."""
        beacon.require_extendable_by(self.as_id)
        return beacon.with_entry(
            self._signed_entry(beacon.encode(), ingress_interface, None, static_info), arrival
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

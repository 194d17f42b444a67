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

Beacons, headers and entries are **immutable**, which makes every derived
value cacheable: the SHA-256 digest (the canonical identity used for
deduplication everywhere), the wire parts, the encoded size and the
accumulated path metrics are all computed at most once per object and
memoized in a declared slot of the record (``init=False``,
``compare=False``, so the memos are invisible to construction, equality,
hashing and ``repr``).  An accessor reads its slot and only on ``None``
computes and stores; no record has a per-instance dictionary.

**A beacon is its header, its parent and one signed hop.**  A
:class:`Beacon` holds three fields: the :class:`BeaconHeader` the origin
set, its ``parent`` (the beacon it extends, ``None`` at the origin) and
its own :class:`ASEntry`.  Its entries are the chain itself:
:attr:`Beacon.entries` walks the parents and keeps nothing, and only
verification, the down-segment relay and the data-plane walk read it.
Every other derivation is the parent's value plus one element:
:meth:`Beacon.wire` and :meth:`Beacon.as_path` continue the parent's memo
on first call, :meth:`Beacon.digest` hashes the parent's wire parts and
then the new entry's, :meth:`Beacon.total_latency_ms` adds one hop to the
parent's sum (left to right, as a sum over the entries would),
:meth:`Beacon.links` continues the nearest ancestor's memo with one link id
per hop (the stores' link indexes read the same walk through
:meth:`Beacon.walk_links`, which keeps no memo), and
:meth:`Beacon.prefix_digests` reads the ancestors' digests back along
``parent`` and keeps no memo either.  :meth:`Beacon.with_entry` -- the
one place that knows "child = parent + one entry" -- fills one slot,
``_link``, the one new link id (the topology's own ``Link.key`` object
when the builder is handed the arrival link and it names the same link).
A chain of ``L`` beacons therefore holds ``L`` entries, link ids, digest
strings and entry parts in total; the ``_as_path`` and ``_wire`` memos a
RAC candidate keeps (the loop check, the tie-break sort key, signing and
the IPC marshal read them) are ``O(L)`` per beacon.  A terminated beacon
-- a registered segment, never a RAC candidate -- fills neither
``_as_path`` nor ``_links``: both extend the parent's value and return it
unstored.

**The header is held once per origination.**  Every beacon of a chain
holds its origin's one :class:`BeaconHeader`, and the builder hands the
same header to every beacon it originates at one time with the same
extensions, whatever the interface.  The header memoizes its encoded
part, its expiry and its bucket key: the stores that keep an expiry hold
that one float and the ingress databases share that one key.  A beacon
whose parent carries another header cannot be built, so no value a child
continues was derived from a different header.  Holding the parent is
bounded: a child shares its header, and so its expiry, with every
ancestor, so ``parent`` keeps no beacon alive past the validity of the
child that holds it.  A pickled beacon ships its ancestors.

**A hop's unsigned encoding is a constant of its interface pair.**  The
canonical encoding is ``header | entry_0 | … | entry_{L-1}``, and an
entry's part is ``b"|entry(…)"``, its fields without the signature,
followed by ``b"sig(<hex>)"``.  :meth:`Beacon.wire` is a tuple of
references: the header part, then two parts per entry.  The builder
encodes the unsigned part once per interface pair and static-info record
and every entry it signs over that pair holds the same ``bytes`` object;
an entry keeps its own signature part, unless it is terminal (a
registered segment is never extended, so its last signature part is
encoded for the segment's digest and held only by a segment whose own wire
tuple was asked for).  :meth:`Beacon.encode` joins the parts on demand --
only signing needs the joined bytes; the RAC's IPC marshal gathers the
parts and sizes come from :meth:`Beacon.encoded_size`.

The digest is defined as ``sha256(header | entry_0 | … | entry_{L-1})``;
element ``i`` of the :meth:`Beacon.prefix_digests` chain is the digest the
beacon had when entry ``i`` was its last entry.  The ingress gateway keys
its verified-prefix cache on this chain, so dedup and incremental
re-verification share one digest per beacon.  Signatures are always
checked against the beacon's own header and entries' encodings, never
against a digest or another beacon's wire tuple.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import count_crypto_op
from repro.crypto.signer import Signer, Verifier
from repro.exceptions import BeaconError, LoopError
from repro.core.extensions import ExtensionSet
from repro.core.staticinfo import StaticInfo
from repro.topology.entities import InterfaceID, LinkID, normalize_link_id

#: Default beacon validity: SCION caps PCB lifetimes with a global upper
#: bound; we use six hours of simulated time.
DEFAULT_VALIDITY_MS = 6.0 * 60.0 * 60.0 * 1000.0

#: A bucket key: (origin AS, interface group id or None, target AS or None,
#: algorithm id or None).  RACs request candidates one bucket at a time.
BucketKey = Tuple[int, Optional[int], Optional[int], Optional[str]]


def _slot():
    """Declare a derived value's slot: reset by ``replace``, outside ``==`` / hash / repr."""
    return field(default=None, init=False, repr=False, compare=False)


def _encode_unsigned(
    as_id: int, ingress: Optional[int], egress: Optional[int], static_info: StaticInfo
) -> bytes:
    """Return an entry's first wire part: ``b"|"`` and its fields without the signature."""
    return f"|entry(as={as_id},in={ingress},out={egress},{static_info.encode()})".encode("utf-8")


@dataclass(frozen=True, slots=True)
class BeaconHeader:
    """What the origin AS sets for a whole chain: one object per origination.

    Attributes:
        origin_as: AS that originated the beacon.
        created_at_ms: Simulated creation timestamp in milliseconds.
        extensions: IREC extensions set by the origin AS.
        validity_ms: Lifetime after which the beacon expires.
    """

    origin_as: int
    created_at_ms: float
    extensions: ExtensionSet
    validity_ms: float
    _wire: Optional[bytes] = _slot()
    _expires_at_ms: Optional[float] = _slot()
    _bucket: Optional[BucketKey] = _slot()

    def wire(self) -> bytes:
        """Return the header's canonical encoding, the first wire part (memoized)."""
        wire = self._wire
        if wire is None:
            wire = (
                f"pcb(origin={self.origin_as},created={self.created_at_ms:.3f},"
                f"validity={self.validity_ms:.3f},{self.extensions.encode()})"
            ).encode("utf-8")
            object.__setattr__(self, "_wire", wire)
        return wire

    def expires_at_ms(self) -> float:
        """Return the absolute simulated expiry time, one float per header (memoized)."""
        expires = self._expires_at_ms
        if expires is None:
            expires = self.created_at_ms + self.validity_ms
            object.__setattr__(self, "_expires_at_ms", expires)
        return expires

    def bucket(self) -> BucketKey:
        """Return the ingress bucket of every beacon under this header (memoized)."""
        bucket = self._bucket
        if bucket is None:
            extensions = self.extensions
            bucket = (
                self.origin_as,
                extensions.interface_group.group_id if extensions.interface_group else None,
                extensions.target.target_as if extensions.target else None,
                extensions.algorithm.algorithm_id if extensions.algorithm else None,
            )
            object.__setattr__(self, "_bucket", bucket)
        return bucket


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
    _unsigned: Optional[bytes] = _slot()
    _signature_wire: Optional[bytes] = _slot()

    def unsigned_wire(self) -> bytes:
        """Return the entry's first wire part, ``b"|entry(…)"``: what its signature covers.

        Memoized; an entry a :class:`BeaconBuilder` signed holds the part
        the builder shares among every entry it signs over the same
        interface pair and static-info record.
        """
        unsigned = self._unsigned
        if unsigned is None:
            unsigned = _encode_unsigned(
                self.as_id, self.ingress_interface, self.egress_interface, self.static_info
            )
            object.__setattr__(self, "_unsigned", unsigned)
        return unsigned

    def signature_wire(self) -> bytes:
        """Return the entry's second wire part, ``b"sig(<hex>)"``.

        Memoized when the entry has an egress interface.  A terminal entry
        keeps no memo: nothing extends a segment, so its part is read once,
        for the segment's digest, and a segment that is marshalled holds
        the part in its own wire tuple.
        """
        part = self._signature_wire
        if part is None:
            part = b"sig(%s)" % self.signature.hex().encode("ascii")
            if self.egress_interface is not None:
                object.__setattr__(self, "_signature_wire", part)
        return part

    def wire(self) -> Tuple[bytes, bytes]:
        """Return the entry's two parts of a beacon encoding: unsigned, then signature."""
        return (self.unsigned_wire(), self.signature_wire())


@dataclass(frozen=True, slots=True)
class Beacon:
    """An immutable path-construction beacon: a header, a parent and one signed hop.

    Attributes:
        header: The origin's header, shared by every beacon of the chain.
        entry: The entry the beacon's last AS appended.
        parent: The beacon this one extends; ``None`` for an originated one.

    Equality is content equality over the whole chain; the :meth:`digest`
    is the identity the databases key on.  The underscored slots hold
    derived values, ``None`` until asked for or filled by
    :meth:`with_entry` (``_link``, the one new link id).
    """

    header: BeaconHeader
    entry: ASEntry
    parent: Optional["Beacon"] = None
    _link: Optional[LinkID] = _slot()
    _as_path: Optional[Tuple[int, ...]] = _slot()
    _links: Optional[Tuple[LinkID, ...]] = _slot()
    _total_latency_ms: Optional[float] = _slot()
    _bottleneck_bandwidth_mbps: Optional[float] = _slot()
    _wire: Optional[Tuple[bytes, ...]] = _slot()
    _size: Optional[int] = _slot()
    _digest: Optional[str] = _slot()

    def __post_init__(self) -> None:
        parent = self.parent
        if parent is not None and parent.header is not self.header:
            raise BeaconError("a beacon must hold its parent's header")

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    @property
    def origin_as(self) -> int:
        """Return the AS that originated the beacon."""
        return self.header.origin_as

    @property
    def created_at_ms(self) -> float:
        """Return the simulated creation timestamp."""
        return self.header.created_at_ms

    @property
    def validity_ms(self) -> float:
        """Return the lifetime after which the beacon expires."""
        return self.header.validity_ms

    @property
    def extensions(self) -> ExtensionSet:
        """Return the IREC extensions set by the origin AS."""
        return self.header.extensions

    @property
    def interface_group_id(self) -> Optional[int]:
        """Return the origin interface-group identifier, if any."""
        return self.header.bucket()[1]

    @property
    def target_as(self) -> Optional[int]:
        """Return the pull-based target AS, if any."""
        return self.header.bucket()[2]

    @property
    def algorithm_id(self) -> Optional[str]:
        """Return the on-demand algorithm identifier, if any."""
        return self.header.bucket()[3]

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Tuple[ASEntry, ...]:
        """Return the AS entries from the origin to the holder, walked along ``parent``.

        Not memoized: a chain holds each entry once, in the beacon that
        appended it.
        """
        entries = []
        beacon: Optional[Beacon] = self
        while beacon is not None:
            entries.append(beacon.entry)
            beacon = beacon.parent
        entries.reverse()
        return tuple(entries)

    @property
    def hop_count(self) -> int:
        """Return the number of AS entries (AS-level path length)."""
        return len(self.as_path())

    @property
    def last_as(self) -> int:
        """Return the AS that appended the last entry."""
        return self.entry.as_id

    @property
    def origin_interface(self) -> Optional[int]:
        """Return the egress interface of the origin entry."""
        beacon = self
        while beacon.parent is not None:
            beacon = beacon.parent
        return beacon.entry.egress_interface

    @property
    def is_terminated(self) -> bool:
        """Return whether the beacon has been terminated (registered)."""
        return self.entry.egress_interface is None

    def as_path(self) -> Tuple[int, ...]:
        """Return the sequence of AS identifiers from the origin onwards.

        Memoized on an open beacon, which the loop check and the candidate
        sort read on every round.  A terminated beacon (a registered
        segment) extends its parent's memo without storing the result.
        """
        path = self._as_path
        if path is None:
            parent = self.parent
            entry = self.entry
            path = (entry.as_id,) if parent is None else parent.as_path() + (entry.as_id,)
            if entry.egress_interface is not None:
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

        Raises:
            BeaconError: If an interior entry lacks an interface.
        """
        links = self._links
        if links is None:
            links = self.walk_links()
            if not self.is_terminated:
                object.__setattr__(self, "_links", links)
        return links

    def walk_links(self) -> Tuple[LinkID, ...]:
        """Return :meth:`links` without memoizing it on this beacon or an ancestor.

        Walks ``parent`` up to the nearest beacon that has a ``_links``
        memo, or to the origin, and continues from there with one link id
        per hop.  The stores' link indexes read links this way, so a
        stored beacon keeps a links tuple only when an algorithm asks for
        one.
        """
        hops = []
        beacon = self
        links = beacon._links
        while links is None:
            parent = beacon.parent
            if parent is None:
                links = ()
                break
            link = beacon._link
            if link is None:
                link = beacon._derive_link()
            hops.append(link)
            beacon = parent
            links = beacon._links
        if hops:
            hops.reverse()
            links += tuple(hops)
        return links

    def _derive_link(self) -> LinkID:
        """Derive and memoize the link id between the parent's entry and this one."""
        previous = self.parent.entry
        current = self.entry
        if previous.egress_interface is None or current.ingress_interface is None:
            raise BeaconError("interior beacon entries must specify both interfaces")
        link = normalize_link_id(
            (previous.as_id, previous.egress_interface), (current.as_id, current.ingress_interface)
        )
        object.__setattr__(self, "_link", link)
        return link

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

        Memoized: the parent's sum plus this hop, added left to right from
        ``0`` as a sum over the entries would be.
        """
        latency = self._total_latency_ms
        if latency is None:
            parent = self.parent
            latency = (0 if parent is None else parent.total_latency_ms()) + (
                self.entry.static_info.hop_latency_ms
            )
            object.__setattr__(self, "_total_latency_ms", latency)
        return latency

    def bottleneck_bandwidth_mbps(self) -> float:
        """Return the bottleneck (minimum) link bandwidth along the path (memoized)."""
        bottleneck = self._bottleneck_bandwidth_mbps
        if bottleneck is None:
            parent = self.parent
            bottleneck = float("inf") if parent is None else parent.bottleneck_bandwidth_mbps()
            bandwidth = self.entry.static_info.link_bandwidth_mbps
            if bandwidth is not None:
                bottleneck = min(bottleneck, bandwidth)
            object.__setattr__(self, "_bottleneck_bandwidth_mbps", bottleneck)
        return bottleneck

    # ------------------------------------------------------------------
    # lifecycle and integrity
    # ------------------------------------------------------------------
    def is_expired(self, now_ms: float) -> bool:
        """Return whether the beacon has passed its validity horizon."""
        return now_ms >= self.header.expires_at_ms()

    def expires_at_ms(self) -> float:
        """Return the absolute simulated expiry time, the header's one float."""
        return self.header.expires_at_ms()

    def wire(self) -> Tuple[bytes, ...]:
        """Return the canonical encoding as parts: the header, then two parts per entry.

        ``b"".join`` of the parts is :meth:`encode`.  The tuple is memoized
        and holds references only: each entry contributes its
        :meth:`ASEntry.wire` objects (a terminal entry's signature part is
        held by this tuple alone), and a child's tuple is its parent's plus
        two parts.
        """
        wire = self._wire
        if wire is None:
            parent = self.parent
            wire = (self.header.wire(),) if parent is None else parent.wire()
            wire += self.entry.wire()
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

    def prefix_digests(self) -> Tuple[str, ...]:
        """Return the digest chain of the beacon's prefixes (not memoized).

        Element ``i`` is the SHA-256 hex digest of
        ``header | entry_0 | … | entry_i`` — i.e. exactly the
        :meth:`digest` the beacon had when entry ``i`` was its last entry:
        the :meth:`digest` of this beacon and of every ancestor along
        ``parent``.  The ingress gateway keys its verified-prefix cache on
        these values.
        """
        chain = []
        beacon: Optional[Beacon] = self
        while beacon is not None:
            chain.append(beacon.digest())
            beacon = beacon.parent
        chain.reverse()
        return tuple(chain)

    def digest(self) -> str:
        """Return the SHA-256 hex digest of the full encoding (memoized).

        A child hashes its parent's wire parts and then its own entry's
        parts, so it materializes no wire tuple of its own.
        """
        digest = self._digest
        if digest is None:
            count_crypto_op("beacon_digest")
            parent = self.parent
            state = hashlib.sha256()
            for part in self.wire() if parent is None else parent.wire() + self.entry.wire():
                state.update(part)
            digest = state.hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest

    def verify(self, verifier: Verifier) -> None:
        """Verify the complete signature chain.

        Raises:
            SignatureError: If any entry's signature is invalid.
        """
        self.verify_suffix(verifier, first_entry=0)

    def verify_suffix(self, verifier: Verifier, first_entry: int) -> None:
        """Verify the signatures of entries ``first_entry`` onwards.

        The signed messages are built in bytes from one growing prefix, out
        of this beacon's header part and its entries' own parts — never
        out of :meth:`wire` or a digest — so the byte work is linear in the
        encoding size.  Skipping already-verified prefixes is only sound
        when the caller knows the prefix ending at ``first_entry - 1`` was
        verified against the same key material — that is what the ingress
        gateway's verified-prefix cache establishes.

        Raises:
            SignatureError: If any checked entry's signature is invalid.
            BeaconError: If ``first_entry`` is out of range.
        """
        entries = self.entries
        if not 0 <= first_entry <= len(entries):
            raise BeaconError(f"entry index {first_entry} out of range")
        prefix = b"".join(
            [self.header.wire(), *[part for e in entries[:first_entry] for part in e.wire()]]
        )
        for entry in entries[first_entry:]:
            unsigned, signature = entry.wire()
            verifier.verify(entry.as_id, prefix + unsigned, entry.signature)
            prefix += unsigned + signature

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

        The child holds this beacon's header, this beacon as its parent,
        ``entry``, and one derived value, ``_link``, its one new link id
        (see the module docstring): each accessor continues the parent's
        value on first call.  ``arrival`` is the topology's id of the link
        the beacon arrived on; ``_link`` is that object when it names the
        same link.
        """
        self.require_extendable_by(entry.as_id)
        child = Beacon(self.header, entry, self)
        # An entry without an ingress interface is left for links() to reject.
        if entry.ingress_interface is not None and child._derive_link() == arrival:
            object.__setattr__(child, "_link", arrival)
        return child


@dataclass
class BeaconBuilder:
    """Creates, extends and terminates beacons on behalf of one AS.

    The builder encapsulates the signing logic: it signs the new entry over
    the correctly chained prefix *before* it constructs anything, so every
    operation makes one signed :class:`ASEntry` and one :class:`Beacon`.
    It is owned by the AS's egress gateway.

    It keeps the header it last built and hands it to every beacon it
    originates with the same creation time, extensions and validity, so
    one origination over several interfaces holds one header.  Per
    ``(ingress, egress)`` interface pair it keeps the unsigned part it
    last encoded, with the static-info record it encoded it from, and
    hands that one ``bytes`` object to every entry it signs over the pair
    while it is given the same record (a local view shares one per pair,
    until a link is attached).
    """

    as_id: int
    signer: Signer
    _header: Optional[BeaconHeader] = field(default=None, init=False, repr=False)
    _unsigned: Dict[Tuple[Optional[int], Optional[int]], Tuple[StaticInfo, bytes]] = field(
        default_factory=dict, init=False, repr=False
    )

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
        header = self._header
        if header is None or (header.created_at_ms, header.extensions, header.validity_ms) != (
            created_at_ms,
            extensions,
            validity_ms,
        ):
            header = self._header = BeaconHeader(
                self.as_id, created_at_ms, extensions, validity_ms
            )
        entry = self._signed_entry(header.wire(), None, egress_interface, static_info)
        return Beacon(header, entry)

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
        """Return this AS's entry, signed over ``prefix`` and its own unsigned part.

        ``prefix`` is what precedes the entry: the header at origination,
        otherwise the beacon's full encoding, previous signatures included,
        which chains the signatures together.
        """
        static_info = static_info or StaticInfo()
        pair = (ingress_interface, egress_interface)
        known = self._unsigned.get(pair)
        if known is not None and known[0] is static_info:
            unsigned = known[1]
        else:
            unsigned = _encode_unsigned(
                self.as_id, ingress_interface, egress_interface, static_info
            )
            self._unsigned[pair] = (static_info, unsigned)
        signature = self.signer.sign(prefix + unsigned)
        entry = ASEntry(self.as_id, ingress_interface, egress_interface, static_info, signature)
        object.__setattr__(entry, "_unsigned", unsigned)
        return entry

"""Ingress and egress beacon databases.

The paper's intra-AS architecture stores received PCBs in an **ingress
database** (queried by RACs in buckets of one origin AS, interface group
and target) and tracks propagated PCBs in an **egress database** that only
keeps beacon hashes together with the egress interfaces each beacon was
already sent on, to deduplicate the output of multiple RACs while bounding
memory (paper §V-B, §V-D).  Both databases expire (soon-to-be) outdated
entries periodically.

The original implementation uses SQLite; the reproduction uses in-memory
indexed stores with identical semantics (insert, bucketed query, expiry,
dedup-by-hash), which is sufficient because the evaluation never exercises
persistence across process restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.beacon import Beacon
from repro.exceptions import GatewayError
from repro.topology.entities import LinkID, normalize_link_id

#: A bucket key: (origin AS, interface group id or None, target AS or None,
#: algorithm id or None).  RACs request candidates one bucket at a time.
BucketKey = Tuple[int, Optional[int], Optional[int], Optional[str]]


def _indexed_under_as(by_link: Dict[LinkID, Dict[str, None]], as_id: int) -> Iterator[str]:
    """Yield the digests indexed under each link with an endpoint in ``as_id``.

    How AS departure reads the link index: a key scan over the indexed
    links, exact because every AS on a path of two or more hops ends one
    of the path's links.
    """
    for link, digests in by_link.items():
        if as_id in (link[0][0], link[1][0]):
            yield from digests


@dataclass(frozen=True, slots=True)
class StoredBeacon:
    """A beacon at rest in the ingress database.

    Attributes:
        beacon: The verified beacon.
        received_on_interface: Local interface the beacon arrived on; this
            is what extended-path optimization and beacon termination need.
        received_at_ms: Simulated arrival time.
    """

    beacon: Beacon
    received_on_interface: int
    received_at_ms: float

    @property
    def bucket(self) -> BucketKey:
        """Return the bucket this beacon belongs to."""
        return (
            self.beacon.origin_as,
            self.beacon.interface_group_id,
            self.beacon.target_as,
            self.beacon.algorithm_id,
        )


@dataclass
class IngressDatabase:
    """Indexed store of received beacons.

    Beacons are deduplicated by digest: receiving the same beacon twice
    (e.g. over two parallel links) keeps only the first copy.

    Bucket membership is kept in insertion-ordered dicts used as sets, so
    expiry removes each digest from its bucket in O(1) instead of scanning
    a list, and buckets emptied by expiry are dropped from the index
    entirely.

    When ``local_as`` is set (control services set it; standalone
    micro-benchmark databases do not), every insert additionally indexes
    the beacon under the inter-domain links it traverses — including the
    link it *arrived* over, which is part of its path as seen locally.
    Revocation-driven invalidation then removes exactly the matching
    beacons instead of scanning the whole store per revocation, which is
    what keeps a network-wide revocation flood affordable; an AS departure
    reads the same index.
    """

    expiry_margin_ms: float = 0.0
    local_as: Optional[int] = None
    _by_digest: Dict[str, StoredBeacon] = field(default_factory=dict)
    #: Bucket → insertion-ordered set of digests (dict keys; values unused).
    _buckets: Dict[BucketKey, Dict[str, None]] = field(default_factory=dict)
    #: Link → digests of beacons crossing it (only when ``local_as`` set).
    _by_link: Dict[LinkID, Dict[str, None]] = field(default_factory=dict)

    def insert(self, stored: StoredBeacon) -> bool:
        """Insert a beacon; return ``False`` if it was already present."""
        digest = stored.beacon.digest()
        if digest in self._by_digest:
            return False
        self._by_digest[digest] = stored
        self._buckets.setdefault(stored.bucket, {})[digest] = None
        if self.local_as is not None:
            for link in self._links_of(stored):
                self._by_link.setdefault(link, {})[digest] = None
        return True

    def _links_of(self, stored: StoredBeacon) -> Tuple[LinkID, ...]:
        """Return the links of a stored beacon, including its arrival link."""
        links = stored.beacon.links()
        last = stored.beacon.entries[-1]
        if last.egress_interface is None:
            return links
        arrival = normalize_link_id(
            (last.as_id, last.egress_interface),
            (self.local_as, stored.received_on_interface),
        )
        return links + (arrival,)

    def bucket_keys(self) -> Tuple[BucketKey, ...]:
        """Return all non-empty bucket keys, deterministically ordered."""
        return tuple(
            sorted(
                (key for key, digests in self._buckets.items() if digests),
                key=lambda key: (key[0], key[1] or -1, key[2] or -1, key[3] or ""),
            )
        )

    def beacons_in_bucket(self, bucket: BucketKey) -> List[StoredBeacon]:
        """Return the stored beacons of one bucket (insertion order)."""
        return [self._by_digest[d] for d in self._buckets.get(bucket, ()) if d in self._by_digest]

    def all_beacons(self) -> List[StoredBeacon]:
        """Return every stored beacon (insertion order within buckets)."""
        return list(self._by_digest.values())

    def get(self, digest: str) -> Optional[StoredBeacon]:
        """Return the stored beacon with ``digest``, if present."""
        return self._by_digest.get(digest)

    def remove_expired(self, now_ms: float) -> int:
        """Drop beacons that are expired (or about to expire); return the count."""
        horizon = now_ms + self.expiry_margin_ms
        return self._remove_digests(
            digest
            for digest, stored in self._by_digest.items()
            if stored.beacon.is_expired(horizon)
        )

    def remove_crossing_link(self, link_id: LinkID, arrival_as: Optional[int] = None) -> int:
        """Drop every beacon whose path (including its arrival link) crosses
        ``link_id``; return the count.

        The revocation fast path: with ``local_as`` set the removal comes
        out of the link index in O(matches).  Without it (standalone
        databases) a predicate scan runs, using ``arrival_as`` for the
        arrival-link check when provided.
        """
        failed = normalize_link_id(*link_id)
        if self.local_as is not None:
            return self._remove_digests(tuple(self._by_link.get(failed, ())))
        local_as = arrival_as

        def crosses(stored: StoredBeacon) -> bool:
            if failed in stored.beacon.link_set():
                return True
            if local_as is None:
                return False
            last = stored.beacon.entries[-1]
            if last.egress_interface is None:
                return False
            arrival = normalize_link_id(
                (last.as_id, last.egress_interface),
                (local_as, stored.received_on_interface),
            )
            return failed == arrival

        return self.remove_matching(crosses)

    def remove_crossing_as(self, gone_as: int) -> int:
        """Drop every beacon whose AS path contains ``gone_as``; return the count.

        Arrival links end at the local AS without it being on the path, so
        the local AS itself is scanned for, as in a standalone database.
        """
        if self.local_as is not None and gone_as != self.local_as:
            return self._remove_digests(_indexed_under_as(self._by_link, gone_as))
        return self.remove_matching(lambda stored: stored.beacon.contains_as(gone_as))

    def remove_matching(self, predicate: Callable[[StoredBeacon], bool]) -> int:
        """Drop every stored beacon satisfying ``predicate``; return the count.

        This is the invalidation primitive of the dynamic-scenario engine:
        when an inter-domain link fails (or an AS leaves), the control
        service removes every beacon whose path crosses the failed element
        so that RACs re-select on the changed topology instead of keeping
        stale candidates alive until their natural expiry.
        """
        return self._remove_digests(
            digest for digest, stored in self._by_digest.items() if predicate(stored)
        )

    def _remove_digests(self, digests: Iterable[str]) -> int:
        removed = 0
        for digest in list(digests):
            stored = self._by_digest.pop(digest, None)
            if stored is None:
                continue
            removed += 1
            bucket_digests = self._buckets.get(stored.bucket)
            if bucket_digests is not None:
                bucket_digests.pop(digest, None)
                if not bucket_digests:
                    del self._buckets[stored.bucket]
            if self.local_as is not None:
                for link in self._links_of(stored):
                    members = self._by_link.get(link)
                    if members is not None:
                        members.pop(digest, None)
                        if not members:
                            del self._by_link[link]
        return removed

    def __len__(self) -> int:
        return len(self._by_digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest


@dataclass(slots=True)
class EgressRecord:
    """Egress-database entry: which interfaces a beacon hash was sent on."""

    expires_at_ms: float
    egress_interfaces: Set[int] = field(default_factory=set)


@dataclass
class EgressDatabase:
    """Hash-only store of already-propagated beacons.

    ``filter_new_interfaces`` is the deduplication primitive of the egress
    gateway: given a beacon and the egress interfaces the RACs selected it
    for, it returns only the interfaces the beacon has *not* been sent on
    yet, and records them (paper §V-D).

    ``expiry_margin_ms`` mirrors :class:`IngressDatabase`: expiry drops
    records that expire within the margin, so the three per-AS stores share
    one horizon and a beacon never survives here after the ingress database
    dropped it.
    """

    expiry_margin_ms: float = 0.0
    _records: Dict[str, EgressRecord] = field(default_factory=dict)

    def filter_new_interfaces(
        self, digest: str, interfaces: Iterable[int], expires_at_ms: float
    ) -> List[int]:
        """Return the not-yet-used interfaces for ``digest`` and record them."""
        record = self._records.get(digest)
        if record is None:
            record = EgressRecord(expires_at_ms=expires_at_ms)
            self._records[digest] = record
        record.expires_at_ms = max(record.expires_at_ms, expires_at_ms)
        fresh = [i for i in interfaces if i not in record.egress_interfaces]
        record.egress_interfaces.update(fresh)
        return fresh

    def interfaces_for(self, digest: str) -> Set[int]:
        """Return the interfaces ``digest`` was already propagated on."""
        record = self._records.get(digest)
        return set(record.egress_interfaces) if record is not None else set()

    def remove_expired(self, now_ms: float) -> int:
        """Drop records that are expired (or about to expire); return the count."""
        horizon = now_ms + self.expiry_margin_ms
        expired = [d for d, record in self._records.items() if record.expires_at_ms <= horizon]
        for digest in expired:
            del self._records[digest]
        return len(expired)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records


@dataclass(frozen=True, slots=True)
class RegisteredPath:
    """A path registered at the local path service.

    Attributes:
        segment: The terminated beacon describing the path from its origin
            AS to the registering AS.
        criteria_tags: Names of the criteria (RACs) the path was optimized
            for — the usability tagging of paper §V-D.
        registered_at_ms: Simulated time of the *first* registration.
        last_registered_at_ms: Simulated time of the most recent
            (re-)registration; re-registering a known segment merges tags
            but still refreshes this timestamp, so convergence measurement
            can see *when* a path came back rather than only that it is
            present at the next period-boundary probe.
    """

    segment: Beacon
    criteria_tags: Tuple[str, ...]
    registered_at_ms: float
    last_registered_at_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.segment.is_terminated:
            raise GatewayError("only terminated beacons can be registered as paths")
        if self.last_registered_at_ms is None:
            object.__setattr__(self, "last_registered_at_ms", self.registered_at_ms)


@dataclass
class PathService:
    """The per-AS path service end hosts query for paths.

    Registration enforces the per-(criteria, origin, interface-group) limit
    the paper uses in its simulations (20 paths); re-registration of an
    already-known segment merges the criteria tags instead of consuming
    quota.

    Registered segments are additionally indexed by the inter-domain links
    they traverse, so revocation-driven withdrawal
    (:meth:`remove_crossing_link`) costs O(matching paths) instead of a
    full scan per revocation; :meth:`remove_crossing_as` reads the same index.

    ``expiry_margin_ms`` mirrors :class:`IngressDatabase`: expiry drops
    paths whose segment expires within the margin, keeping all per-AS
    stores on one horizon.

    Mutations that touch a digest (registration, merge, withdrawal, expiry
    purge) notify the registered invalidation listeners with the affected
    origin AS — the hook the query-frontend cache uses to invalidate
    precisely instead of scanning.
    """

    max_paths_per_key: int = 20
    expiry_margin_ms: float = 0.0
    _by_digest: Dict[str, RegisteredPath] = field(default_factory=dict)
    _quota: Dict[Tuple[str, int, Optional[int]], int] = field(default_factory=dict)
    #: Which quota keys each stored digest actually consumed a slot of, so
    #: removal releases exactly what registration took (merged criteria
    #: tags do not consume — and therefore do not release — extra slots).
    _consumed: Dict[str, Tuple[Tuple[str, int, Optional[int]], ...]] = field(
        default_factory=dict
    )
    #: Link → digests of registered segments crossing it.
    _by_link: Dict[LinkID, Dict[str, None]] = field(default_factory=dict)
    #: Origin AS → digests of registered segments starting there, in
    #: insertion order (dict-as-ordered-set), so ``paths_to`` is indexed
    #: instead of a full ``_by_digest`` scan.  Merges replace the record
    #: in ``_by_digest`` without moving it, so per-origin insertion order
    #: equals the scan's filtered order and results are identical.
    _by_origin: Dict[int, Dict[str, None]] = field(default_factory=dict)
    #: Terminal (registering) AS → digests ending there: the index down-
    #: segment registration at core ASes serves destination queries from.
    _by_terminal: Dict[int, Dict[str, None]] = field(default_factory=dict)
    _invalidation_listeners: List[Callable[[int], None]] = field(default_factory=list)

    def add_invalidation_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(origin_as)`` whenever a digest with that origin
        is registered, merged, withdrawn, or purged by expiry."""
        self._invalidation_listeners.append(listener)

    def _notify_invalidation(self, origin_as: int) -> None:
        for listener in self._invalidation_listeners:
            listener(origin_as)

    def register(self, path: RegisteredPath) -> bool:
        """Register ``path``; return whether it was accepted (or merged)."""
        digest = path.segment.digest()
        existing = self._by_digest.get(digest)
        if existing is not None:
            merged_tags = tuple(sorted(set(existing.criteria_tags) | set(path.criteria_tags)))
            # Re-registration keeps the original registration time but
            # refreshes the last-registered timestamp: recovery detection
            # uses it to date a path's return sub-period instead of waiting
            # for the next period-boundary probe.
            self._by_digest[digest] = RegisteredPath(
                segment=existing.segment,
                criteria_tags=merged_tags,
                registered_at_ms=existing.registered_at_ms,
                last_registered_at_ms=max(
                    existing.last_registered_at_ms or existing.registered_at_ms,
                    path.last_registered_at_ms or path.registered_at_ms,
                ),
            )
            if self._invalidation_listeners:
                self._notify_invalidation(existing.segment.origin_as)
            return True

        consumed = []
        for tag in path.criteria_tags:
            key = (tag, path.segment.origin_as, path.segment.interface_group_id)
            used = self._quota.get(key, 0)
            if used < self.max_paths_per_key:
                self._quota[key] = used + 1
                consumed.append(key)
        if not consumed:
            return False
        self._by_digest[digest] = path
        self._consumed[digest] = tuple(consumed)
        for link in path.segment.links():
            self._by_link.setdefault(link, {})[digest] = None
        origin_as = path.segment.origin_as
        self._by_origin.setdefault(origin_as, {})[digest] = None
        self._by_terminal.setdefault(path.segment.last_as, {})[digest] = None
        if self._invalidation_listeners:
            self._notify_invalidation(origin_as)
        return True

    def paths_to(self, origin_as: int) -> List[RegisteredPath]:
        """Return every registered path whose origin is ``origin_as``.

        Indexed through ``_by_origin`` — O(matching paths), never a scan —
        and order-identical to the historical ``_by_digest`` filter.
        """
        by_digest = self._by_digest
        return [by_digest[d] for d in self._by_origin.get(origin_as, ())]

    def down_paths_to(self, terminal_as: int) -> List[RegisteredPath]:
        """Return every registered segment *ending* at ``terminal_as``.

        At a core AS that accepts down-segment registrations
        (``register_at_origin`` path-registration messages), this is the
        destination-keyed view: segments usable to reach ``terminal_as``.
        """
        by_digest = self._by_digest
        return [by_digest[d] for d in self._by_terminal.get(terminal_as, ())]

    def get(self, digest: str) -> Optional[RegisteredPath]:
        """Return the registered path with segment ``digest``, if present.

        The traffic engine revalidates its active flow assignments with
        this: a path withdrawn by the dynamic-scenario engine (or expired)
        must stop carrying traffic at the next round.
        """
        return self._by_digest.get(digest)

    def latest_registration_ms(self, origin_as: int) -> Optional[float]:
        """Return the most recent (re-)registration time towards ``origin_as``.

        ``None`` when no path to that origin is registered.  A staleness
        query: merges refresh ``last_registered_at_ms``, so this tells how
        recently the control plane confirmed *any* path to the origin.
        (Recovery dating uses first-registration times of usable paths
        instead — see ``BeaconingSimulation._usable_registration_times``.)
        """
        by_digest = self._by_digest
        times = [
            by_digest[d].last_registered_at_ms
            for d in self._by_origin.get(origin_as, ())
            if by_digest[d].last_registered_at_ms is not None
        ]
        return max(times) if times else None

    def paths_with_tag(self, tag: str) -> List[RegisteredPath]:
        """Return every registered path optimized for criteria ``tag``."""
        return [p for p in self._by_digest.values() if tag in p.criteria_tags]

    def all_paths(self) -> List[RegisteredPath]:
        """Return every registered path."""
        return list(self._by_digest.values())

    def remove_expired(self, now_ms: float) -> int:
        """Drop paths whose segments are expired (or about to); return the count."""
        horizon = now_ms + self.expiry_margin_ms
        return self._remove_digests(
            digest
            for digest, path in self._by_digest.items()
            if path.segment.is_expired(horizon)
        )

    def origins_crossing_link(self, link_id: LinkID) -> Set[int]:
        """Return the origin ASes of the registered paths crossing ``link_id``.

        Indexed like :meth:`remove_crossing_link`: the convergence probe
        maps a link whose availability changed to the ``(this AS, origin)``
        pairs whose usable-path count may have moved.
        """
        by_digest = self._by_digest
        return {
            by_digest[digest].segment.origin_as
            for digest in self._by_link.get(normalize_link_id(*link_id), ())
        }

    def remove_crossing_link(self, link_id: LinkID) -> int:
        """Withdraw every path crossing ``link_id``; return the count.

        Indexed (O(matching paths)): the revocation fast path.
        """
        failed = normalize_link_id(*link_id)
        return self._remove_digests(tuple(self._by_link.get(failed, ())))

    def remove_crossing_as(self, gone_as: int) -> int:
        """Withdraw every path whose AS path contains ``gone_as``."""
        return self._remove_digests(_indexed_under_as(self._by_link, gone_as))

    def remove_matching(self, predicate: Callable[[RegisteredPath], bool]) -> int:
        """Drop every registered path satisfying ``predicate``; return the count.

        Used by the dynamic-scenario engine to withdraw paths crossing a
        failed link (or a departed AS) immediately instead of waiting for
        segment expiry.
        """
        return self._remove_digests(
            digest for digest, path in self._by_digest.items() if predicate(path)
        )

    def _remove_digests(self, digests: Iterable[str]) -> int:
        """Remove paths by digest, releasing exactly the quota they consumed."""
        removed = 0
        touched_origins: Dict[int, None] = {}
        for digest in list(digests):
            path = self._by_digest.pop(digest, None)
            if path is None:
                continue
            removed += 1
            for key in self._consumed.pop(digest, ()):
                used = self._quota.get(key, 0)
                if used > 1:
                    self._quota[key] = used - 1
                elif used == 1:
                    del self._quota[key]
            for link in path.segment.links():
                members = self._by_link.get(link)
                if members is not None:
                    members.pop(digest, None)
                    if not members:
                        del self._by_link[link]
            origin_as = path.segment.origin_as
            members = self._by_origin.get(origin_as)
            if members is not None:
                members.pop(digest, None)
                if not members:
                    del self._by_origin[origin_as]
            members = self._by_terminal.get(path.segment.last_as)
            if members is not None:
                members.pop(digest, None)
                if not members:
                    del self._by_terminal[path.segment.last_as]
            touched_origins[origin_as] = None
        if touched_origins and self._invalidation_listeners:
            for origin_as in touched_origins:
                self._notify_invalidation(origin_as)
        return removed

    def __len__(self) -> int:
        return len(self._by_digest)

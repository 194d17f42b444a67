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
from enum import IntEnum
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import Beacon, BucketKey
from repro.exceptions import GatewayError
from repro.topology.entities import LinkID, normalize_link_id

#: How long before its expiry a stored beacon, propagation record or
#: registered path counts as expired.  One margin for the three per-AS
#: stores, so a beacon never survives in one after another dropped it.
EXPIRY_MARGIN_MS = 0.0


def _indexed_under_as(by_link: Dict[LinkID, List[str]], as_id: int) -> Iterator[str]:
    """Yield the digests indexed under each link with an endpoint in ``as_id``.

    How AS departure reads the link index: a key scan over the indexed
    links, exact because every AS on a path of two or more hops ends one
    of the path's links.
    """
    for link, digests in by_link.items():
        if as_id in (link[0][0], link[1][0]):
            yield from digests


def _index(index: Dict[Any, List[str]], key: Any, digest: str) -> None:
    """Append ``digest`` to the list ``index[key]``, creating it if needed."""
    members = index.get(key)
    if members is None:
        index[key] = [digest]
    else:
        members.append(digest)


def _unindex(index: Dict[Any, List[str]], key: Any, digest: str) -> None:
    """Remove ``digest`` from the list ``index[key]``, dropping the key once empty.

    An index keeps a list per key: 64 B plus 8 B a member, where a dict or
    set costs ≈ 200 B before its first.  ``list.remove`` scans the key's
    members; they are the stored beacons' own digest objects, so each
    comparison short-circuits on identity.
    """
    members = index[key]
    members.remove(digest)
    if not members:
        del index[key]


def bucket_of(beacon: Beacon) -> BucketKey:
    """Return the bucket ``beacon`` belongs to: its header's one key object."""
    return beacon.header.bucket()


def _bucket_sort_key(key: BucketKey) -> Tuple:
    return (key[0], key[1] or -1, key[2] or -1, key[3] or "")


@dataclass
class IngressDatabase:
    """Indexed store of received beacons.

    Beacons are deduplicated by digest: receiving the same beacon twice
    (e.g. over two parallel links) keeps only the first copy.  The stored
    record is the :class:`CandidateBeacon` a RAC hands its algorithm.

    Each bucket is a list of its records in insertion order, read with one
    copy.  Removal finds the record by identity, O(bucket size): expiry
    drops the oldest records, which sit at the front.  Buckets emptied by
    removal are dropped from the index entirely.  The sorted bucket order
    :meth:`bucket_keys` returns is cached until a bucket appears or empties.

    Every insert additionally indexes the beacon under the inter-domain
    links it traverses — including the link it *arrived* over at
    ``local_as``, which is part of its path as seen locally.
    Revocation-driven invalidation then removes exactly the matching
    beacons instead of scanning the whole store per revocation, which is
    what keeps a network-wide revocation flood affordable; an AS departure
    reads the same index.  Each link maps to a list of digests; removing
    one costs O(beacons on that link).
    """

    local_as: int
    _by_digest: Dict[str, CandidateBeacon] = field(default_factory=dict, init=False)
    #: Bucket → its records, in insertion order.
    _buckets: Dict[BucketKey, List[CandidateBeacon]] = field(default_factory=dict, init=False)
    #: What :meth:`bucket_keys` returns; ``None`` once a bucket appeared or emptied.
    _bucket_order: Optional[Tuple[BucketKey, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Link → digests of beacons crossing it, arrival link included.
    _by_link: Dict[LinkID, List[str]] = field(default_factory=dict, init=False)

    def insert(self, stored: CandidateBeacon) -> bool:
        """Insert a beacon; return ``False`` if it was already present."""
        digest = stored.beacon.digest()
        if digest in self._by_digest:
            return False
        self._by_digest[digest] = stored
        bucket = bucket_of(stored.beacon)
        members = self._buckets.get(bucket)
        if members is None:
            # Built full: an empty list grown by one append over-allocates.
            self._buckets[bucket] = [stored]
            self._bucket_order = None
        else:
            members.append(stored)
        for link in self._links_of(stored):
            _index(self._by_link, link, digest)
        return True

    def _links_of(self, stored: CandidateBeacon) -> Tuple[LinkID, ...]:
        """Return the links of a stored beacon, including its arrival link."""
        links = stored.beacon.walk_links()
        last = stored.beacon.entry
        if last.egress_interface is None:
            return links
        arrival = normalize_link_id(
            (last.as_id, last.egress_interface),
            (self.local_as, stored.ingress_interface),
        )
        return links + (arrival,)

    def bucket_keys(self) -> Tuple[BucketKey, ...]:
        """Return all non-empty bucket keys, deterministically ordered."""
        order = self._bucket_order
        if order is None:
            order = self._bucket_order = tuple(sorted(self._buckets, key=_bucket_sort_key))
        return order

    def beacons_in_bucket(self, bucket: BucketKey) -> List[CandidateBeacon]:
        """Return the stored beacons of one bucket (insertion order)."""
        members = self._buckets.get(bucket)
        return list(members) if members is not None else []

    def all_beacons(self) -> List[CandidateBeacon]:
        """Return every stored beacon (insertion order within buckets)."""
        return list(self._by_digest.values())

    def get(self, digest: str) -> Optional[CandidateBeacon]:
        """Return the stored beacon with ``digest``, if present."""
        return self._by_digest.get(digest)

    def remove_expired(self, now_ms: float) -> int:
        """Drop beacons that are expired (or about to expire); return the count."""
        horizon = now_ms + EXPIRY_MARGIN_MS
        return self._remove_digests(
            digest
            for digest, stored in self._by_digest.items()
            if stored.beacon.is_expired(horizon)
        )

    def remove_crossing_link(self, link_id: LinkID) -> int:
        """Drop every beacon whose path (including its arrival link) crosses
        ``link_id``; return the count.

        The revocation fast path: the removal comes out of the link index
        in O(matches).
        """
        failed = normalize_link_id(*link_id)
        return self._remove_digests(tuple(self._by_link.get(failed, ())))

    def remove_crossing_as(self, gone_as: int) -> int:
        """Drop every beacon whose AS path contains ``gone_as``; return the count.

        Arrival links end at the local AS without it being on the path, so
        the local AS itself is scanned for.
        """
        if gone_as != self.local_as:
            return self._remove_digests(_indexed_under_as(self._by_link, gone_as))
        return self.remove_matching(lambda stored: stored.beacon.contains_as(gone_as))

    def remove_matching(self, predicate: Callable[[CandidateBeacon], bool]) -> int:
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
            bucket = bucket_of(stored.beacon)
            members = self._buckets[bucket]
            # By identity: ``CandidateBeacon.__eq__`` compares content.
            for index, member in enumerate(members):
                if member is stored:
                    del members[index]
                    break
            if not members:
                del self._buckets[bucket]
                self._bucket_order = None
            for link in self._links_of(stored):
                _unindex(self._by_link, link, digest)
        return removed

    def __len__(self) -> int:
        return len(self._by_digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_digest


@dataclass(slots=True)
class EgressRecord:
    """Egress-database entry: which interfaces a beacon hash was sent on.

    A tuple, each interface once, in the order it was first sent on: most
    beacons go out on one or two interfaces, and a set costs ≈ 200 B
    before its first member.
    """

    expires_at_ms: float
    egress_interfaces: Tuple[int, ...] = ()


@dataclass
class EgressDatabase:
    """Hash-only store of already-propagated beacons.

    ``filter_new_interfaces`` is the deduplication primitive of the egress
    gateway: given a beacon and the egress interfaces the RACs selected it
    for, it returns only the interfaces the beacon has *not* been sent on
    yet, and records them (paper §V-D).

    Expiry drops records that expire within :data:`EXPIRY_MARGIN_MS`, the
    horizon the ingress database uses too.

    The records share their expiry objects through ``_expiries``, one float
    per distinct expiry time rather than one per record, and
    :meth:`remove_expired` scans the records only when one of those times
    has passed.
    """

    _records: Dict[str, EgressRecord] = field(default_factory=dict, init=False)
    #: Expiry time -> the one float object every record expiring then holds.
    _expiries: Dict[float, float] = field(default_factory=dict, init=False)

    def filter_new_interfaces(
        self, digest: str, interfaces: Iterable[int], expires_at_ms: float
    ) -> List[int]:
        """Return the not-yet-used interfaces for ``digest`` and record them."""
        record = self._records.get(digest)
        if record is None:
            record = EgressRecord(self._expiries.setdefault(expires_at_ms, expires_at_ms))
            self._records[digest] = record
        elif expires_at_ms > record.expires_at_ms:
            record.expires_at_ms = self._expiries.setdefault(expires_at_ms, expires_at_ms)
        sent = record.egress_interfaces
        fresh = [i for i in interfaces if i not in sent]
        if fresh:
            record.egress_interfaces = sent + tuple(dict.fromkeys(fresh))
        return fresh

    def remove_expired(self, now_ms: float) -> int:
        """Drop records that are expired (or about to expire); return the count."""
        horizon = now_ms + EXPIRY_MARGIN_MS
        passed = [at_ms for at_ms in self._expiries if at_ms <= horizon]
        if not passed:
            return 0
        for at_ms in passed:
            del self._expiries[at_ms]
        expired = [d for d, record in self._records.items() if record.expires_at_ms <= horizon]
        for digest in expired:
            del self._records[digest]
        return len(expired)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records


class Registration(IntEnum):
    """What :meth:`PathService.register` did; false only when it refused."""

    #: The quota of every criteria tag of a new segment was used up.
    REFUSED = 0
    #: The segment was held with every tag already: nothing changed.
    REPEAT = 1
    #: A new segment, or a known one that gained a criteria tag.
    NEWS = 2


@dataclass(frozen=True, slots=True)
class RegisteredPath:
    """A path registered at the local path service.

    Attributes:
        segment: The terminated beacon describing the path from its origin
            AS to the registering AS.
        criteria_tags: Names of the criteria (RACs) the path was optimized
            for — the usability tagging of paper §V-D.
        registered_at_ms: Simulated time of the *first* registration;
            re-registering a known segment merges tags and keeps it.
    """

    segment: Beacon
    criteria_tags: Tuple[str, ...]
    registered_at_ms: float

    def __post_init__(self) -> None:
        if not self.segment.is_terminated:
            raise GatewayError("only terminated beacons can be registered as paths")


@dataclass
class PathService:
    """The per-AS path service end hosts query for paths.

    Registration enforces the per-(criteria, origin, interface-group) limit
    the paper uses in its simulations (20 paths); re-registration of an
    already-known segment merges the criteria tags instead of consuming
    quota, and one that adds no tag changes nothing.

    Registered segments are additionally indexed by the inter-domain links
    they traverse, so revocation-driven withdrawal
    (:meth:`remove_crossing_link`) costs O(matching paths) instead of a
    full scan per revocation; :meth:`remove_crossing_as` reads the same index.
    Every index maps a key to a list of digests in insertion order;
    removing a digest costs O(paths under its keys).

    Expiry drops paths whose segment expires within
    :data:`EXPIRY_MARGIN_MS`, the horizon of every per-AS store.

    Mutations that touch a digest (registration, merge, withdrawal, expiry
    purge) notify the registered invalidation listeners with the affected
    origin AS — the hook the query-frontend cache uses to invalidate
    precisely instead of scanning.
    """

    max_paths_per_key: int = 20
    _by_digest: Dict[str, RegisteredPath] = field(default_factory=dict, init=False)
    _quota: Dict[Tuple[str, int, Optional[int]], int] = field(default_factory=dict, init=False)
    #: Which criteria tags of each stored digest actually took a quota
    #: slot — the path's own ``criteria_tags`` when all of them did — so
    #: removal releases exactly what registration took (merged criteria
    #: tags do not consume — and therefore do not release — extra slots).
    #: Release rebuilds each quota key from the segment.
    _consumed: Dict[str, Tuple[str, ...]] = field(default_factory=dict, init=False)
    #: Link → digests of registered segments crossing it.
    _by_link: Dict[LinkID, List[str]] = field(default_factory=dict, init=False)
    #: Origin AS → digests of registered segments starting there, in
    #: insertion order, so ``paths_to`` is indexed instead of a full
    #: ``_by_digest`` scan.  Merges replace the record in ``_by_digest``
    #: without moving it, so per-origin insertion order equals the scan's
    #: filtered order and results are identical.
    _by_origin: Dict[int, List[str]] = field(default_factory=dict, init=False)
    _invalidation_listeners: List[Callable[[int], None]] = field(default_factory=list, init=False)

    def add_invalidation_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(origin_as)`` whenever a digest with that origin
        is registered, merged, withdrawn, or purged by expiry."""
        self._invalidation_listeners.append(listener)

    def _notify_invalidation(self, origin_as: int) -> None:
        for listener in self._invalidation_listeners:
            listener(origin_as)

    def register(self, path: RegisteredPath) -> Registration:
        """Register ``path``; return whether it was news, a repeat or refused.

        Only a refusal leaves the path out of the store, and only news
        changes it.
        """
        digest = path.segment.digest()
        existing = self._by_digest.get(digest)
        if existing is not None:
            merged_tags = tuple(sorted(set(existing.criteria_tags) | set(path.criteria_tags)))
            if merged_tags == existing.criteria_tags:
                # A repeat changes nothing: no new record, no notification.
                return Registration.REPEAT
            # A merge keeps the original registration time.
            self._by_digest[digest] = RegisteredPath(
                segment=existing.segment,
                criteria_tags=merged_tags,
                registered_at_ms=existing.registered_at_ms,
            )
            if self._invalidation_listeners:
                self._notify_invalidation(existing.segment.origin_as)
            return Registration.NEWS

        segment = path.segment
        origin_as = segment.origin_as
        group = segment.interface_group_id
        tags = path.criteria_tags
        consumed = []
        for tag in tags:
            key = (tag, origin_as, group)
            used = self._quota.get(key, 0)
            if used < self.max_paths_per_key:
                self._quota[key] = used + 1
                consumed.append(tag)
        if not consumed:
            return Registration.REFUSED
        self._by_digest[digest] = path
        self._consumed[digest] = tags if len(consumed) == len(tags) else tuple(consumed)
        for link in segment.walk_links():
            _index(self._by_link, link, digest)
        _index(self._by_origin, origin_as, digest)
        if self._invalidation_listeners:
            self._notify_invalidation(origin_as)
        return Registration.NEWS

    def paths_to(self, origin_as: int) -> List[RegisteredPath]:
        """Return every registered path whose origin is ``origin_as``.

        Indexed through ``_by_origin`` — O(matching paths), never a scan —
        and order-identical to the historical ``_by_digest`` filter.
        """
        by_digest = self._by_digest
        return [by_digest[d] for d in self._by_origin.get(origin_as, ())]

    def get(self, digest: str) -> Optional[RegisteredPath]:
        """Return the registered path with segment ``digest``, if present.

        The traffic engine revalidates its active flow assignments with
        this: a path withdrawn by the dynamic-scenario engine (or expired)
        must stop carrying traffic at the next round.
        """
        return self._by_digest.get(digest)

    def all_paths(self) -> List[RegisteredPath]:
        """Return every registered path."""
        return list(self._by_digest.values())

    @property
    def expiry_margin_ms(self) -> float:
        """Return :data:`EXPIRY_MARGIN_MS`, the horizon the query tier applies."""
        return EXPIRY_MARGIN_MS

    def remove_expired(self, now_ms: float) -> int:
        """Drop paths whose segments are expired (or about to); return the count."""
        horizon = now_ms + EXPIRY_MARGIN_MS
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
            segment = path.segment
            origin_as = segment.origin_as
            group = segment.interface_group_id
            for tag in self._consumed.pop(digest):
                key = (tag, origin_as, group)
                used = self._quota[key]
                if used > 1:
                    self._quota[key] = used - 1
                else:
                    del self._quota[key]
            for link in segment.walk_links():
                _unindex(self._by_link, link, digest)
            _unindex(self._by_origin, origin_as, digest)
            touched_origins[origin_as] = None
        if touched_origins and self._invalidation_listeners:
            for origin_as in touched_origins:
                self._notify_invalidation(origin_as)
        return removed

    def __len__(self) -> int:
        return len(self._by_digest)

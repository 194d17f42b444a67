"""Path-query serving tier: typed queries, per-AS response cache.

End hosts (and the traffic engine's path re-selection) used to reach
directly into :class:`~repro.core.databases.PathService`.  This module
puts a production-shaped serving tier in front of it:

* :class:`PathQuery` — a frozen, typed query: "paths to ``origin_as``
  under this policy" (criteria tags, max-latency / min-bandwidth
  predicates, result limit).  Queries are hashable and carry a canonical
  ``policy_key`` so equivalent policies share one cache entry.
* :class:`PathQueryFrontend` — the per-AS frontend.  Lookups hit a
  bounded LRU of materialized responses keyed ``(origin_as,
  policy_key)``.  Entries are expiry-aware (they can never outlive the
  earliest member segment, honoring the service's ``expiry_margin_ms``)
  and are invalidated *precisely*: the frontend subscribes to
  ``PathService.add_invalidation_listener``, so revocation-driven
  withdrawal, expiry purge, and new registrations drop exactly the
  cached keys of the touched origin — never by scanning the cache.

The frontend is deliberately read-only over the path service and keeps
no simulated-time state of its own: a ``clock`` may be attached (the
simulation wires the scheduler in) but defaults to ``None``, in which
case lookups without an explicit ``now_ms`` behave like the historical
direct ``paths_to`` call at time zero.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.messages import _memo
from repro.core.databases import PathService, RegisteredPath
from repro.exceptions import ConfigurationError

#: Default bound on materialized responses kept per frontend.  Sized for
#: the simulated topologies (≤ a few hundred ASes × a handful of
#: policies); the LRU keeps the working set regardless.
DEFAULT_CACHE_CAPACITY = 1024


@dataclass(frozen=True)
class PathQuery:
    """A typed path lookup: paths to ``origin_as`` satisfying a policy.

    Attributes:
        origin_as: The origin (destination of the lookup) AS.
        required_tags: Criteria tags of which at least one must be on the
            path — the same any-of semantics as
            :class:`~repro.dataplane.endhost.PathSelectionPreference`.
        max_latency_ms: Keep only paths whose end-to-end propagation
            latency is at most this.
        min_bandwidth_mbps: Keep only paths whose bottleneck bandwidth is
            at least this.
        limit: Truncate the (service-ordered) result to this many paths.
    """

    origin_as: int
    required_tags: Tuple[str, ...] = ()
    max_latency_ms: Optional[float] = None
    min_bandwidth_mbps: Optional[float] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit <= 0:
            raise ConfigurationError(f"query limit must be positive, got {self.limit}")

    def policy_key(self) -> str:
        """Canonical string for the policy part (everything but origin).

        Tag order is normalized, so two queries asking the same thing
        share one cache entry.
        """
        return _memo(
            self,
            "_policy_key",
            lambda: "tags={};lat={};bw={};limit={}".format(
                ",".join(sorted(self.required_tags)),
                self.max_latency_ms,
                self.min_bandwidth_mbps,
                self.limit,
            ),
        )

    def cache_key(self) -> Tuple[int, str]:
        """The frontend cache key: ``(origin_as, policy_key)``."""
        return _memo(self, "_cache_key", lambda: (self.origin_as, self.policy_key()))

    def admits(self, path: RegisteredPath) -> bool:
        """Return whether ``path`` satisfies this query's policy."""
        if self.required_tags and not any(
            tag in path.criteria_tags for tag in self.required_tags
        ):
            return False
        if (
            self.max_latency_ms is not None
            and path.segment.total_latency_ms() > self.max_latency_ms
        ):
            return False
        if (
            self.min_bandwidth_mbps is not None
            and path.segment.bottleneck_bandwidth_mbps() < self.min_bandwidth_mbps
        ):
            return False
        return True


class QueryResult(NamedTuple):
    """One served lookup: the materialized paths and whether it was cached."""

    paths: Tuple[RegisteredPath, ...]
    cache_hit: bool


class _CacheEntry:
    """A materialized response plus the instant it stops being servable."""

    __slots__ = ("result", "valid_until_ms")

    def __init__(self, result: QueryResult, valid_until_ms: Optional[float]) -> None:
        self.result = result
        self.valid_until_ms = valid_until_ms


class PathQueryFrontend:
    """Per-AS query frontend over :class:`PathService` with an LRU cache.

    The cache-invalidation contract (see ``docs/path_service.md``):

    * a lookup never serves a cached entry past the earliest expiry of
      its member segments minus the service's ``expiry_margin_ms``;
    * any registration, merge, withdrawal, or expiry purge touching a
      digest with origin ``X`` drops every cached key for origin ``X``
      before the mutation returns — via the service's invalidation
      listener and the frontend's per-origin key index, never by scan.
    """

    def __init__(
        self,
        path_service: PathService,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CACHE_CAPACITY,
        negative_ttl_ms: Optional[float] = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"query cache capacity must be positive, got {capacity}")
        if negative_ttl_ms is not None and negative_ttl_ms <= 0:
            raise ConfigurationError(
                f"negative-cache TTL must be positive, got {negative_ttl_ms}"
            )
        self.path_service = path_service
        self.clock = clock
        self.capacity = capacity
        #: Lifetime of cached *empty* responses.  ``None`` (the default)
        #: keeps the historical behavior — an empty response stays cached
        #: until the origin is invalidated.  A TTL bounds how long a
        #: "no paths" answer can outlive a registration the invalidation
        #: listener missed (e.g. a frontend wired up after its service).
        self.negative_ttl_ms = negative_ttl_ms
        self._cache: "OrderedDict[Tuple[int, str], _CacheEntry]" = OrderedDict()
        #: Origin AS → cached keys for it: the indexed invalidation path.
        self._keys_by_origin: Dict[int, Set[Tuple[int, str]]] = {}
        #: Per-origin plain (no-policy) queries, so ``paths()`` doesn't
        #: rebuild a PathQuery per lookup on the hot path.
        self._plain_queries: Dict[int, PathQuery] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.expired_entries = 0
        self.negative_hits = 0
        self.negative_inserts = 0
        path_service.add_invalidation_listener(self._invalidate_origin)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def query(self, query: PathQuery, now_ms: Optional[float] = None) -> QueryResult:
        """Serve ``query``, from cache when a live entry exists."""
        self.lookups += 1
        key = query.cache_key()
        entry = self._cache.get(key)
        if entry is not None:
            if now_ms is None:
                now_ms = self.clock() if self.clock is not None else 0.0
            if entry.valid_until_ms is None or now_ms < entry.valid_until_ms:
                self.hits += 1
                if not entry.result.paths:
                    self.negative_hits += 1
                self._cache.move_to_end(key)
                return entry.result
            # Expired in cache: never serve it (satellite bugfix) —
            # drop and fall through to a fresh materialization.
            self.expired_entries += 1
            self._drop_key(key)
        self.misses += 1
        if now_ms is None:
            now_ms = self.clock() if self.clock is not None else 0.0
        return self._materialize(query, key, now_ms)

    def paths(self, origin_as: int, now_ms: Optional[float] = None) -> Tuple[RegisteredPath, ...]:
        """Serve the plain "all paths to ``origin_as``" lookup."""
        query = self._plain_queries.get(origin_as)
        if query is None:
            query = self._plain_queries[origin_as] = PathQuery(origin_as)
        return self.query(query, now_ms=now_ms).paths

    def _materialize(
        self, query: PathQuery, key: Tuple[int, str], now_ms: float
    ) -> QueryResult:
        margin = self.path_service.expiry_margin_ms
        horizon = now_ms + margin
        valid_until: Optional[float] = None
        paths: List[RegisteredPath] = []
        for path in self.path_service.paths_to(query.origin_as):
            if path.segment.is_expired(horizon):
                continue
            if not query.admits(path):
                continue
            paths.append(path)
            if query.limit is not None and len(paths) == query.limit:
                break
        for path in paths:
            expires = path.segment.expires_at_ms() - margin
            if valid_until is None or expires < valid_until:
                valid_until = expires
        members = tuple(paths)
        if not members:
            # An explicit negative entry: "no paths" is a first-class
            # cached answer (counted separately), optionally TTL-bounded.
            self.negative_inserts += 1
            if self.negative_ttl_ms is not None:
                ttl_until = now_ms + self.negative_ttl_ms
                if valid_until is None or ttl_until < valid_until:
                    valid_until = ttl_until
        # The entry stores a hit-labelled result so the (hot) hit path can
        # return it without allocating; only this cold path builds the
        # miss-labelled twin.
        result = QueryResult(members, False)
        self._cache[key] = _CacheEntry(QueryResult(members, True), valid_until)
        self._keys_by_origin.setdefault(query.origin_as, set()).add(key)
        if len(self._cache) > self.capacity:
            evicted_key, _ = self._cache.popitem(last=False)
            self.evictions += 1
            keys = self._keys_by_origin.get(evicted_key[0])
            if keys is not None:
                keys.discard(evicted_key)
                if not keys:
                    del self._keys_by_origin[evicted_key[0]]
        return result

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _invalidate_origin(self, origin_as: int) -> None:
        """Drop every cached response for ``origin_as`` (indexed, no scan)."""
        keys = self._keys_by_origin.pop(origin_as, None)
        if not keys:
            return
        cache = self._cache
        for key in keys:
            if cache.pop(key, None) is not None:
                self.invalidations += 1

    def _drop_key(self, key: Tuple[int, str]) -> None:
        self._cache.pop(key, None)
        keys = self._keys_by_origin.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._keys_by_origin[key[0]]

    def clear(self) -> None:
        """Drop every cached response (counters are kept)."""
        self._cache.clear()
        self._keys_by_origin.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def cache_hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def counters(self) -> Dict[str, float]:
        """The serving counters as one plain dict."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "expired_entries": self.expired_entries,
            "negative_hits": self.negative_hits,
            "negative_inserts": self.negative_inserts,
            "cache_size": len(self._cache),
            "hit_ratio": self.cache_hit_ratio,
        }

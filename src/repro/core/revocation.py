"""Revocation messages: the control plane's reaction to failures, as traffic.

Before this module existed, the dynamic-scenario engine modelled the
post-failure revocation flood as an instantaneous counter bump: every AS's
databases were purged at the failure timestamp and one notification per AS
was added to the overhead counters.  That made convergence metrics blind to
the quantity the measurement literature on routing events actually studies
— how withdrawal *messages* spread through the topology over time.

A :class:`RevocationMessage` is a first-class control-plane message:

* it names one or more failed elements (inter-domain links and/or
  departed ASes),
* it is originated by an AS adjacent to the failure, carries a per-origin
  **sequence number**, and is **signed** by its origin exactly like a
  beacon entry (receivers verify when signature checking is enabled),
* it propagates **hop by hop** through the same transport as PCBs, paying
  per-hop latency (link propagation + processing delay), and
* every receiving control service deduplicates it by ``(origin_as,
  sequence)`` within a configurable window, withdraws matching ingress /
  path-service state through the existing ``invalidate_link`` /
  ``invalidate_as`` machinery, records the withdrawal timestamp, and
  re-forwards the message on every other interface.

The flood therefore reaches ASes in propagation order: nearby ASes
withdraw state before distant ones, partitioned ASes never hear about the
failure at all (their stale state ages out via expiry), and a revocation
whose next hop is itself unavailable is lost in flight — all of which the
old counter model could not express.

The handlers are methods of
:class:`repro.core.control_service.ControlService` — ``originate_revocation``,
``on_revocation`` and the beacon bounce in ``receive_beacon`` — so the IREC
and the legacy SCION control service share one implementation by
inheritance.  This module keeps the per-service bookkeeping they run on,
:class:`RevocationState`; the :class:`~repro.core.messages.RevocationMessage`
class itself lives in :mod:`repro.core.messages`, one typed control message
among others on the shared envelope (batching, TTL and scope limiting
included).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.topology.entities import LinkID

if TYPE_CHECKING:  # annotations only; the message class lives in repro.core.messages
    from repro.core.messages import RevocationMessage

__all__ = ["DEFAULT_DEDUP_WINDOW_MS", "RevocationState"]

#: Default dedup window: how long a control service remembers a revocation
#: it has already processed.  One simulated hour comfortably covers any
#: realistic flood (per-hop latencies are milliseconds) while bounding the
#: memory of long simulations; a replay arriving after the window is
#: re-applied, which is harmless because withdrawal is idempotent.
DEFAULT_DEDUP_WINDOW_MS = 60.0 * 60.0 * 1000.0


@dataclass
class RevocationState:
    """Per-control-service revocation bookkeeping.

    Attributes:
        dedup_window_ms: How long a processed ``(origin, sequence)`` key is
            remembered; duplicates inside the window are dropped without
            re-applying or re-forwarding.  Entries are pruned lazily in
            first-seen order, so the memory cost is bounded by the number
            of distinct revocations inside one window.
        applied_at: First time each accepted revocation's withdrawal was
            applied locally — the per-AS withdrawal timestamps that make
            propagation-ordered convergence measurable.
        revoked_links: Negative cache: link → (applied revocation message,
            applied-at time).  Consulted when a beacon arrives over a
            recently revoked element (see ``ControlService.receive_beacon``);
            cleared by the driver when the element recovers.
        revoked_ases: Negative cache for departed ASes, same shape.
        suppress_forwarding: Byzantine knob (PR 7): a suppressing service
            still receives, verifies and applies revocations — it just
            never re-forwards them, silently swallowing floods it should
            relay.  Its own originations still go out (suppression models
            a free-rider, not a mute).
    """

    dedup_window_ms: float = DEFAULT_DEDUP_WINDOW_MS
    suppress_forwarding: bool = False
    #: (origin, sequence) → first-seen time, insertion-ordered for pruning.
    _seen: Dict[Tuple[int, int], float] = field(default_factory=dict)
    applied_at: Dict[Tuple[int, int], float] = field(default_factory=dict)
    revoked_links: Dict[LinkID, Tuple[RevocationMessage, float]] = field(
        default_factory=dict
    )
    revoked_ases: Dict[int, Tuple[RevocationMessage, float]] = field(
        default_factory=dict
    )
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    received: int = 0
    duplicates: int = 0
    originated: int = 0
    forwarded: int = 0
    rejected_invalid: int = 0
    #: Copies dropped because they exceeded their TTL (stale withdrawals).
    rejected_stale: int = 0
    #: Revocations re-originated by the negative cache (beacon bounces).
    reoriginated: int = 0

    def next_sequence(self) -> int:
        """Return the next origination sequence number of this service."""
        return next(self._sequence)

    def is_duplicate(self, key: Tuple[int, int], now_ms: float) -> bool:
        """Return whether ``key`` was already processed inside the window.

        O(1) on the flood fast path: the hit checks the stored first-seen
        timestamp directly; bulk pruning only runs once the seen-set grows
        past a threshold, so memory stays bounded without paying an
        iteration per message.
        """
        seen_at = self._seen.get(key)
        if seen_at is None:
            return False
        if now_ms - seen_at > self.dedup_window_ms:
            del self._seen[key]
            return False
        return True

    def mark_seen(self, key: Tuple[int, int], now_ms: float) -> None:
        """Remember ``key`` so later copies inside the window are duplicates."""
        self._seen.setdefault(key, now_ms)
        if len(self._seen) > 4096:
            self._prune(now_ms)

    def record_applied(self, key: Tuple[int, int], now_ms: float) -> None:
        """Record when the withdrawal for ``key`` was first applied locally."""
        self.applied_at.setdefault(key, now_ms)

    def applied_from(self, origin_as: int) -> List[float]:
        """Return the local withdrawal times of revocations from ``origin_as``."""
        return [
            at_ms for (origin, _seq), at_ms in self.applied_at.items() if origin == origin_as
        ]

    def cache_revoked_elements(self, message: RevocationMessage, now_ms: float) -> None:
        """Remember the message's revoked elements for beacon bouncing."""
        for link in message.failed_links:
            self.revoked_links[link] = (message, now_ms)
        for gone_as in message.failed_ases:
            self.revoked_ases[gone_as] = (message, now_ms)

    def clear_revoked_link(self, link_id: LinkID) -> None:
        """Forget a revoked link (the driver saw it recover)."""
        self.revoked_links.pop(link_id, None)

    def clear_revoked_as(self, as_id: int) -> None:
        """Forget a departed AS (the driver saw it rejoin)."""
        self.revoked_ases.pop(as_id, None)

    def revoked_recently(
        self, links, ases, now_ms: float
    ) -> Optional[RevocationMessage]:
        """Return the cached revocation covering any given element, if fresh.

        Checks the beacon's links and AS path against the negative caches;
        stale entries are expired lazily.  An entry is stale once *either*
        its cache stamp or the cached message's own ``created_at_ms`` falls
        outside the dedup window: each bounce makes the receiver re-apply
        and re-cache the message with a fresh stamp, so without the
        message-age bound a pair of caches could keep refreshing each other
        and bounce beacons over a long-recovered element forever.  Returns
        the first fresh match (the message to re-originate) or ``None``.
        """
        window = self.dedup_window_ms
        revoked_links = self.revoked_links
        if revoked_links:
            for link in links:
                cached = revoked_links.get(link)
                if cached is None:
                    continue
                if (
                    now_ms - cached[1] > window
                    or now_ms - cached[0].created_at_ms > window
                ):
                    del revoked_links[link]
                    continue
                return cached[0]
        revoked_ases = self.revoked_ases
        if revoked_ases:
            for as_id in ases:
                cached = revoked_ases.get(as_id)
                if cached is None:
                    continue
                if (
                    now_ms - cached[1] > window
                    or now_ms - cached[0].created_at_ms > window
                ):
                    del revoked_ases[as_id]
                    continue
                return cached[0]
        return None

    def _prune(self, now_ms: float) -> None:
        # _seen is insertion-ordered by first-seen time and first-seen
        # times never decrease, so expired entries form a prefix.
        horizon = now_ms - self.dedup_window_ms
        while self._seen:
            key = next(iter(self._seen))
            if self._seen[key] >= horizon:
                break
            del self._seen[key]

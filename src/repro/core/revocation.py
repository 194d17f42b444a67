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
:class:`repro.core.control_service.IrecControlService` —
``originate_revocation``, ``on_revocation`` and the beacon bounce in
``receive_beacon`` — which IREC and legacy SCION ASes both run.  This module keeps the per-service bookkeeping they run on,
:class:`RevocationState`; the :class:`~repro.core.messages.RevocationMessage`
class itself lives in :mod:`repro.core.messages`, one typed control message
among others (batching included).

A received revocation goes through four steps, in order: dedup (a key
seen inside the window is a duplicate), verify (an invalid signature is
rejected and not marked seen, so an authentic copy still processes),
apply (withdraw and record the time), and forward on every other
interface unless this service suppresses forwarding.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

from repro.topology.entities import LinkID

if TYPE_CHECKING:  # annotations only; the message class lives in repro.core.messages
    from repro.core.messages import RevocationMessage

__all__ = ["DEFAULT_DEDUP_WINDOW_MS", "RevocationState", "WithdrawalLedger"]

#: Default dedup window: how long a control service remembers a revocation
#: it has already processed.  One simulated hour comfortably covers any
#: realistic flood (per-hop latencies are milliseconds) while bounding the
#: memory of long simulations; a replay arriving after the window is
#: re-applied, which is harmless because withdrawal is idempotent.
DEFAULT_DEDUP_WINDOW_MS = 60.0 * 60.0 * 1000.0


class WithdrawalLedger(Mapping):
    """``(origin, sequence)`` → first-applied time, 16 array bytes an entry.

    A :class:`Mapping` without item assignment; only :meth:`record` writes
    it.  Per origin it holds two flat arrays: the applied sequences in
    ascending order (``array('q')``) and, at the same positions, their
    first-applied times (``array('d')``).  So an entry keeps no key tuple
    and no float object: it is one machine integer and one double.  Floods
    from one origin arrive in sequence order, so :meth:`record` appends; a
    late or reordered sequence is bisected in.  The arrays are sparse in
    the sequences, so a forged sequence of 2**62 costs what sequence 1
    does.  Reads bisect; iteration goes origin by origin, sequences
    ascending; ``==`` with a dict holds through :class:`Mapping`.
    """

    __slots__ = ("_sequences", "_times", "_count")

    def __init__(self) -> None:
        #: origin → its applied sequences, ascending.
        self._sequences: Dict[int, array] = {}
        #: origin → the first-applied time of each sequence, same positions.
        self._times: Dict[int, array] = {}
        self._count = 0

    def record(self, key: Tuple[int, int], now_ms: float) -> None:
        """Keep ``now_ms`` for ``key`` unless ``key`` is already recorded."""
        origin, sequence = key
        sequences = self._sequences.get(origin)
        if sequences is None:
            self._sequences[origin] = array("q", (sequence,))
            self._times[origin] = array("d", (now_ms,))
        elif sequence > sequences[-1]:
            sequences.append(sequence)
            self._times[origin].append(now_ms)
        else:
            at = bisect_left(sequences, sequence)
            if sequences[at] == sequence:
                return
            sequences.insert(at, sequence)
            self._times[origin].insert(at, now_ms)
        self._count += 1

    def __getitem__(self, key: Tuple[int, int]) -> float:
        origin, sequence = key
        sequences = self._sequences.get(origin)
        if sequences is not None:
            at = bisect_left(sequences, sequence)
            if at < len(sequences) and sequences[at] == sequence:
                return self._times[origin][at]
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for origin, sequences in self._sequences.items():
            for sequence in sequences:
                yield origin, sequence

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, dict(self.items()))


@dataclass
class RevocationState:
    """Per-control-service revocation bookkeeping.

    Attributes:
        dedup_window_ms: How long a processed ``(origin, sequence)`` key is
            remembered; duplicates inside the window are dropped without
            re-applying or re-forwarding.  Every :meth:`mark_seen` prunes
            the keys that left the window, so the dedup store holds at most
            the keys first seen inside one window of the latest call — the
            same size at period *k* and *k* + one window in a steady run.
        applied_at: First time each accepted revocation's withdrawal was
            applied locally — the per-AS withdrawal timestamps that make
            propagation-ordered convergence measurable.  The one store here
            that grows with the run: one entry per applied revocation, kept
            as a :class:`WithdrawalLedger` (two flat arrays per origin,
            16 bytes an entry, no key tuple or float object).  It is read
            as a mapping from ``(origin, sequence)``; only
            :meth:`record_applied` writes it.  The negative caches below
            hold at most one entry per revoked element.
        revoked_links: Negative cache: link → (applied revocation message,
            applied-at time).  Consulted when a beacon arrives over a
            recently revoked element (see ``IrecControlService.receive_beacon``);
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
    applied_at: WithdrawalLedger = field(default_factory=WithdrawalLedger, init=False)
    revoked_links: Dict[LinkID, Tuple[RevocationMessage, float]] = field(
        default_factory=dict, init=False
    )
    revoked_ases: Dict[int, Tuple[RevocationMessage, float]] = field(
        default_factory=dict, init=False
    )
    _sequence: "itertools.count" = field(default_factory=lambda: itertools.count(1))
    received: int = field(default=0, init=False)
    duplicates: int = field(default=0, init=False)
    originated: int = field(default=0, init=False)
    forwarded: int = field(default=0, init=False)
    rejected_invalid: int = field(default=0, init=False)
    #: Revocations re-originated by the negative cache (beacon bounces).
    reoriginated: int = field(default=0, init=False)

    def next_sequence(self) -> int:
        """Return the next origination sequence number of this service."""
        return next(self._sequence)

    def is_duplicate(self, key: Tuple[int, int], now_ms: float) -> bool:
        """Return whether ``key`` was already processed inside the window.

        O(1) on the flood fast path: the hit checks the stored first-seen
        timestamp directly, and a key found past the window is dropped.
        """
        seen_at = self._seen.get(key)
        if seen_at is None:
            return False
        if now_ms - seen_at > self.dedup_window_ms:
            del self._seen[key]
            return False
        return True

    def mark_seen(self, key: Tuple[int, int], now_ms: float) -> None:
        """Remember ``key`` so later copies inside the window are duplicates.

        Then drop every key that has left the window.  ``_seen`` is ordered
        by first-seen time (simulated time never runs backwards, and a
        dropped key comes back at the end, stamped now), so the expired
        keys are its front: O(1) amortized, one check per call when
        nothing expired.  A dropped key is one :meth:`is_duplicate` would
        have answered ``False`` for at any later time, so no answer moves.
        """
        seen = self._seen
        seen.setdefault(key, now_ms)
        window = self.dedup_window_ms
        while seen:
            oldest = next(iter(seen))
            if now_ms - seen[oldest] <= window:
                break
            del seen[oldest]

    def record_applied(self, key: Tuple[int, int], now_ms: float) -> None:
        """Record when the withdrawal for ``key`` was first applied locally."""
        self.applied_at.record(key, now_ms)

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

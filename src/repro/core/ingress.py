"""The ingress gateway (paper §V-B).

The ingress gateway is the entry point of every PCB into an AS: it verifies
the signature chain, checks the beacon against the local AS's admission
policy (expiry, loops, optionally more restrictive rules), stores accepted
beacons in the ingress database and periodically removes (soon-to-be)
expired ones.

Signature verification is the dominant per-PCB cost, and most of it is
redundant: a beacon that arrives here is usually a one-entry extension of a
beacon whose prefix this AS verified in an earlier period (or over a
parallel link).  The gateway therefore keeps a **verified-prefix cache**
keyed by the beacon's prefix-digest chain (see
:meth:`repro.core.beacon.Beacon.prefix_digests`): when the digest of a
prefix is in the cache, an identical byte string was verified against the
same key store before, so only the entries *after* that prefix need their
signatures checked.  This turns the per-AS verification cost of a
re-received L-hop extension from O(L) HMACs into O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.algorithms.base import CandidateBeacon
from repro.core.beacon import Beacon
from repro.core.databases import IngressDatabase
from repro.crypto.signer import Verifier
from repro.exceptions import (
    BeaconError,
    ExpiredBeaconError,
    PolicyViolationError,
    SignatureError,
)

#: An admission policy inspects a beacon and raises
#: :class:`PolicyViolationError` to reject it.
AdmissionPolicy = Callable[[Beacon, int], None]


@dataclass
class VerifiedPrefixCache:
    """Remembers beacon prefixes whose signature chains already verified.

    Entries are the hex digests of verified prefixes (a prefix of a valid
    beacon is itself a validly signed beacon, so every element of a
    verified beacon's :meth:`~repro.core.beacon.Beacon.prefix_digests`
    chain may be cached).  The cache is bounded: when full, the oldest
    entries are evicted in insertion order, which approximates LRU well
    enough here because beacon lifetimes are bounded anyway.

    Each digest maps to the expiry of the beacon it was verified with.  A
    prefix shares its beacon's header, so every digest of one chain shares
    that expiry, and a beacon whose chain contains the digest expires then
    too: :meth:`expire` drops exactly the entries no admissible beacon can
    look up again.  The expiry objects are shared through ``_expiries``,
    one float per distinct expiry time rather than one per digest or per
    verification.

    The cache is sound to share only among verifiers backed by the same key
    store; each ingress gateway owns exactly one.
    """

    max_entries: int = 65536
    _digests: Dict[str, float] = field(default_factory=dict)
    #: Every expiry a cached digest may hold, mapped to itself: the one
    #: float object all digests expiring then point at.
    _expiries: Dict[float, float] = field(default_factory=dict)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def __len__(self) -> int:
        return len(self._digests)

    def add(self, chain: Iterable[str], expires_at_ms: float) -> None:
        """Mark every digest of ``chain`` as verified until ``expires_at_ms``.

        A non-positive ``max_entries`` disables the cache entirely (every
        verification stays a full one).  A digest already cached keeps its
        place and its expiry.
        """
        if self.max_entries <= 0:
            return
        digests = self._digests
        expires_at_ms = self._expiries.setdefault(expires_at_ms, expires_at_ms)
        for digest in chain:
            if digest in digests:
                continue
            while digests and len(digests) >= self.max_entries:
                digests.pop(next(iter(digests)))
            digests[digest] = expires_at_ms

    def expire(self, now_ms: float) -> int:
        """Drop the digests whose beacons expired by ``now_ms``; return how many.

        ``expires_at <= now`` is exactly :meth:`Beacon.is_expired
        <repro.core.beacon.Beacon.is_expired>`, which the gateway checks
        before it reads the cache.  Costs one pass over ``_expiries`` when
        nothing expired, one over the cache when something did.
        """
        expired = [at_ms for at_ms in self._expiries if at_ms <= now_ms]
        if not expired:
            return 0
        for at_ms in expired:
            del self._expiries[at_ms]
        before = len(self._digests)
        self._digests = {
            digest: at_ms for digest, at_ms in self._digests.items() if at_ms > now_ms
        }
        return before - len(self._digests)

    def clear(self) -> None:
        """Drop every cached prefix."""
        self._digests.clear()
        self._expiries.clear()


@dataclass
class IngressStats:
    """Counters kept by the ingress gateway for diagnostics and benchmarks."""

    received: int = 0
    accepted: int = 0
    duplicates: int = 0
    rejected_signature: int = 0
    rejected_policy: int = 0
    rejected_expired: int = 0
    #: Beacons verified entirely from scratch vs. via a cached prefix.
    full_verifications: int = 0
    incremental_verifications: int = 0
    #: Individual entry signatures actually checked (HMAC operations).
    signatures_checked: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.received = 0
        self.accepted = 0
        self.duplicates = 0
        self.rejected_signature = 0
        self.rejected_policy = 0
        self.rejected_expired = 0
        self.full_verifications = 0
        self.incremental_verifications = 0
        self.signatures_checked = 0


@dataclass
class IngressGateway:
    """Receives, validates and stores incoming PCBs for one AS.

    Attributes:
        as_id: The local AS.
        verifier: Signature verifier backed by the deployment's key store.
        database: The ingress database shared with the AS's RACs; by
            default an empty one indexed for ``as_id``.
        policies: Additional admission policies applied after the built-in
            signature, expiry and loop checks.
        verify_signatures: Signature verification can be disabled for
            large-scale simulations where cryptography dominates runtime
            without affecting the studied behaviour.
        verified_prefixes: Cache of already-verified signature-chain
            prefixes (see :class:`VerifiedPrefixCache`).
    """

    as_id: int
    verifier: Verifier
    database: Optional[IngressDatabase] = None
    policies: List[AdmissionPolicy] = field(default_factory=list)
    verify_signatures: bool = True
    stats: IngressStats = field(default_factory=IngressStats)
    verified_prefixes: VerifiedPrefixCache = field(default_factory=VerifiedPrefixCache)

    def __post_init__(self) -> None:
        if self.database is None:
            self.database = IngressDatabase(local_as=self.as_id)

    def use_verifier(self, verifier: Verifier) -> None:
        """Replace the gateway's verifier (e.g. after a key-store rotation).

        The verified-prefix cache only proves that prefixes verified against
        the *previous* verifier's key store, so it is invalidated: keeping it
        would let a beacon signed under the old keys skip re-verification
        under the new ones.
        """
        self.verifier = verifier
        self.verified_prefixes.clear()

    def receive(self, beacon: Beacon, on_interface: int, now_ms: float) -> bool:
        """Process one incoming beacon.

        Returns:
            ``True`` if the beacon was accepted and stored, ``False`` if it
            was a duplicate or rejected.
        """
        self.stats.received += 1
        try:
            self._admit(beacon, now_ms)
        except SignatureError:
            self.stats.rejected_signature += 1
            return False
        except ExpiredBeaconError:
            self.stats.rejected_expired += 1
            return False
        except PolicyViolationError:
            self.stats.rejected_policy += 1
            return False

        stored = CandidateBeacon(
            beacon=beacon, ingress_interface=on_interface, received_at_ms=now_ms
        )
        if not self.database.insert(stored):
            self.stats.duplicates += 1
            return False
        self.stats.accepted += 1
        return True

    def _admit(self, beacon: Beacon, now_ms: float) -> None:
        """Run the built-in checks and every configured policy."""
        if beacon.is_expired(now_ms):
            raise ExpiredBeaconError(
                f"beacon from AS {beacon.origin_as} expired at {beacon.expires_at_ms():.0f} ms"
            )
        if beacon.is_terminated:
            raise PolicyViolationError("terminated beacons cannot be propagated further")
        if beacon.contains_as(self.as_id) and beacon.target_as != self.as_id:
            # A beacon that already contains the local AS would loop.  The
            # single exception is a pull-based beacon whose target is this
            # AS: it legitimately comes back to be returned to its origin.
            raise PolicyViolationError(
                f"beacon path {beacon.as_path()} already contains AS {self.as_id}"
            )
        if self.verify_signatures:
            try:
                self._verify(beacon)
            except BeaconError as exc:
                raise SignatureError(str(exc)) from exc
        for policy in self.policies:
            policy(beacon, self.as_id)

    def _verify(self, beacon: Beacon) -> None:
        """Verify ``beacon``, skipping entries covered by a cached prefix.

        The prefix-digest chain binds the complete beacon content (header,
        extensions, static info and all previous signatures), so a cache
        hit at prefix ``i`` proves that the byte-identical prefix passed
        full verification against this gateway's key store earlier; only
        entries ``i + 1 …`` still need their signatures checked.
        """
        chain = beacon.prefix_digests()
        first_unverified = 0
        for index in range(len(chain) - 1, -1, -1):
            if chain[index] in self.verified_prefixes:
                first_unverified = index + 1
                break
        if first_unverified >= len(chain):
            self.stats.incremental_verifications += 1
        else:
            beacon.verify_suffix(self.verifier, first_entry=first_unverified)
            self.stats.signatures_checked += len(chain) - first_unverified
            if first_unverified > 0:
                self.stats.incremental_verifications += 1
            else:
                self.stats.full_verifications += 1
        self.verified_prefixes.add(chain, beacon.expires_at_ms())

    def expire(self, now_ms: float) -> int:
        """Remove expired beacons from the ingress database and the prefix cache.

        Returns the number of beacons removed from the database.
        """
        self.verified_prefixes.expire(now_ms)
        return self.database.remove_expired(now_ms)

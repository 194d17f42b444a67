"""Coverage for the ingress gateway's verified-prefix cache.

Three properties the fast path must never lose:

* the cache is **bounded** — insertion past ``max_entries`` evicts the
  oldest entries, and a non-positive bound disables caching entirely,
* the cache is **invalidated when the key store changes** — a cached
  prefix only proves verification against the *old* keys, so replacing the
  verifier through :meth:`IngressGateway.use_verifier` must clear it (and
  beacons signed under the old keys must be rejected afterwards), and
* a **tampered extension of a verified prefix is still rejected** — a
  cache hit on the prefix must not leak trust into the new entries, and a
  tampered copy of a beacon must not inherit the digest chain the genuine
  one was cached under.
"""

from dataclasses import replace

import pytest

from repro.core.beacon import BeaconBuilder
from repro.core.ingress import IngressGateway, VerifiedPrefixCache
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier

from tests.conftest import make_beacon


def two_hop_beacon(key_store, created_at_ms=0.0):
    return make_beacon(
        key_store,
        hops=[(10, None, 1), (11, 2, 1)],
        created_at_ms=created_at_ms,
    )


def extend(beacon, key_store, as_id=12):
    builder = BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))
    return builder.extend(beacon, ingress_interface=2, egress_interface=1)


class TestCacheBound:
    def test_eviction_at_the_size_bound_is_fifo(self):
        cache = VerifiedPrefixCache(max_entries=3)
        for index in range(5):
            cache.add(f"digest-{index}")
        assert len(cache) == 3
        assert "digest-0" not in cache and "digest-1" not in cache
        assert all(f"digest-{index}" in cache for index in (2, 3, 4))

    def test_re_adding_known_digest_does_not_evict(self):
        cache = VerifiedPrefixCache(max_entries=2)
        cache.add("a")
        cache.add("b")
        cache.add("a")  # already present: no insertion, no eviction
        assert "a" in cache and "b" in cache

    def test_non_positive_bound_disables_caching(self):
        cache = VerifiedPrefixCache(max_entries=0)
        cache.add("a")
        assert len(cache) == 0

        key_store = KeyStore()
        gateway = IngressGateway(
            as_id=999,
            verifier=Verifier(key_store=key_store),
            verified_prefixes=VerifiedPrefixCache(max_entries=0),
        )
        beacon = two_hop_beacon(key_store)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        child = extend(beacon, key_store)
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        # Without a cache every verification is a full one.
        assert gateway.stats.full_verifications == 2
        assert gateway.stats.incremental_verifications == 0

    def test_gateway_respects_tiny_bound(self):
        key_store = KeyStore()
        gateway = IngressGateway(
            as_id=999,
            verifier=Verifier(key_store=key_store),
            verified_prefixes=VerifiedPrefixCache(max_entries=2),
        )
        for index in range(4):
            beacon = two_hop_beacon(key_store, created_at_ms=float(index))
            assert gateway.receive(beacon, on_interface=1, now_ms=float(index))
        assert len(gateway.verified_prefixes) <= 2


class TestKeyStoreChangeInvalidation:
    def test_use_verifier_clears_the_cache(self):
        key_store = KeyStore()
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))
        beacon = two_hop_beacon(key_store)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        assert len(gateway.verified_prefixes) > 0

        rotated = KeyStore(deployment_secret=b"rotated-secret")
        gateway.use_verifier(Verifier(key_store=rotated))
        assert len(gateway.verified_prefixes) == 0

    def test_old_key_extension_rejected_after_rotation(self):
        old_store = KeyStore(deployment_secret=b"old")
        new_store = KeyStore(deployment_secret=b"new")
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=old_store))

        beacon = two_hop_beacon(old_store)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)

        # Key store rotates; an extension whose *new* entry is signed under
        # the new keys but whose prefix is only valid under the old ones
        # arrives.  With a stale cache the prefix would be trusted and only
        # the (valid) new entry checked — the rotation-aware gateway must
        # re-verify the whole chain and reject it.
        gateway.use_verifier(Verifier(key_store=new_store))
        forged = extend(beacon, new_store)
        assert not gateway.receive(forged, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1

        # Beacons fully signed under the new keys are accepted as usual.
        fresh = two_hop_beacon(new_store, created_at_ms=1.0)
        assert gateway.receive(fresh, on_interface=1, now_ms=1.0)


class TestTamperedExtensionStillRejected:
    def test_tampered_extension_of_cached_prefix_rejected(self):
        key_store = KeyStore()
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))
        beacon = two_hop_beacon(key_store)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)

        child = extend(beacon, key_store)
        entry = child.entries[-1]
        tampered_entry = replace(
            entry,
            static_info=replace(
                entry.static_info,
                intra_latency_ms=entry.static_info.intra_latency_ms + 5.0,
            ),
        )
        tampered = replace(child, entries=child.entries[:-1] + (tampered_entry,))
        assert not gateway.receive(tampered, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1
        # The genuine extension is still accepted, via the cached prefix.
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        assert gateway.stats.incremental_verifications >= 1

    def test_tampered_copy_of_a_cached_warm_child_rejected(self):
        key_store = KeyStore()
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))
        beacon = two_hop_beacon(key_store)
        assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        # The child continues the digest chain its parent derived above, and
        # the cache now holds every prefix of it.
        child = extend(beacon, key_store)
        assert gateway.receive(child, on_interface=1, now_ms=0.0)
        assert all(digest in gateway.verified_prefixes for digest in child.prefix_digests())

        # A copy with a forged inherited entry starts cold: its chain is
        # derived from its own content, misses the cache from the forged
        # entry on and fails full verification.
        forged = replace(child.entries[1], egress_interface=9)
        tampered = replace(child, entries=child.entries[:1] + (forged,) + child.entries[2:])
        assert not any(
            digest in gateway.verified_prefixes for digest in tampered.prefix_digests()[1:]
        )
        assert not gateway.receive(tampered, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1

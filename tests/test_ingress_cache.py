"""Coverage for the ingress gateway's verified-prefix cache.

Four properties the fast path must never lose:

* the cache is **bounded** — insertion past ``max_entries`` evicts the
  oldest entries,
* the cache is **bound to its gateway's key store** — a cached prefix
  only proves verification against the keys it was checked with, so a
  gateway over another key store rejects a beacon whose prefix a gateway
  over the old keys has cached,
* a **tampered extension of a verified prefix is still rejected** — a
  cache hit on the prefix must not leak trust into the new entries, and a
  tampered copy of a beacon must not inherit the digest chain the genuine
  one was cached under, and
* **expiry pruning is count-exact** — dropping the digests of expired
  beacons changes no verification: a gateway that prunes and a twin whose
  cache never forgets count the same full and incremental verifications
  and the same signatures checked.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beacon import BeaconBuilder
from repro.core.ingress import IngressGateway, VerifiedPrefixCache
from repro.crypto.hashing import perf_counters
from repro.crypto.keys import KeyStore
from repro.crypto.signer import Signer, Verifier

from tests.conftest import ForeignKeyStore, make_beacon, rebuild_chain


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
            cache.add([f"digest-{index}"], expires_at_ms=1.0)
        assert len(cache) == 3
        assert "digest-0" not in cache and "digest-1" not in cache
        assert all(f"digest-{index}" in cache for index in (2, 3, 4))

    def test_re_adding_known_digest_does_not_evict(self):
        cache = VerifiedPrefixCache(max_entries=2)
        cache.add(["a", "b"], expires_at_ms=1.0)
        cache.add(["a"], expires_at_ms=1.0)  # already present: no insertion, no eviction
        assert "a" in cache and "b" in cache

    def test_gateway_respects_tiny_bound(self):
        key_store = KeyStore()
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))
        gateway.verified_prefixes = VerifiedPrefixCache(max_entries=2)
        for index in range(4):
            beacon = two_hop_beacon(key_store, created_at_ms=float(index))
            assert gateway.receive(beacon, on_interface=1, now_ms=float(index))
        assert len(gateway.verified_prefixes) <= 2


class TestCacheBoundToItsKeyStore:
    def test_old_key_extension_rejected_by_a_gateway_over_new_keys(self):
        old_store = KeyStore()
        new_store = ForeignKeyStore()
        old = IngressGateway(as_id=999, verifier=Verifier(key_store=old_store))
        new = IngressGateway(as_id=999, verifier=Verifier(key_store=new_store))

        beacon = two_hop_beacon(old_store)
        assert old.receive(beacon, on_interface=1, now_ms=0.0)
        assert len(old.verified_prefixes) > 0 and len(new.verified_prefixes) == 0

        # An extension whose *new* entry is signed under the new keys but
        # whose prefix is only valid under the old ones: the old gateway's
        # cached prefix must not vouch for it at the new gateway, which
        # re-verifies the whole chain and rejects it.
        forged = extend(beacon, new_store)
        assert not new.receive(forged, on_interface=1, now_ms=0.0)
        assert new.stats.rejected_signature == 1

        # Beacons fully signed under the new keys are accepted as usual.
        fresh = two_hop_beacon(new_store, created_at_ms=1.0)
        assert new.receive(fresh, on_interface=1, now_ms=1.0)


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
        tampered = rebuild_chain(child.header, child.entries[:-1] + (tampered_entry,))
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

        # A rebuilt chain with a forged inherited entry starts cold: its
        # digests are derived from its own content, miss the cache from the
        # forged entry on and fail full verification.
        forged = replace(child.entries[1], egress_interface=9)
        tampered = rebuild_chain(child.header, child.entries[:1] + (forged,) + child.entries[2:])
        assert not any(
            digest in gateway.verified_prefixes for digest in tampered.prefix_digests()[1:]
        )
        assert not gateway.receive(tampered, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_signature == 1


# ---------------------------------------------------------------------------
# expiry pruning is count-exact
# ---------------------------------------------------------------------------
#: Origination times and validities: the cached chains expire at different
#: times, and beacons arrive before, exactly at and after each expiry.
CREATED_AT = (0.0, 10.0, 25.0)
VALIDITIES = (20.0, 35.0, 50.0)


def beacon_family(key_store, origin_as, created_at_ms, validity_ms):
    """An origin's beacon, two extensions of it and an extension of one of
    those: four beacons whose digest chains share prefixes."""

    def signing_as(as_id):
        return BeaconBuilder(as_id=as_id, signer=Signer(as_id=as_id, key_store=key_store))

    root = signing_as(origin_as).originate(
        egress_interface=1, created_at_ms=created_at_ms, validity_ms=validity_ms
    )
    left = signing_as(origin_as + 100).extend(root, ingress_interface=1, egress_interface=2)
    right = signing_as(origin_as + 200).extend(root, ingress_interface=1, egress_interface=2)
    deeper = signing_as(origin_as + 300).extend(left, ingress_interface=1, egress_interface=2)
    return [root, left, right, deeper]


@st.composite
def pruning_runs(draw):
    """Origins ``(created, validity)`` and time-ordered arrivals
    ``(now, beacon index, prune first)``."""
    origins = draw(
        st.lists(
            st.tuples(st.sampled_from(CREATED_AT), st.sampled_from(VALIDITIES)),
            min_size=1,
            max_size=3,
        )
    )
    expiries = sorted({created + validity for created, validity in origins})
    times = st.one_of(
        st.sampled_from(expiries),
        st.sampled_from([at_ms - 1.0 for at_ms in expiries]),
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
    )
    arrivals = draw(
        st.lists(
            st.tuples(times, st.integers(0, 4 * len(origins) - 1), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    return origins, sorted(arrivals, key=lambda arrival: arrival[0])


def verification_counts(gateway):
    stats = gateway.stats
    return (
        stats.full_verifications,
        stats.incremental_verifications,
        stats.accepted,
        stats.rejected_expired,
    )


def receive_counting(gateway, beacon, now_ms):
    """``(accepted, entry signatures checked)`` of one receive."""
    before = perf_counters()["signature_verify"]
    accepted = gateway.receive(beacon, on_interface=1, now_ms=now_ms)
    return accepted, perf_counters()["signature_verify"] - before


class TestExpiryPruningIsCountExact:
    @settings(max_examples=60, deadline=None)
    @given(run=pruning_runs())
    def test_pruned_gateway_counts_like_a_never_pruned_twin(self, run):
        """Property: a gateway pruning its cache at arbitrary instants and a
        twin whose cache never forgets an entry verify alike."""
        origins, arrivals = run
        key_store = KeyStore()
        beacons = [
            beacon
            for index, (created, validity) in enumerate(origins)
            for beacon in beacon_family(key_store, 10 + index, created, validity)
        ]

        def gateway():
            return IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))

        pruned, twin = gateway(), gateway()
        for now_ms, index, prune in arrivals:
            if prune:
                pruned.expire(now_ms)
                # The twin's database forgets alike: only the caches differ.
                twin.database.remove_expired(now_ms)
                live = pruned.verified_prefixes._digests.values()
                assert all(at_ms > now_ms for at_ms in live)
            received = receive_counting(pruned, beacons[index], now_ms)
            assert received == receive_counting(twin, beacons[index], now_ms)
            assert verification_counts(pruned) == verification_counts(twin)
            assert set(pruned.verified_prefixes._digests) <= set(twin.verified_prefixes._digests)

    def test_expire_drops_exactly_the_expired_chains(self, key_store):
        gateway = IngressGateway(as_id=999, verifier=Verifier(key_store=key_store))
        short = beacon_family(key_store, 10, created_at_ms=0.0, validity_ms=20.0)
        long = beacon_family(key_store, 11, created_at_ms=0.0, validity_ms=50.0)
        for beacon in short + long:
            assert gateway.receive(beacon, on_interface=1, now_ms=0.0)
        cache = gateway.verified_prefixes
        # Each family caches its root, two children and one grandchild.
        assert len(cache) == 8
        assert cache.expire(now_ms=19.0) == 0
        assert cache.expire(now_ms=20.0) == 4
        assert all(digest not in cache for beacon in short for digest in beacon.prefix_digests())
        assert all(digest in cache for beacon in long for digest in beacon.prefix_digests())
        # One shared float per expiry time, not one per digest.
        assert list(cache._expiries) == [50.0]
        assert len({id(at_ms) for at_ms in cache._digests.values()}) == 1
        # A beacon of the pruned chain is rejected before the cache is read.
        assert not gateway.receive(short[-1], on_interface=1, now_ms=20.0)
        assert gateway.stats.rejected_expired == 1

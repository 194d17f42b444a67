"""Tests for the on-demand algorithm manager (fetch → verify → decode → cache).

Every cache property is read off the fake transport's call log: a resolve
that hits the cache makes no call.
"""

import pytest

from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.registry import encode_builtin_payload, encode_criteria_payload
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import shortest_widest
from repro.core.extensions import ExtensionSet
from repro.core.ondemand import OnDemandAlgorithmManager
from repro.core.sandbox import MAX_PAYLOAD_BYTES
from repro.crypto.hashing import algorithm_hash
from repro.exceptions import AlgorithmError, AlgorithmIntegrityError

from tests.conftest import make_beacon


def manager_with(payloads, cache_enabled=True):
    """Build a manager backed by a dict-transport; return (manager, call log)."""
    calls = []

    def transport(origin_as, algorithm_id):
        calls.append((origin_as, algorithm_id))
        return payloads[(origin_as, algorithm_id)]

    return OnDemandAlgorithmManager(transport=transport, cache_enabled=cache_enabled), calls


def on_demand_beacon(key_store, origin, algorithm_id, payload):
    extensions = ExtensionSet().with_algorithm(algorithm_id, algorithm_hash(payload))
    transit_as = 900 + origin  # distinct from every origin used in the tests
    return make_beacon(
        key_store, [(origin, None, 1), (transit_as, 1, 2)], extensions=extensions
    )


class TestResolve:
    def test_resolves_builtin_payload(self, key_store):
        payload = encode_builtin_payload("5sp")
        manager, calls = manager_with({(1, "five"): payload})
        beacon = on_demand_beacon(key_store, 1, "five", payload)
        algorithm = manager.resolve(beacon)
        assert isinstance(algorithm, KShortestPathAlgorithm)
        assert algorithm.k == 5
        assert calls == [(1, "five")]

    def test_resolves_criteria_payload(self, key_store):
        payload = encode_criteria_payload(shortest_widest())
        manager, _calls = manager_with({(1, "sw"): payload})
        beacon = on_demand_beacon(key_store, 1, "sw", payload)
        algorithm = manager.resolve(beacon)
        assert isinstance(algorithm, CriteriaSetAlgorithm)
        assert algorithm.criteria_set.name == "shortest-widest"

    def test_beacon_without_extension_rejected(self, key_store, beacon_factory):
        manager, _calls = manager_with({})
        plain = beacon_factory([(1, None, 1), (2, 1, 2)])
        with pytest.raises(AlgorithmError):
            manager.resolve(plain)

    def test_hash_mismatch_rejected(self, key_store):
        good = encode_builtin_payload("5sp")
        tampered = encode_builtin_payload("1sp")
        manager, _calls = manager_with({(1, "five"): tampered})
        beacon = on_demand_beacon(key_store, 1, "five", good)
        with pytest.raises(AlgorithmIntegrityError):
            manager.resolve(beacon)

    def test_malformed_payload_rejected(self, key_store):
        payload = b"definitely not json"
        manager, _calls = manager_with({(1, "broken"): payload})
        beacon = on_demand_beacon(key_store, 1, "broken", payload)
        with pytest.raises(AlgorithmError):
            manager.resolve(beacon)


class TestCaching:
    def test_decoded_algorithm_cached_per_origin_and_hash(self, key_store):
        payload = encode_builtin_payload("5sp")
        manager, calls = manager_with({(1, "five"): payload, (2, "five"): payload})
        beacon_a = on_demand_beacon(key_store, 1, "five", payload)
        beacon_b = on_demand_beacon(key_store, 1, "five", payload)
        beacon_other_origin = on_demand_beacon(key_store, 2, "five", payload)

        first = manager.resolve(beacon_a)
        second = manager.resolve(beacon_b)
        third = manager.resolve(beacon_other_origin)
        assert first is second  # same origin + id + hash -> cached object
        assert third is not first  # different origin caches separately
        assert calls == [(1, "five"), (2, "five")]

    def test_cache_disabled_refetches_and_redecodes(self, key_store):
        payload = encode_builtin_payload("5sp")
        manager, calls = manager_with({(1, "five"): payload}, cache_enabled=False)
        beacon = on_demand_beacon(key_store, 1, "five", payload)
        first = manager.resolve(beacon)
        second = manager.resolve(beacon)
        third = manager.resolve(beacon)
        assert first is not second and second is not third
        assert len(calls) == 3

    def test_republished_payload_with_new_hash_is_refetched(self, key_store):
        old_payload = encode_builtin_payload("5sp")
        new_payload = encode_builtin_payload("20sp")
        payloads = {(1, "evolving"): old_payload}
        manager, calls = manager_with(payloads)
        old_beacon = on_demand_beacon(key_store, 1, "evolving", old_payload)
        assert isinstance(manager.resolve(old_beacon), KShortestPathAlgorithm)

        # The origin republishes under the same id with a new hash; beacons
        # carrying the new hash must trigger a fresh fetch and decode.
        payloads[(1, "evolving")] = new_payload
        new_beacon = on_demand_beacon(key_store, 1, "evolving", new_payload)
        resolved = manager.resolve(new_beacon)
        assert resolved.k == 20
        assert len(calls) == 2
        # Both hashes stay cached: neither resolves over the transport again.
        assert manager.resolve(old_beacon).k == 5
        assert manager.resolve(new_beacon) is resolved
        assert len(calls) == 2

    def test_undecodable_payload_fetched_once_and_fails_every_time(self, key_store):
        payload = b'{"kind": "no-such-kind"}'
        manager, calls = manager_with({(1, "odd"): payload})
        beacon = on_demand_beacon(key_store, 1, "odd", payload)
        errors = []
        for _ in range(3):
            with pytest.raises(AlgorithmError) as raised:
                manager.resolve(beacon)
            errors.append(raised.value)
        assert calls == [(1, "odd")]
        assert len({str(error) for error in errors}) == 1
        # A hit raises a fresh error: one stored exception re-raised every
        # round would grow its traceback each time.
        assert errors[1] is not errors[2]

    @pytest.mark.parametrize("failure", ("oversized", "wrong-hash"))
    def test_integrity_failures_are_not_cached(self, key_store, failure):
        if failure == "oversized":
            # The hash matches: only the size check can refuse it.
            announced = served = b"x" * (MAX_PAYLOAD_BYTES + 1)
        else:
            announced, served = encode_builtin_payload("5sp"), encode_builtin_payload("1sp")
        manager, calls = manager_with({(1, "five"): served})
        beacon = on_demand_beacon(key_store, 1, "five", announced)
        for _ in range(2):
            with pytest.raises(AlgorithmIntegrityError):
                manager.resolve(beacon)
        assert len(calls) == 2

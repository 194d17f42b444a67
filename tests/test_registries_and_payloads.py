"""Tests for algorithm catalogues, payload (de)serialization and algorithm repositories."""

import json

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.algorithms.base import RoutingAlgorithm
from repro.algorithms.criteria_algorithm import CriteriaSetAlgorithm
from repro.algorithms.delay import DelayOptimizationAlgorithm
from repro.algorithms.pull_disjoint import LinkAvoidingAlgorithm
from repro.algorithms.registry import (
    AlgorithmCatalog,
    decode_payload,
    default_catalog,
    encode_builtin_payload,
    encode_criteria_payload,
    encode_link_avoiding_payload,
    encode_restricted_python_payload,
)
from repro.algorithms.shortest_path import KShortestPathAlgorithm
from repro.core.criteria import widest_with_latency_bound
from repro.core.ondemand import AlgorithmRepository
from repro.core.sandbox import MAX_PAYLOAD_BYTES, RestrictedPythonAlgorithm
from repro.crypto.hashing import algorithm_hash
from repro.exceptions import (
    AlgorithmError,
    AlgorithmIntegrityError,
    UnknownAlgorithmError,
)


class TestAlgorithmCatalog:
    def test_default_catalog_contains_paper_algorithms(self):
        catalog = default_catalog()
        for name in ("1sp", "5sp", "20sp", "delay", "hd", "link-avoiding"):
            assert name in catalog
        # Widest, shortest-widest, latency-bounded and Pareto selection are
        # criteria sets, shipped as ``criteria_set`` payloads.
        for name in ("widest", "shortest-widest", "widest-bounded", "pareto"):
            assert name not in catalog

    def test_create_with_parameters(self):
        catalog = default_catalog()
        algorithm = catalog.create("ksp", k=7)
        assert isinstance(algorithm, KShortestPathAlgorithm)
        assert algorithm.k == 7

    def test_unknown_name(self):
        with pytest.raises(UnknownAlgorithmError):
            default_catalog().create("does-not-exist")

    def test_register_is_append_only(self):
        catalog = AlgorithmCatalog()
        catalog.register("mine", lambda **kw: KShortestPathAlgorithm(k=1))
        with pytest.raises(AlgorithmError):
            catalog.register("mine", lambda **kw: KShortestPathAlgorithm(k=2))
        assert catalog.names() == ("mine",)


class TestPayloadRoundTrips:
    def test_criteria_payload(self):
        payload = encode_criteria_payload(widest_with_latency_bound(30.0), paths_per_interface=3)
        algorithm = decode_payload(payload)
        assert isinstance(algorithm, CriteriaSetAlgorithm)
        assert algorithm.paths_per_interface == 3
        assert algorithm.criteria_set.constraints[0].maximum == 30.0

    def test_link_avoiding_payload(self):
        payload = encode_link_avoiding_payload([((1, 2), (3, 4)), ((5, 6), (7, 8))])
        algorithm = decode_payload(payload)
        assert isinstance(algorithm, LinkAvoidingAlgorithm)
        assert ((1, 2), (3, 4)) in algorithm.avoid_links

    def test_builtin_payload(self):
        payload = encode_builtin_payload("delay", {"paths_per_interface": 2})
        algorithm = decode_payload(payload)
        assert isinstance(algorithm, DelayOptimizationAlgorithm)
        assert algorithm.paths_per_interface == 2

    def test_restricted_python_payload(self):
        payload = encode_restricted_python_payload("latency_ms + hop_count", paths_per_interface=2)
        algorithm = decode_payload(payload)
        assert isinstance(algorithm, RestrictedPythonAlgorithm)
        assert algorithm.paths_per_interface == 2

    def test_malformed_payload(self):
        with pytest.raises(AlgorithmError):
            decode_payload(b"not json")
        with pytest.raises(AlgorithmError):
            decode_payload(b"[1, 2, 3]")
        with pytest.raises(AlgorithmError):
            decode_payload(b'{"kind": "mystery"}')

    def test_payload_encoding_is_deterministic(self):
        a = encode_criteria_payload(widest_with_latency_bound(30.0))
        b = encode_criteria_payload(widest_with_latency_bound(30.0))
        assert a == b
        assert algorithm_hash(a) == algorithm_hash(b)


class TestAlgorithmRepository:
    def test_publish_and_fetch(self):
        repository = AlgorithmRepository(as_id=1)
        payload = encode_builtin_payload("1sp")
        digest = repository.publish("my-algo", payload)
        assert digest == algorithm_hash(payload)
        assert repository.fetch("my-algo") == payload
        assert repository.hash_of("my-algo") == digest
        assert "my-algo" in repository
        assert repository.published_ids() == ("my-algo",)

    def test_fetch_unknown(self):
        with pytest.raises(UnknownAlgorithmError):
            AlgorithmRepository(as_id=1).fetch("nope")

    def test_empty_id_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            AlgorithmRepository(as_id=1).publish("", b"x")

    def test_oversized_payload_rejected(self):
        with pytest.raises(AlgorithmIntegrityError):
            AlgorithmRepository(as_id=1).publish("big", b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_republish_replaces(self):
        repository = AlgorithmRepository(as_id=1)
        repository.publish("algo", b"one")
        repository.publish("algo", b"two")
        assert repository.fetch("algo") == b"two"


#: Any JSON value, NaN and infinities included (``json.loads`` accepts them).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
_COUNT = st.integers(-2, 4) | _JSON
_CRITERIA_SPEC = st.sampled_from(
    [
        widest_with_latency_bound(30.0).to_spec(),
        {"name": "x", "criteria": [{"metric": "latency_ms", "objective": "minimize"}]},
        {"name": "x", "criteria": [{"metric": "nope", "objective": "minimize"}]},
        {"name": "x", "criteria": [{"metric": "latency_ms"}]},
        {"name": "x", "criteria": []},
        {"name": "x", "criteria": [], "composition": "sideways"},
        {"criteria": [{"metric": "latency_ms", "objective": "minimize"}]},
    ]
)
_LINK_END = st.lists(st.integers(0, 9) | _JSON, max_size=3)


def _document(kind, fields):
    """A payload document of ``kind``; each field is drawn or left out."""
    return st.fixed_dictionaries(
        {"kind": st.just(kind)}, optional={name: value for name, value in fields.items()}
    )


#: One document strategy per payload kind, plus unknown kinds.
_DOCUMENTS = {
    "criteria_set": _document(
        "criteria_set", {"spec": _CRITERIA_SPEC | _JSON, "paths_per_interface": _COUNT}
    ),
    "link_avoiding": _document(
        "link_avoiding",
        {
            "avoid_links": st.lists(st.lists(_LINK_END, max_size=3), max_size=3) | _JSON,
            "paths_per_interface": _COUNT,
        },
    ),
    "builtin": _document(
        "builtin",
        {
            "name": st.sampled_from(default_catalog().names()) | _JSON,
            "parameters": st.dictionaries(
                st.sampled_from(
                    ["k", "paths_per_interface", "use_extended_paths", "latency_bound_ms"]
                ),
                _COUNT,
                max_size=3,
            )
            | _JSON,
        },
    ),
    "restricted_python": _document(
        "restricted_python",
        {
            "source": st.sampled_from(["latency_ms", "hop_count * 2", "(", "__import__"])
            | _JSON,
            "paths_per_interface": _COUNT,
        },
    ),
    "unknown": _document("mystery", {"spec": _JSON}) | _JSON,
}


class TestMalformedPayloadsFailTyped:
    """Whatever a remote AS publishes, decoding returns an algorithm or raises
    :class:`AlgorithmError` — never another error, which would abort the run."""

    @seed(20261017)
    @settings(max_examples=300, deadline=None)
    @given(document=st.one_of(list(_DOCUMENTS.values())))
    def test_decode_returns_algorithm_or_raises_algorithm_error(self, document):
        payload = json.dumps(document).encode("utf-8")
        try:
            algorithm = decode_payload(payload)
        except AlgorithmError:
            return
        assert isinstance(algorithm, RoutingAlgorithm)

    @pytest.mark.parametrize(
        "document",
        (
            {"kind": "criteria_set"},
            {"kind": "criteria_set", "spec": {"name": "x", "criteria": [{"metric": "nope"}]}},
            {"kind": "link_avoiding", "avoid_links": [[[1, 2]]]},
            {"kind": "builtin", "name": "ksp", "parameters": {"k": "many"}},
            {"kind": "restricted_python"},
            {"kind": "restricted_python", "source": "1", "paths_per_interface": "two"},
        ),
    )
    def test_known_malformations(self, document):
        with pytest.raises(AlgorithmError):
            decode_payload(json.dumps(document).encode("utf-8"))

"""Tests for ingress admission policies."""

import pytest

from repro.core.policies import (
    AvoidASPolicy,
    CompositePolicy,
    MaxPathLengthPolicy,
    standard_policies,
)
from repro.core.ingress import IngressGateway
from repro.crypto.signer import Verifier
from repro.exceptions import ConfigurationError, PolicyViolationError


class TestMaxPathLengthPolicy:
    def test_accepts_short_paths(self, beacon_factory):
        policy = MaxPathLengthPolicy(max_hops=3)
        policy(beacon_factory([(1, None, 1), (2, 1, 2)]), 100)

    def test_rejects_long_paths(self, beacon_factory):
        policy = MaxPathLengthPolicy(max_hops=2)
        long_beacon = beacon_factory([(1, None, 1), (2, 1, 2), (3, 1, 2)])
        with pytest.raises(PolicyViolationError):
            policy(long_beacon, 100)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MaxPathLengthPolicy(max_hops=0)


class TestAvoidASPolicy:
    def test_rejects_paths_through_avoided_as(self, beacon_factory):
        policy = AvoidASPolicy(avoided=frozenset({7}))
        policy(beacon_factory([(1, None, 1), (5, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            policy(beacon_factory([(1, None, 1), (7, 1, 2), (5, 1, 2)]), 100)


class TestCompositeAndIntegration:
    def test_composite_applies_in_order(self, beacon_factory):
        composite = CompositePolicy(
            policies=(MaxPathLengthPolicy(max_hops=5), AvoidASPolicy(avoided=frozenset({7})))
        )
        composite(beacon_factory([(1, None, 1), (2, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            composite(beacon_factory([(1, None, 1), (7, 1, 2)]), 100)

    def test_standard_policies_builder(self, beacon_factory):
        composite = standard_policies(max_hops=4, avoided_ases=[7])
        assert len(composite.policies) == 2
        with pytest.raises(PolicyViolationError):
            composite(beacon_factory([(9, None, 1), (7, 1, 2)]), 100)

    def test_policy_plugged_into_ingress_gateway(self, key_store, beacon_factory):
        gateway = IngressGateway(as_id=100, verifier=Verifier(key_store=key_store))
        gateway.policies.append(AvoidASPolicy(avoided=frozenset({7})))
        good = beacon_factory([(1, None, 1), (2, 1, 2)])
        bad = beacon_factory([(1, None, 1), (7, 1, 2), (2, 1, 2)])
        assert gateway.receive(good, on_interface=1, now_ms=0.0)
        assert not gateway.receive(bad, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_policy == 1

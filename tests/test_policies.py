"""Tests for ingress admission policies."""

import pytest

from repro.core.policies import (
    AvoidASPolicy,
    CompositePolicy,
    MaxPathLengthPolicy,
    OriginFilterPolicy,
    ValleyFreePolicy,
    standard_policies,
)
from repro.core.ingress import IngressGateway
from repro.crypto.signer import Verifier
from repro.exceptions import ConfigurationError, PolicyViolationError
from repro.topology.entities import Relationship

from tests.conftest import build_topology, make_beacon


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


class TestOriginFilterPolicy:
    def test_allow_list(self, beacon_factory):
        policy = OriginFilterPolicy(allowed=frozenset({1, 2}))
        policy(beacon_factory([(1, None, 1), (5, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            policy(beacon_factory([(9, None, 1), (5, 1, 2)]), 100)

    def test_deny_list(self, beacon_factory):
        policy = OriginFilterPolicy(denied=frozenset({9}))
        policy(beacon_factory([(1, None, 1), (5, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            policy(beacon_factory([(9, None, 1), (5, 1, 2)]), 100)


class TestAvoidASPolicy:
    def test_rejects_paths_through_avoided_as(self, beacon_factory):
        policy = AvoidASPolicy(avoided=frozenset({7}))
        policy(beacon_factory([(1, None, 1), (5, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            policy(beacon_factory([(1, None, 1), (7, 1, 2), (5, 1, 2)]), 100)


class TestValleyFreePolicy:
    @pytest.fixture
    def triangle(self):
        """AS 1 is a customer of AS 2 and AS 3; AS 2 and AS 3 peer."""
        loc = (47.0, 8.0)
        interfaces = {
            1: {1: loc, 2: loc},
            2: {1: loc, 2: loc, 3: loc},
            3: {1: loc, 2: loc, 3: loc},
        }
        links = [
            ((1, 1), (2, 1), 5.0, 100.0, Relationship.CUSTOMER_PROVIDER),
            ((1, 2), (3, 1), 5.0, 100.0, Relationship.CUSTOMER_PROVIDER),
            ((2, 2), (3, 2), 5.0, 100.0, Relationship.PEER),
        ]
        return build_topology(interfaces, links)

    def test_customer_learned_path_accepted(self, triangle, beacon_factory):
        # AS 2 learned the path from its customer AS 1 and exports it to its
        # peer AS 3: allowed.
        policy = ValleyFreePolicy(topology=triangle)
        beacon = beacon_factory([(1, None, 1), (2, 1, 2)])
        policy(beacon, 3)

    def test_peer_learned_path_rejected_towards_peer(self, triangle, beacon_factory):
        # AS 2 learned the path from its peer AS 3 and exports it to AS 1's
        # *other provider*?  No: exporting a peer-learned path to a peer (or
        # provider) violates valley-freeness; towards its customer AS 1 it
        # would be fine.  Here AS 3 receives a beacon whose last two hops are
        # (peer 2 <- peer 3): construct 3 -> 2 -> (towards 3 again is a loop),
        # so use the provider direction instead: AS 1 receives a beacon that
        # AS 2 learned from its peer AS 3 — export to a customer is allowed.
        policy = ValleyFreePolicy(topology=triangle)
        beacon = beacon_factory([(3, None, 2), (2, 2, 1)])
        policy(beacon, 1)  # peer-learned exported to customer: allowed

    def test_provider_learned_path_rejected_towards_peer(self, triangle, beacon_factory):
        # AS 2 learned a path from its customer? No — build the violating
        # case: AS 1 (customer) learned a path from its provider AS 3 and
        # exports it to its other provider AS 2: forbidden.
        policy = ValleyFreePolicy(topology=triangle)
        beacon = beacon_factory([(3, None, 1), (1, 2, 1)])
        with pytest.raises(PolicyViolationError):
            policy(beacon, 2)

    def test_neighbor_originated_always_accepted(self, triangle, beacon_factory):
        policy = ValleyFreePolicy(topology=triangle)
        policy(beacon_factory([(2, None, 1)]), 1)

    def test_unknown_adjacency_rejected(self, triangle, beacon_factory):
        policy = ValleyFreePolicy(topology=triangle)
        foreign = beacon_factory([(9, None, 1), (8, 1, 2)])
        with pytest.raises(PolicyViolationError):
            policy(foreign, 1)


class TestCompositeAndIntegration:
    def test_composite_applies_in_order(self, beacon_factory):
        composite = CompositePolicy(
            policies=(MaxPathLengthPolicy(max_hops=5),)
        ).and_also(AvoidASPolicy(avoided=frozenset({7})))
        composite(beacon_factory([(1, None, 1), (2, 1, 2)]), 100)
        with pytest.raises(PolicyViolationError):
            composite(beacon_factory([(1, None, 1), (7, 1, 2)]), 100)

    def test_standard_policies_builder(self, beacon_factory):
        composite = standard_policies(max_hops=4, denied_origins=[9], avoided_ases=[7])
        assert len(composite.policies) == 3
        with pytest.raises(PolicyViolationError):
            composite(beacon_factory([(9, None, 1), (2, 1, 2)]), 100)

    def test_policy_plugged_into_ingress_gateway(self, key_store, beacon_factory):
        gateway = IngressGateway(
            as_id=100,
            verifier=Verifier(key_store=key_store),
            policies=[AvoidASPolicy(avoided=frozenset({7}))],
        )
        good = beacon_factory([(1, None, 1), (2, 1, 2)])
        bad = beacon_factory([(1, None, 1), (7, 1, 2), (2, 1, 2)])
        assert gateway.receive(good, on_interface=1, now_ms=0.0)
        assert not gateway.receive(bad, on_interface=1, now_ms=0.0)
        assert gateway.stats.rejected_policy == 1

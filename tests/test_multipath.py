"""Tests for disjoint multipath and failover.

``DisjointPolicy`` picks a maximally link-disjoint path set; the traffic
engine splits a flow group over it and, when a link fails, re-selects
among the paths that survive.  The packet walk reads the same
``LinkState``: the paths the engine avoids are the paths it drops, and
the paths the engine re-selects are paths it delivers.
"""

import pytest

from repro.core.databases import PathService, RegisteredPath
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.path import forwarding_path_from_segment
from repro.exceptions import ConfigurationError
from repro.simulation.failures import LinkState
from repro.topology.entities import Relationship
from repro.traffic import DisjointPolicy, FlowGroup, TrafficEngine, TrafficMatrix

from tests.conftest import build_topology, make_beacon


def diamond_path_service(key_store):
    """Two link-disjoint registered paths 1->4 plus one overlapping path."""
    service = PathService()
    upper = make_beacon(key_store, [(4, None, 1), (2, 2, 1), (1, 1, None)])
    lower = make_beacon(key_store, [(4, None, 2), (3, 2, 1), (1, 2, None)])
    overlap = make_beacon(key_store, [(4, None, 1), (2, 2, 3), (5, 1, 2), (1, 3, None)])
    for index, segment in enumerate((upper, lower, overlap)):
        service.register(
            RegisteredPath(segment=segment, criteria_tags=("hd",), registered_at_ms=float(index))
        )
    return service, upper, lower, overlap


def diamond_topology():
    loc = (47.0, 8.0)
    interfaces = {
        1: {1: loc, 2: loc, 3: loc},
        2: {1: loc, 2: loc, 3: loc},
        3: {1: loc, 2: loc},
        4: {1: loc, 2: loc},
        5: {1: loc, 2: loc},
    }
    peer = Relationship.PEER
    links = [
        ((1, 1), (2, 1), 5.0, 100.0, peer),
        ((2, 2), (4, 1), 5.0, 100.0, peer),
        ((1, 2), (3, 1), 5.0, 100.0, peer),
        ((3, 2), (4, 2), 5.0, 100.0, peer),
        ((1, 3), (5, 2), 5.0, 100.0, peer),
        ((5, 1), (2, 3), 5.0, 100.0, peer),
    ]
    return build_topology(interfaces, links)


def digests(decision):
    return [path.segment.digest() for path, _share in decision]


class TestDisjointPolicy:
    def test_prefers_disjoint_paths(self, key_store):
        service, upper, lower, _overlap = diamond_path_service(key_store)
        selected = DisjointPolicy(max_paths=2)(service.paths_to(4))
        assert set(digests(selected)) == {upper.digest(), lower.digest()}

    def test_max_paths_respected_and_shares_equal(self, key_store):
        service, *_paths = diamond_path_service(key_store)
        assert len(DisjointPolicy(max_paths=1)(service.paths_to(4))) == 1
        selected = DisjointPolicy(max_paths=10)(service.paths_to(4))
        assert len(selected) == 3
        assert [share for _path, share in selected] == [pytest.approx(1 / 3)] * 3

    def test_deterministic_whatever_the_candidate_order(self, key_store):
        service, upper, lower, overlap = diamond_path_service(key_store)
        candidates = service.paths_to(4)
        policy = DisjointPolicy(max_paths=3)
        assert digests(policy(candidates)) == [upper.digest(), lower.digest(), overlap.digest()]
        # upper and lower tie on (hops, latency): the candidate order decides.
        assert digests(policy(candidates[::-1])) == [
            lower.digest(),
            upper.digest(),
            overlap.digest(),
        ]
        assert digests(policy(candidates)) == digests(policy(list(candidates)))

    def test_empty_candidates(self):
        assert DisjointPolicy()([]) == []
        assert DisjointPolicy()(PathService().paths_to(3)) == []

    def test_disjoint_selection_prefers_non_overlapping(self, key_store):
        service = PathService()
        # Two paths sharing the 1-4 link, one fully disjoint path.
        for segment in (
            make_beacon(key_store, [(3, None, 3), (5, 3, 1), (4, 2, 1), (1, 2, None)]),
            make_beacon(key_store, [(3, None, 2), (6, 2, 1), (5, 2, 1), (4, 2, 1), (1, 2, None)]),
            make_beacon(key_store, [(3, None, 1), (2, 2, 1), (1, 1, None)]),
        ):
            service.register(
                RegisteredPath(segment=segment, criteria_tags=("1sp",), registered_at_ms=0.0)
            )
        chosen = DisjointPolicy(max_paths=2)(service.paths_to(3))
        assert len(chosen) == 2
        links_a = set(chosen[0][0].segment.links())
        links_b = set(chosen[1][0].segment.links())
        assert not links_a & links_b

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DisjointPolicy(max_paths=0)


class TestDisjointFailover:
    """One flow group 1 -> 4 over the diamond, split by ``DisjointPolicy``."""

    DEMAND_MBPS = 50.0

    def _engine(self, key_store):
        service, upper, lower, overlap = diamond_path_service(key_store)
        topology = diamond_topology()
        disjoint = DisjointPolicy(max_paths=2)
        picks = []

        def policy(candidates):
            decision = disjoint(candidates)
            picks.append(digests(decision))
            return decision

        engine = TrafficEngine(
            topology=topology,
            path_services={1: service},
            matrix=TrafficMatrix(
                groups=(FlowGroup(0, 1, 4, demand_mbps=self.DEMAND_MBPS),)
            ),
            link_state=LinkState(),
            policy=policy,
        )
        network = DataPlaneNetwork(topology=topology, link_state=engine.link_state)
        return engine, network, picks, (upper, lower, overlap)

    def test_both_disjoint_paths_carry_when_healthy(self, key_store):
        engine, network, picks, (upper, lower, _overlap) = self._engine(key_store)
        sample = engine.run_rounds(1).samples[0]
        assert picks == [[upper.digest(), lower.digest()]]  # the primary first
        assert sample.carried_mbps == pytest.approx(self.DEMAND_MBPS)
        for segment in (upper, lower):
            assert network.deliver(forwarding_path_from_segment(segment)).delivered

    def test_failover_after_link_failure_matches_the_packet_walk(self, key_store):
        """The link the engine avoids is the link the walk drops."""
        engine, network, picks, (upper, lower, overlap) = self._engine(key_store)
        engine.run_rounds(1)
        engine.link_state.fail_link(upper.links()[0])
        sample = engine.run_rounds(1).samples[-1]
        # The primary and the overlapping path share the failed 2-4 link.
        assert picks[-1] == [lower.digest()]
        assert sample.carried_mbps == pytest.approx(self.DEMAND_MBPS)
        assert network.deliver(forwarding_path_from_segment(lower)).delivered
        for segment in (upper, overlap):
            forced = network.deliver(forwarding_path_from_segment(segment))
            assert not forced.delivered
            assert "is down" in forced.failure_reason

    def test_the_group_stays_on_its_backup_after_recovery(self, key_store):
        """A recovery breaks nothing, so the group keeps the path it failed
        over to; it re-selects only when that path breaks."""
        engine, network, picks, (upper, lower, _overlap) = self._engine(key_store)
        engine.run_rounds(1)
        engine.link_state.fail_link(upper.links()[0])
        engine.run_rounds(1)
        engine.link_state.restore_link(upper.links()[0])
        engine.run_rounds(2)
        assert picks == [[upper.digest(), lower.digest()], [lower.digest()]]
        assert network.deliver(forwarding_path_from_segment(upper)).delivered

    def test_offline_transit_as_avoided_and_dropped(self, key_store):
        engine, network, picks, (upper, lower, _overlap) = self._engine(key_store)
        engine.link_state.set_as_offline(upper.as_path()[1])
        sample = engine.run_rounds(1).samples[0]
        assert picks == [[lower.digest()]]
        assert sample.carried_mbps == pytest.approx(self.DEMAND_MBPS)
        assert not network.deliver(forwarding_path_from_segment(upper)).delivered

    def test_all_paths_failed_blackholes_the_group(self, key_store):
        engine, network, picks, segments = self._engine(key_store)
        for segment in segments:
            engine.link_state.fail_link(segment.links()[0])
        sample = engine.run_rounds(1).samples[0]
        assert picks == [[]]
        assert sample.blackholed_groups == 1
        assert sample.carried_mbps == 0.0
        for segment in segments:
            assert not network.deliver(forwarding_path_from_segment(segment)).delivered

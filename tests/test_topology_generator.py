"""Tests for the synthetic topology generator."""

import pytest

from repro.exceptions import ConfigurationError
from repro.topology.entities import Relationship
from repro.topology.generator import (
    MAX_BANDWIDTH_MBPS,
    MIN_BANDWIDTH_MBPS,
    TopologyConfig,
    generate_topology,
    paper_scale_config,
)
from repro.topology.geo import propagation_delay_ms

from tests.conftest import is_connected, small_test_config


class TestTopologyConfig:
    def test_default_config_is_valid(self):
        TopologyConfig().validate()

    def test_core_plus_transit_must_fit(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(num_ases=5, num_core=3, num_transit=5).validate()

    def test_peering_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(peering_probability=1.5).validate()

    def test_needs_core(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(num_core=0).validate()


class TestGenerateTopology:
    def test_deterministic_given_seed(self):
        a = generate_topology(small_test_config(seed=3))
        b = generate_topology(small_test_config(seed=3))
        assert a.as_ids() == b.as_ids()
        assert set(a.links) == set(b.links)

    def test_different_seeds_differ(self):
        a = generate_topology(small_test_config(seed=3))
        b = generate_topology(small_test_config(seed=4))
        assert set(a.links) != set(b.links)

    def test_connected_and_every_interface_attached(self):
        topology = generate_topology(small_test_config())
        assert is_connected(topology)
        for as_info in topology:
            for interface in as_info:
                assert topology.link_of_interface(interface.key) is not None

    def test_as_count_matches_config(self):
        config = small_test_config()
        topology = generate_topology(config)
        assert topology.num_ases == config.num_ases

    def test_core_is_meshed(self):
        config = small_test_config()
        topology = generate_topology(config)
        for a in range(1, config.num_core + 1):
            for b in range(a + 1, config.num_core + 1):
                links = topology.links_between(a, b)
                assert links and all(link.relationship is Relationship.CORE for link in links)

    def test_stubs_have_providers(self):
        config = small_test_config()
        topology = generate_topology(config)
        first_stub = config.num_core + config.num_transit + 1
        for as_id in range(first_stub, config.num_ases + 1):
            # A customer-provider link's first interface is the customer's.
            assert any(
                link.relationship is Relationship.CUSTOMER_PROVIDER and link.interface_a[0] == as_id
                for link in topology.links_of(as_id)
            )

    def test_heavy_tail_core_degree_exceeds_stub_degree(self):
        config = small_test_config()
        topology = generate_topology(config)
        core_degrees = [topology.degree_of(a) for a in range(1, config.num_core + 1)]
        stub_degrees = [
            topology.degree_of(a)
            for a in range(config.num_core + config.num_transit + 1, config.num_ases + 1)
        ]
        assert max(core_degrees) > max(stub_degrees)

    def test_link_latency_positive_and_geo_consistent(self):
        topology = generate_topology(small_test_config())
        for link in topology.links.values():
            assert link.latency_ms > 0.0
            assert link.bandwidth_mbps > 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_interface_on_exactly_one_link(self, seed):
        topology = generate_topology(small_test_config(seed=seed))
        endpoints = [
            endpoint
            for link in topology.links.values()
            for endpoint in (link.interface_a, link.interface_b)
        ]
        assert len(endpoints) == len(set(endpoints))
        interfaces = {interface.key for as_info in topology for interface in as_info}
        assert set(endpoints) == interfaces

    def test_default_config_is_connected_and_fully_attached(self):
        topology = generate_topology(TopologyConfig())
        assert topology.num_ases == TopologyConfig().num_ases
        assert is_connected(topology)
        for as_info in topology:
            for interface in as_info:
                assert topology.link_of_interface(interface.key) is not None

    def test_link_latency_never_undercuts_the_geodesic(self):
        topology = generate_topology(small_test_config())
        for link in topology.links.values():
            geodesic = propagation_delay_ms(
                topology.as_info(link.interface_a[0]).interface(link.interface_a[1]).location,
                topology.as_info(link.interface_b[0]).interface(link.interface_b[1]).location,
            )
            assert link.latency_ms >= geodesic
            assert link.latency_ms == pytest.approx(max(0.05, geodesic))

    def test_every_as_has_an_interface(self):
        topology = generate_topology(small_test_config())
        for as_info in topology:
            assert len(as_info) > 0

    def test_providers_sit_in_a_higher_tier(self):
        config = small_test_config()
        topology = generate_topology(config)
        for link in topology.links.values():
            if link.relationship is Relationship.CUSTOMER_PROVIDER:
                customer, provider = link.interface_a[0], link.interface_b[0]
                assert provider < customer
                assert customer > config.num_core

    def test_peering_only_between_transit_ases(self):
        config = small_test_config()
        topology = generate_topology(config)
        transit = range(config.num_core + 1, config.num_core + config.num_transit + 1)
        for link in topology.links.values():
            if link.relationship is Relationship.PEER:
                assert link.interface_a[0] in transit
                assert link.interface_b[0] in transit

    def test_bandwidth_within_configured_range(self):
        config = small_test_config()
        topology = generate_topology(config)
        for link in topology.links.values():
            assert MIN_BANDWIDTH_MBPS <= link.bandwidth_mbps <= MAX_BANDWIDTH_MBPS

    def test_paper_scale_config_shape(self):
        config = paper_scale_config()
        config.validate()
        assert config.num_ases == 500

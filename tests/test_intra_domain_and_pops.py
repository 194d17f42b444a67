"""Tests for intra-domain latency models and PoP derivation."""

import pytest

from repro.topology.entities import ASInfo, Interface
from repro.topology.generator import generate_topology
from repro.topology.geo import GeoCoordinate, great_circle_km, propagation_delay_ms
from repro.topology.intra_domain import IntraDomainModel, IntraDomainRegistry
from repro.topology import pops as pops_module
from repro.topology.pops import derive_pops

from tests.conftest import small_test_config

ZURICH = GeoCoordinate(47.3769, 8.5417)
LONDON = GeoCoordinate(51.5074, -0.1278)
TOKYO = GeoCoordinate(35.6762, 139.6503)


def as_with_interfaces(as_id=1, locations=(ZURICH, LONDON, TOKYO)):
    info = ASInfo(as_id=as_id)
    for index, location in enumerate(locations, start=1):
        info.add_interface(Interface(as_id=as_id, interface_id=index, location=location))
    return info


class TestIntraDomainModel:
    def test_same_interface_zero_latency(self):
        model = IntraDomainModel(as_info=as_with_interfaces())
        assert model.latency_ms(1, 1) == 0.0

    def test_geodesic_estimate(self):
        model = IntraDomainModel(as_info=as_with_interfaces())
        expected = propagation_delay_ms(ZURICH, LONDON)
        assert model.latency_ms(1, 2) == pytest.approx(expected)

    def test_symmetry(self):
        model = IntraDomainModel(as_info=as_with_interfaces())
        assert model.latency_ms(1, 3) == pytest.approx(model.latency_ms(3, 1))


class TestIntraDomainRegistry:
    def test_model_created_on_demand(self):
        registry = IntraDomainRegistry()
        info = as_with_interfaces()
        model = registry.model_for(info)
        assert model.as_info is info
        assert registry.model_for(info) is model
        assert registry.models == {info.as_id: model}


class TestPops:
    def test_each_far_location_is_its_own_pop(self, small_topology):
        pops = derive_pops(small_topology)
        assert set(pops) == set(small_topology.as_ids())
        for as_id, as_pops in pops.items():
            member_count = sum(len(p.interfaces) for p in as_pops)
            assert member_count == small_topology.degree_of(as_id)

    def test_colocated_interfaces_merge(self, monkeypatch):
        topology = generate_topology(small_test_config())
        monkeypatch.setattr(pops_module, "COLOCATION_RADIUS_KM", 50_000.0)
        coarse = derive_pops(topology)
        for as_pops in coarse.values():
            assert len(as_pops) == 1

    def test_pop_of_interface(self, small_topology):
        """Every interface of an AS sits in exactly one PoP of that AS,
        within the co-location radius of the PoP's other members."""
        pops = derive_pops(small_topology)
        for as_info in small_topology:
            members = [key for pop in pops[as_info.as_id] for key in pop.interfaces]
            assert sorted(members) == sorted(interface.key for interface in as_info)
            for pop in pops[as_info.as_id]:
                assert all(key[0] == as_info.as_id for key in pop.interfaces)
                locations = [as_info.interface(key[1]).location for key in pop.interfaces]
                for a in locations:
                    for b in locations:
                        assert great_circle_km(a, b) <= pops_module.COLOCATION_RADIUS_KM

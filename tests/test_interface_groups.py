"""Tests for interface grouping policies."""

import pytest

from repro.core.interface_groups import (
    ExplicitGrouping,
    GeographicGroupingPolicy,
    PerInterfaceGroupPolicy,
    SingleGroupPolicy,
)
from repro.exceptions import ConfigurationError
from repro.topology.entities import ASInfo, Interface
from repro.topology.geo import GeoCoordinate

ZURICH = GeoCoordinate(47.3769, 8.5417)
GENEVA = GeoCoordinate(46.2044, 6.1432)
TOKYO = GeoCoordinate(35.6762, 139.6503)
OSAKA = GeoCoordinate(34.6937, 135.5023)


def swiss_japanese_as(as_id=1):
    info = ASInfo(as_id=as_id)
    for index, location in enumerate((ZURICH, GENEVA, TOKYO, OSAKA), start=1):
        info.add_interface(Interface(as_id=as_id, interface_id=index, location=location))
    return info


class TestGroupingPolicies:
    def test_single_group(self):
        assignment = SingleGroupPolicy().assign(swiss_japanese_as())
        assert assignment.num_groups == 1
        assert assignment.members(0) == (1, 2, 3, 4)
        assert assignment.group_of(3) == 0

    def test_per_interface_groups(self):
        assignment = PerInterfaceGroupPolicy().assign(swiss_japanese_as())
        assert assignment.num_groups == 4
        assert all(len(assignment.members(g)) == 1 for g in assignment.group_ids())

    def test_geographic_grouping_small_radius(self):
        """A 300 km radius keeps Zurich+Geneva together but splits Tokyo and Osaka."""
        assignment = GeographicGroupingPolicy(radius_km=300.0).assign(swiss_japanese_as())
        assert assignment.num_groups == 3
        zurich_group = assignment.group_of(1)
        assert assignment.group_of(2) == zurich_group  # Zurich + Geneva ~225 km
        assert assignment.group_of(3) != zurich_group
        assert assignment.group_of(4) != assignment.group_of(3)  # Tokyo-Osaka ~400 km

    def test_geographic_grouping_large_radius(self):
        """A 2000 km radius merges the Swiss pair and the Japanese pair only."""
        assignment = GeographicGroupingPolicy(radius_km=2000.0).assign(swiss_japanese_as())
        assert assignment.num_groups == 2

    def test_geographic_grouping_world_radius(self):
        assignment = GeographicGroupingPolicy(radius_km=50_000.0).assign(swiss_japanese_as())
        assert assignment.num_groups == 1

    def test_300km_yields_at_least_as_many_groups_as_2000km(self):
        as_info = swiss_japanese_as()
        fine = GeographicGroupingPolicy(radius_km=300.0).assign(as_info)
        coarse = GeographicGroupingPolicy(radius_km=2000.0).assign(as_info)
        assert fine.num_groups >= coarse.num_groups

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            GeographicGroupingPolicy(radius_km=-1.0)

    def test_explicit_grouping(self):
        policy = ExplicitGrouping(groups_by_as={1: {0: (1, 3), 1: (2, 4)}})
        assignment = policy.assign(swiss_japanese_as())
        assert assignment.group_of(3) == 0
        assert assignment.group_of(4) == 1
        # Unconfigured ASes fall back to a single group.
        other = policy.assign(swiss_japanese_as(as_id=2))
        assert other.num_groups == 1

    def test_group_of_unknown_interface(self):
        assignment = SingleGroupPolicy().assign(swiss_japanese_as())
        with pytest.raises(ConfigurationError):
            assignment.group_of(99)

    def test_members_of_unknown_group(self):
        assignment = SingleGroupPolicy().assign(swiss_japanese_as())
        with pytest.raises(ConfigurationError):
            assignment.members(42)

"""Tests for interface grouping policies."""

import pytest

from repro.core.interface_groups import (
    GeographicGroupingPolicy,
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
        assert len(assignment.groups) == 1
        assert assignment.members(0) == (1, 2, 3, 4)
        assert 3 in assignment.members(0)

    def test_geographic_grouping_small_radius(self):
        """A 300 km radius keeps Zurich+Geneva together but splits Tokyo and Osaka."""
        assignment = GeographicGroupingPolicy(radius_km=300.0).assign(swiss_japanese_as())
        assert len(assignment.groups) == 3
        group_of = {
            member: group for group in assignment.group_ids() for member in assignment.members(group)
        }
        assert group_of[2] == group_of[1]  # Zurich + Geneva ~225 km
        assert group_of[3] != group_of[1]
        assert group_of[4] != group_of[3]  # Tokyo-Osaka ~400 km

    def test_geographic_grouping_large_radius(self):
        """A 2000 km radius merges the Swiss pair and the Japanese pair only."""
        assignment = GeographicGroupingPolicy(radius_km=2000.0).assign(swiss_japanese_as())
        assert len(assignment.groups) == 2

    def test_geographic_grouping_world_radius(self):
        assignment = GeographicGroupingPolicy(radius_km=50_000.0).assign(swiss_japanese_as())
        assert len(assignment.groups) == 1

    def test_300km_yields_at_least_as_many_groups_as_2000km(self):
        as_info = swiss_japanese_as()
        fine = GeographicGroupingPolicy(radius_km=300.0).assign(as_info)
        coarse = GeographicGroupingPolicy(radius_km=2000.0).assign(as_info)
        assert len(fine.groups) >= len(coarse.groups)

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            GeographicGroupingPolicy(radius_km=-1.0)

    def test_members_of_unknown_group(self):
        assignment = SingleGroupPolicy().assign(swiss_japanese_as())
        with pytest.raises(ConfigurationError):
            assignment.members(42)

"""Tests for topology entities: ASes, interfaces and links."""

import pytest

from repro.exceptions import TopologyError, UnknownInterfaceError
from repro.topology.entities import (
    ASInfo,
    Interface,
    Link,
    Relationship,
    normalize_link_id,
)
from repro.topology.geo import GeoCoordinate

LOC = GeoCoordinate(47.0, 8.0)


def make_interface(as_id, interface_id, location=LOC):
    return Interface(as_id=as_id, interface_id=interface_id, location=location)


class TestInterface:
    def test_key(self):
        assert make_interface(3, 7).key == (3, 7)


class TestLink:
    def test_valid_link(self):
        link = Link((1, 1), (2, 1), 10.0, 100.0, Relationship.PEER)
        assert (link.interface_a[0], link.interface_b[0]) == (1, 2)

    def test_same_as_rejected(self):
        with pytest.raises(TopologyError):
            Link((1, 1), (1, 2), 10.0, 100.0, Relationship.PEER)

    def test_negative_latency_rejected(self):
        with pytest.raises(TopologyError):
            Link((1, 1), (2, 1), -1.0, 100.0, Relationship.PEER)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            Link((1, 1), (2, 1), 1.0, 0.0, Relationship.PEER)

    def test_other_end(self):
        link = Link((1, 1), (2, 1), 10.0, 100.0, Relationship.PEER)
        assert link.other_end((1, 1)) == (2, 1)
        assert link.other_end((2, 1)) == (1, 1)
        with pytest.raises(TopologyError):
            link.other_end((3, 1))

    def test_key_is_normalised(self):
        link = Link((2, 1), (1, 1), 10.0, 100.0, Relationship.PEER)
        assert link.key == normalize_link_id((1, 1), (2, 1))


class TestNormalizeLinkId:
    def test_order_independence(self):
        assert normalize_link_id((1, 2), (3, 4)) == normalize_link_id((3, 4), (1, 2))

    def test_ordering_by_tuple(self):
        assert normalize_link_id((3, 4), (1, 2)) == ((1, 2), (3, 4))


class TestASInfo:
    def test_add_and_lookup_interface(self):
        info = ASInfo(as_id=1)
        info.add_interface(make_interface(1, 5))
        assert info.interface(5).interface_id == 5
        assert info.interface_ids() == (5,)
        assert len(info) == 1

    def test_foreign_interface_rejected(self):
        info = ASInfo(as_id=1)
        with pytest.raises(TopologyError):
            info.add_interface(make_interface(2, 1))

    def test_duplicate_interface_rejected(self):
        info = ASInfo(as_id=1)
        info.add_interface(make_interface(1, 1))
        with pytest.raises(TopologyError):
            info.add_interface(make_interface(1, 1))

    def test_missing_interface_raises(self):
        info = ASInfo(as_id=1)
        with pytest.raises(UnknownInterfaceError):
            info.interface(42)

    def test_iteration_in_identifier_order(self):
        info = ASInfo(as_id=1)
        info.add_interface(make_interface(1, 3))
        info.add_interface(make_interface(1, 1))
        assert [i.interface_id for i in info] == [1, 3]
        assert len(info) == 2

"""Tests for PCB extensions and static-info records."""

import pytest

from repro.core.extensions import (
    AlgorithmExtension,
    ExtensionSet,
    InterfaceGroupExtension,
    TargetExtension,
)
from repro.core.staticinfo import StaticInfo
from repro.exceptions import ExtensionError
from repro.topology.geo import GeoCoordinate


class TestStaticInfo:
    def test_hop_latency_sums_intra_and_link(self):
        info = StaticInfo(intra_latency_ms=3.0, link_latency_ms=7.0)
        assert info.hop_latency_ms == 10.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            StaticInfo(intra_latency_ms=-1.0)
        with pytest.raises(ValueError):
            StaticInfo(link_latency_ms=-1.0)
        with pytest.raises(ValueError):
            StaticInfo(link_bandwidth_mbps=0.0)

    def test_encode_includes_geo(self):
        info = StaticInfo(egress_location=GeoCoordinate(1.0, 2.0))
        assert "1.000000,2.000000" in info.encode()

    def test_encode_differs_by_content(self):
        assert StaticInfo(link_latency_ms=1.0).encode() != StaticInfo(link_latency_ms=2.0).encode()


class TestIndividualExtensions:
    def test_target_encoding(self):
        assert TargetExtension(target_as=7).encode() == "target(7)"

    def test_algorithm_requires_fields(self):
        with pytest.raises(ExtensionError):
            AlgorithmExtension(algorithm_id="", code_hash="ab")
        with pytest.raises(ExtensionError):
            AlgorithmExtension(algorithm_id="x", code_hash="")

    def test_interface_group_rejects_negative(self):
        with pytest.raises(ExtensionError):
            InterfaceGroupExtension(group_id=-1)


class TestExtensionSet:
    def test_empty_set_properties(self):
        extensions = ExtensionSet()
        assert extensions.target is None
        assert extensions.algorithm is None
        assert extensions.encode() == "ext[]"

    def test_with_target(self):
        extensions = ExtensionSet().with_target(5)
        assert extensions.target.target_as == 5

    def test_with_algorithm(self):
        extensions = ExtensionSet().with_algorithm("id", "hash")
        assert extensions.algorithm.algorithm_id == "id"

    def test_with_interface_group(self):
        extensions = ExtensionSet().with_interface_group(2)
        assert extensions.interface_group.group_id == 2

    def test_at_most_one_of_each_kind(self):
        extensions = ExtensionSet().with_target(5)
        with pytest.raises(ExtensionError):
            extensions.with_target(6)
        extensions = ExtensionSet().with_algorithm("a", "h")
        with pytest.raises(ExtensionError):
            extensions.with_algorithm("b", "h")
        extensions = ExtensionSet().with_interface_group(1)
        with pytest.raises(ExtensionError):
            extensions.with_interface_group(2)

    def test_combination_preserves_existing(self):
        extensions = (
            ExtensionSet().with_target(5).with_algorithm("a", "h").with_interface_group(3)
        )
        assert extensions.target.target_as == 5
        assert extensions.algorithm.algorithm_id == "a"
        assert extensions.interface_group.group_id == 3
        encoded = extensions.encode()
        assert "target(5)" in encoded
        assert "algorithm(a,h)" in encoded
        assert "ifgroup(3)" in encoded

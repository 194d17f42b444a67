"""Tests for the Topology container and policy queries."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import TopologyError, UnknownASError, UnknownLinkError
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology

from tests.conftest import build_topology

LOC = (47.0, 8.0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def simple_triangle() -> Topology:
    """Three ASes: 1 is a customer of 2 and 3; 2 and 3 peer."""
    interfaces = {
        1: {1: LOC, 2: LOC},
        2: {1: LOC, 2: LOC},
        3: {1: LOC, 2: LOC},
    }
    links = [
        ((1, 1), (2, 1), 5.0, 100.0, Relationship.CUSTOMER_PROVIDER),
        ((1, 2), (3, 1), 5.0, 100.0, Relationship.CUSTOMER_PROVIDER),
        ((2, 2), (3, 2), 5.0, 100.0, Relationship.PEER),
    ]
    return build_topology(interfaces, links)


class TestConstruction:
    def test_duplicate_as_rejected(self):
        topology = Topology()
        topology.add_as(ASInfo(as_id=1))
        with pytest.raises(TopologyError):
            topology.add_as(ASInfo(as_id=1))

    def test_link_requires_known_ases(self):
        topology = Topology()
        topology.add_as(ASInfo(as_id=1))
        topology.as_info(1).add_interface(
            Interface(as_id=1, interface_id=1, location=GeoCoordinate(*LOC))
        )
        with pytest.raises(UnknownASError):
            topology.add_link(
                Link((1, 1), (2, 1), 1.0, 10.0, Relationship.PEER)
            )

    def test_interface_attached_to_single_link(self):
        topology = simple_triangle()
        with pytest.raises(TopologyError):
            topology.add_link(Link((1, 1), (3, 2), 1.0, 10.0, Relationship.PEER))


class TestLookups:
    def test_neighbors(self):
        topology = simple_triangle()
        assert topology.neighbors(1) == (2, 3)
        assert topology.neighbors(2) == (1, 3)

    def test_unknown_as(self):
        topology = simple_triangle()
        with pytest.raises(UnknownASError):
            topology.neighbors(99)

    def test_link_of_interface(self):
        topology = simple_triangle()
        link = topology.link_of_interface((1, 1))
        assert (link.interface_a[0], link.interface_b[0]) == (1, 2)

    def test_unknown_link(self):
        topology = simple_triangle()
        with pytest.raises(UnknownLinkError):
            topology.link_of_interface((1, 9))

    def test_links_of(self):
        topology = simple_triangle()
        assert len(topology.links_of(1)) == 2

    def test_degree_and_summary(self):
        topology = simple_triangle()
        assert topology.degree_of(1) == 2
        summary = topology.summary()
        assert summary["ases"] == 3.0
        assert summary["links"] == 3.0


class TestConversionsAndSubtopology:
    def test_control_plane_imports_no_graph_library(self):
        """``networkx`` serves ``repro.analysis`` only."""
        probe = "import repro.simulation.beaconing, sys; assert 'networkx' not in sys.modules"
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )

    def test_contains_and_iteration(self):
        topology = simple_triangle()
        assert 1 in topology
        assert 99 not in topology
        assert [info.as_id for info in topology] == [1, 2, 3]

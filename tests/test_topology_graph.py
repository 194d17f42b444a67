"""Tests for the Topology container and policy queries."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import TopologyError, UnknownASError, UnknownLinkError
from repro.topology.entities import ASInfo, Interface, Link, Relationship
from repro.topology.geo import GeoCoordinate
from repro.topology.graph import Topology, induced_subtopology

from tests.conftest import build_topology, line_topology

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
        assert link.as_pair == (1, 2)

    def test_unknown_link(self):
        topology = simple_triangle()
        with pytest.raises(UnknownLinkError):
            topology.link_between((1, 1), (3, 1))

    def test_remote_interface_and_neighbor(self):
        topology = simple_triangle()
        assert topology.remote_interface((1, 1)) == (2, 1)
        assert topology.neighbor_of((1, 1)) == 2

    def test_interfaces_towards(self):
        topology = simple_triangle()
        towards_2 = topology.interfaces_towards(1, 2)
        assert [i.interface_id for i in towards_2] == [1]

    def test_links_of(self):
        topology = simple_triangle()
        assert len(topology.links_of(1)) == 2

    def test_degree_and_summary(self):
        topology = simple_triangle()
        assert topology.degree_of(1) == 2
        summary = topology.summary()
        assert summary["ases"] == 3.0
        assert summary["links"] == 3.0


class TestRelationships:
    def test_providers_customers_peers(self):
        topology = simple_triangle()
        assert topology.providers_of(1) == (2, 3)
        assert topology.customers_of(2) == (1,)
        assert topology.peers_of(2) == (3,)

    def test_relationship_lookup(self):
        topology = simple_triangle()
        assert topology.relationship(1, 2) is Relationship.CUSTOMER_PROVIDER
        assert topology.relationship(2, 3) is Relationship.PEER
        assert topology.relationship(1, 99) is None

    def test_valley_free_export(self):
        topology = simple_triangle()
        # AS 2 learned a path from its customer AS 1: may export to anyone.
        assert topology.export_allowed(received_from=1, via=2, to_as=3)
        # AS 1 learned a path from its provider AS 2: may only export to
        # customers, and AS 1 has none.
        assert not topology.export_allowed(received_from=2, via=1, to_as=3)
        # Locally originated paths may always be exported.
        assert topology.export_allowed(received_from=None, via=1, to_as=2)

    def test_export_between_non_adjacent_raises(self):
        topology = simple_triangle()
        topology.add_as(ASInfo(as_id=9))
        with pytest.raises(TopologyError):
            topology.export_allowed(received_from=9, via=1, to_as=2)


class TestConversionsAndSubtopology:
    def test_to_networkx_multigraph(self):
        topology = simple_triangle()
        graph = topology.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3

    def test_to_networkx_simple_keeps_lowest_latency(self):
        interfaces = {1: {1: LOC, 2: LOC}, 2: {1: LOC, 2: LOC}}
        links = [
            ((1, 1), (2, 1), 20.0, 100.0, Relationship.PEER),
            ((1, 2), (2, 2), 5.0, 100.0, Relationship.PEER),
        ]
        topology = build_topology(interfaces, links)
        graph = topology.to_networkx(multigraph=False)
        assert graph[1][2]["latency_ms"] == 5.0

    def test_is_connected(self):
        assert Topology().is_connected()
        assert simple_triangle().is_connected()
        assert line_topology(3).is_connected()
        islands = line_topology(3)
        islands.add_as(ASInfo(as_id=9))
        assert not islands.is_connected()

    def test_control_plane_imports_no_graph_library(self):
        """``networkx`` serves ``to_networkx`` and the analysis code only."""
        probe = "import repro.simulation.beaconing, sys; assert 'networkx' not in sys.modules"
        subprocess.run(
            [sys.executable, "-c", probe],
            check=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )

    def test_induced_subtopology(self):
        topology = simple_triangle()
        sub = induced_subtopology(topology, keep=[1, 2])
        assert sub.as_ids() == (1, 2)
        assert sub.num_links == 1
        # Interfaces that only attached dropped links are pruned.
        assert sub.as_info(1).interface_ids() == (1,)

    def test_contains_and_iteration(self):
        topology = simple_triangle()
        assert 1 in topology
        assert 99 not in topology
        assert [info.as_id for info in topology] == [1, 2, 3]

"""Topology constructors, routing and role classification.

networkx is the reference for diameter, path length and connectivity."""

import networkx as nx
import pytest

from repro.net import Topology

from .graphs import reference_graph


class TestConstructors:
    def test_line(self):
        topo = Topology.line(4)
        assert topo.node_count == 4
        assert topo.neighbors(0) == (1,)
        assert topo.neighbors(1) == (0, 2)
        assert topo.neighbors(3) == (2,)

    def test_grid_degrees(self):
        topo = Topology.grid(3)
        assert topo.node_count == 9
        assert topo.neighbors(4) == (1, 3, 5, 7)  # center
        assert topo.neighbors(0) == (1, 3)        # corner
        assert topo.neighbors(1) == (0, 2, 4)     # edge

    def test_grid_rectangular(self):
        topo = Topology.grid(4, 2)
        assert topo.node_count == 8
        assert topo.are_neighbors(0, 4)
        assert not topo.are_neighbors(3, 4)  # row wrap is not an edge

    def test_paper_grid_sizes(self):
        for side, nodes in ((5, 25), (7, 49), (10, 100)):
            assert Topology.grid(side).node_count == nodes

    def test_ring(self):
        topo = Topology.ring(5)
        assert topo.name == "ring-5"
        assert topo.node_count == 5
        assert topo.neighbors(0) == (1, 4)  # the wrap-around edge
        assert topo.neighbors(2) == (1, 3)
        assert topo.edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        assert nx.diameter(reference_graph(topo)) == 2

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            Topology.ring(2)

    def test_star(self):
        topo = Topology.star(5)
        assert topo.neighbors(0) == (1, 2, 3, 4)
        assert topo.neighbors(3) == (0,)

    def test_full_mesh(self):
        topo = Topology.full_mesh(4)
        for node in topo.nodes():
            assert len(topo.neighbors(node)) == 3

    def test_random_connected(self):
        topo = Topology.random_connected(10, degree=3, seed=1)
        assert topo.node_count == 10
        assert all(len(topo.neighbors(node)) == 3 for node in topo.nodes())
        assert len(topo.edges) == 15  # simple: no loop, no parallel edge
        assert nx.is_connected(reference_graph(topo))
        assert topo.edges == Topology.random_connected(10, degree=3, seed=1).edges

    def test_random_connected_needs_an_even_stub_count(self):
        with pytest.raises(ValueError):
            Topology.random_connected(5, degree=3)

    def test_single_node(self):
        topo = Topology(1, [])
        assert topo.node_count == 1
        assert topo.neighbors(0) == ()

    def test_edges_are_sorted_pairs(self):
        topo = Topology(3, [(2, 1), (1, 2), (0, 2)])
        assert topo.edges == {(1, 2), (0, 2)}
        assert topo.neighbors(2) == (0, 1)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            Topology(2, [(1, 2)])  # node 2 is outside 0..1
        with pytest.raises(ValueError):
            Topology(0, [])


class TestRouting:
    def test_line_route(self):
        topo = Topology.line(5)
        assert topo.route(0, 4) == [0, 1, 2, 3, 4]

    def test_next_hop_table_is_deterministic(self):
        topo = Topology.grid(5)
        assert topo.next_hop_table(0) == topo.next_hop_table(0)

    def test_next_hop_points_toward_sink(self):
        topo = Topology.grid(4)
        table = topo.next_hop_table(0)
        distance = nx.single_source_shortest_path_length(reference_graph(topo), 0)
        for node in topo.nodes():
            if node == 0:
                continue
            hop = table[node]
            assert topo.are_neighbors(node, hop)
            assert distance[hop] == distance[node] - 1

    def test_route_length_matches_shortest_path(self):
        topo = Topology.grid(10)
        route = topo.route(99, 0)
        assert len(route) == len(nx.shortest_path(reference_graph(topo), 99, 0))
        assert len(route) == 19  # 18 hops corner to corner

    def test_sink_routes_to_itself(self):
        assert Topology.line(3).next_hop_table(2)[2] == 2


class TestPathRoles:
    def test_figure9_bystander_count(self):
        """The paper's Figure 9: in the 5x5 grid with the preconfigured
        corner-to-corner path, six nodes are bystanders (gray shaded)."""
        topo = Topology.grid(5)
        on_path, neighbors, bystanders = topo.path_roles(24, 0)
        assert len(on_path) == 9  # 8 hops + both endpoints
        # Exact counts depend on the deterministic route shape; the paper's
        # figure shows 6 bystanders for its drawn path.
        assert len(bystanders) > 0
        assert len(on_path) + len(neighbors) + len(bystanders) == 25

    def test_roles_are_disjoint(self):
        topo = Topology.grid(4)
        on_path, neighbors, bystanders = topo.path_roles(15, 0)
        assert not (on_path & neighbors)
        assert not (on_path & bystanders)
        assert not (neighbors & bystanders)

    def test_line_has_no_bystanders(self):
        topo = Topology.line(6)
        on_path, neighbors, bystanders = topo.path_roles(0, 5)
        assert len(on_path) == 6
        assert not neighbors and not bystanders

"""Generated topologies and their networkx twins: networkx is the test
suite's reference for graph facts (distances, automorphisms)."""

import networkx as nx
from hypothesis import strategies as st

from repro.net import Topology


@st.composite
def topologies(draw, max_nodes=10):
    """A graph on 1..``max_nodes`` nodes, connected or not."""
    count = draw(st.integers(1, max_nodes))
    pairs = [(a, b) for a in range(count) for b in range(a + 1, count)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Topology(count, edges)


def reference_graph(topology):
    """The topology as a networkx graph."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes())
    graph.add_edges_from(topology.edges)
    return graph

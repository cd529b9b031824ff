"""Network topologies for SDE scenarios.

An undirected graph kept as its edge set and sorted neighbour tuples, with
the derived data the engine and workloads need: static next-hop routing
toward a sink (the paper's grid scenarios use preconfigured static routes),
and the classification of nodes into on-path / neighbour-of-path /
bystander roles that drives the symbolic-failure configuration (cf. the
paper's Figure 9, where six grid corners are bystanders).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["Topology"]


class Topology:
    """An undirected connectivity graph over nodes ``0..k-1``."""

    def __init__(
        self, node_count: int, edges: Iterable[Tuple[int, int]], name: str = "custom"
    ) -> None:
        if node_count < 1:
            raise ValueError("topology must contain at least one node")
        self.edges = frozenset((min(a, b), max(a, b)) for a, b in edges)
        neighbors: Dict[int, List[int]] = {node: [] for node in range(node_count)}
        for a, b in self.edges:
            if a not in neighbors or b not in neighbors:
                raise ValueError("nodes must be labelled 0..k-1")
            neighbors[a].append(b)
            neighbors[b].append(a)
        self.name = name
        self._neighbors: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(adjacent)) for node, adjacent in neighbors.items()
        }

    # -- constructors ---------------------------------------------------------

    @classmethod
    def line(cls, k: int) -> "Topology":
        """Nodes 0-1-2-...-(k-1) in a chain."""
        return cls(k, [(node, node + 1) for node in range(k - 1)], name=f"line-{k}")

    @classmethod
    def grid(cls, width: int, height: Optional[int] = None) -> "Topology":
        """A width x height lattice, row-major labels (the paper's layout)."""
        height = width if height is None else height
        edges = []
        for node in range(width * height):
            if node % width + 1 < width:
                edges.append((node, node + 1))
            if node + width < width * height:
                edges.append((node, node + width))
        topology = cls(width * height, edges, name=f"grid-{width}x{height}")
        topology.width = width
        topology.height = height
        return topology

    @classmethod
    def ring(cls, k: int) -> "Topology":
        """Nodes 0-1-...-(k-1)-0 in a cycle (dihedral symmetry group)."""
        if k < 3:
            raise ValueError("a ring needs at least 3 nodes")
        return cls(k, [(node, (node + 1) % k) for node in range(k)], name=f"ring-{k}")

    @classmethod
    def star(cls, k: int) -> "Topology":
        """Node 0 is the hub; 1..k-1 are leaves."""
        return cls(k, [(0, leaf) for leaf in range(1, k)], name=f"star-{k}")

    @classmethod
    def full_mesh(cls, k: int) -> "Topology":
        """Every node hears every other node (the paper's worst case)."""
        edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
        return cls(k, edges, name=f"mesh-{k}")

    @classmethod
    def fat_tree(cls, pods: int = 2, leaf_fanout: int = 2) -> "Topology":
        """A small folded-Clos fat tree: 2 cores, one aggregation switch
        per pod, ``leaf_fanout`` leaves per pod.

        Labels are deterministic: cores 0-1, then aggregations 2..pods+1,
        then leaves row-major by pod.  Cross-pod leaf traffic needs four
        hops (leaf - agg - core - agg - leaf), so this topology only
        delivers end-to-end on a routed medium
        (:class:`repro.net.realistic.RealisticMedium`).
        """
        if pods < 1:
            raise ValueError("a fat tree needs at least one pod")
        if leaf_fanout < 1:
            raise ValueError("each pod needs at least one leaf")
        leaf_base = 2 + pods
        edges = [(core, 2 + pod) for pod in range(pods) for core in (0, 1)]
        edges += [
            (2 + pod, leaf_base + pod * leaf_fanout + leaf)
            for pod in range(pods)
            for leaf in range(leaf_fanout)
        ]
        return cls(
            leaf_base + pods * leaf_fanout, edges, name=f"fat-tree-{pods}x{leaf_fanout}"
        )

    @classmethod
    def random_connected(cls, k: int, degree: int = 3, seed: int = 7) -> "Topology":
        """A seeded random connected ``degree``-regular graph: node stubs
        are paired at random, redrawn until the graph is simple and
        connected (``k * degree`` must be even)."""
        stubs = [node for node in range(k) for _ in range(min(degree, k - 1))]
        if len(stubs) % 2:
            raise ValueError("k * degree must be even")
        rng = random.Random(seed)
        while True:
            rng.shuffle(stubs)
            pairs = list(zip(stubs[::2], stubs[1::2]))
            topology = cls(k, pairs, name=f"random-{k}-d{degree}-s{seed}")
            simple = len(topology.edges) == len(pairs) and all(a != b for a, b in pairs)
            if simple and len(topology.next_hop_table(0)) == k:
                return topology

    # -- queries -----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._neighbors)

    def nodes(self) -> range:
        return range(self.node_count)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        return self._neighbors[node]

    def are_neighbors(self, a: int, b: int) -> bool:
        return b in self._neighbors[a]

    # -- routing ------------------------------------------------------------------

    def next_hop_table(self, sink: int) -> Dict[int, int]:
        """Static routing: next hop toward ``sink`` for every node that
        reaches it, keyed in BFS order (``sink`` first, mapped to itself).

        Deterministic (among equal-length paths the lowest-id parent wins),
        which matches the "preconfigured data path" of the paper's grid
        scenario.
        """
        table: Dict[int, int] = {sink: sink}
        frontier = [sink]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in self._neighbors[node]:
                    if neighbor not in table:
                        table[neighbor] = node
                        next_frontier.append(neighbor)
            frontier = sorted(next_frontier)
        return table

    def route(self, src: int, sink: int) -> List[int]:
        """The static route src -> sink induced by :meth:`next_hop_table`."""
        table = self.next_hop_table(sink)
        path = [src]
        while path[-1] != sink:
            path.append(table[path[-1]])
        return path

    def path_roles(
        self, src: int, sink: int
    ) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        """Classify nodes for a src->sink flow.

        Returns ``(on_path, path_neighbors, bystanders)``: nodes on the
        static route; nodes that overhear it (neighbours of on-path nodes);
        and everything else — the paper's gray-shaded corner nodes in
        Figure 9.
        """
        on_path = frozenset(self.route(src, sink))
        neighbors = set()
        for node in on_path:
            neighbors.update(self._neighbors[node])
        path_neighbors = frozenset(neighbors - on_path)
        bystanders = frozenset(
            set(self.nodes()) - on_path - path_neighbors
        )
        return on_path, path_neighbors, bystanders

    def __repr__(self) -> str:
        return (
            f"Topology({self.name}: {self.node_count} nodes,"
            f" {len(self.edges)} edges)"
        )

"""The realistic medium: registry, routing, loss/jitter determinism,
egress queues, and the symmetry predicate the reducer relies on."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.net import (
    IdealMedium,
    RealisticMedium,
    Topology,
    available_media,
    make_medium,
    register_medium,
)
from repro.net import realistic
from repro.net.medium import _MEDIA
from repro.vm.state import FrozenMap

from ..conftest import budget
from .graphs import reference_graph, topologies


class _Sender:
    """Minimal stand-in for an ExecutionState on the sender side."""

    def __init__(self, node, clock=0, history=()):
        self.node = node
        self.clock = clock
        self.history = list(history)
        self.link_busy = FrozenMap()


class TestRegistry:
    def test_builtins_registered(self):
        assert available_media() == ("ideal", "realistic")

    def test_make_medium_ideal(self):
        medium = make_medium("ideal", Topology.line(3), latency_ms=4)
        assert isinstance(medium, IdealMedium)
        assert medium.delivery_time(10) == 14

    def test_make_medium_realistic(self):
        medium = make_medium("realistic", Topology.ring(4), loss=0.1, seed=3)
        assert isinstance(medium, RealisticMedium)
        assert medium.loss == 0.1

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="realistic"):
            make_medium("carrier-pigeon", Topology.line(2))

    def test_register_custom_medium(self):
        class Custom(IdealMedium):
            name = "custom"

        register_medium("custom", Custom)
        try:
            medium = make_medium("custom", Topology.line(2))
            assert isinstance(medium, Custom)
            assert "custom" in available_media()
        finally:
            del _MEDIA["custom"]


class TestRouting:
    def test_ring_routes_multi_hop(self):
        medium = RealisticMedium(Topology.ring(6))
        assert medium.route(0, 3) in ([0, 1, 2, 3], [0, 5, 4, 3])

    def test_tie_break_is_lowest_id(self):
        # On a 4-ring both directions from 0 to 2 cost 2 hops; the
        # lowest-id parent must win deterministically.
        medium = RealisticMedium(Topology.ring(4))
        assert medium.route(0, 2) == [0, 1, 2]

    def test_star_routes_through_hub(self):
        medium = RealisticMedium(Topology.star(5))
        path = medium.route(1, 2)
        assert path is not None and path[1] == 0  # hub is node 0

    def test_fat_tree_leaf_to_leaf(self):
        topology = Topology.fat_tree(pods=2, leaf_fanout=2)
        medium = RealisticMedium(topology)
        leaves = [n for n in topology.nodes() if n >= 4]
        path = medium.route(leaves[0], leaves[-1])
        assert path is not None
        assert len(path) >= 3  # up through an aggregation at least

    @settings(max_examples=budget(100), deadline=None)
    @given(topologies())
    def test_route_is_the_lowest_id_shortest_path(self, topology):
        """Every route is a shortest path (networkx BFS distances) whose
        each hop is the lowest-id neighbour one hop closer; unreachable
        and out-of-range destinations route nowhere."""
        graph = reference_graph(topology)
        medium = RealisticMedium(topology)
        for dest in range(-1, topology.node_count + 1):
            distance = (
                nx.single_source_shortest_path_length(graph, dest)
                if dest in graph
                else {}
            )
            for src in topology.nodes():
                path = medium.route(src, dest)
                if src not in distance:
                    assert path is None
                    continue
                assert len(path) == distance[src] + 1
                for node, hop in zip(path, path[1:]):
                    assert hop == min(
                        n
                        for n in topology.neighbors(node)
                        if distance.get(n) == distance[node] - 1
                    )

    def test_unreachable_is_none_and_undeliverable(self):
        topology = Topology.line(2)
        medium = RealisticMedium(topology)
        assert medium.route(0, 1) == [0, 1]
        sender = _Sender(0)
        assert medium.plan_unicast(sender, 7, 1) == []
        assert medium.undeliverable.value == 1

    def test_multi_hop_delivery_time_scales_with_hops(self):
        medium = RealisticMedium(Topology.ring(6), latency_ms=2)
        sender = _Sender(0, clock=100)
        [(dest, deliver_at)] = medium.plan_unicast(sender, 3, 1)
        assert dest == 3
        assert deliver_at == 100 + 3 * 2


class TestDeterminism:
    def test_same_key_same_draw(self):
        a = RealisticMedium(Topology.ring(4), loss=0.5, seed=9)
        b = RealisticMedium(Topology.ring(4), loss=0.5, seed=9)
        for hop in range(8):
            assert a._lost(0, 2, 100, 3, hop) == b._lost(0, 2, 100, 3, hop)

    def test_memoized_draw_equals_a_fresh_seeded_draw(self, monkeypatch):
        monkeypatch.setattr(realistic, "DRAW_MEMO_LIMIT", 8)
        medium = RealisticMedium(Topology.ring(4), loss=0.5, seed=9)
        keys = [
            (tag, 0, 2, 100, seq, hop)
            for tag in ("loss", "jitter")
            for seq in range(2)
            for hop in range(3)
        ]
        # Misses, hits, then new keys past the bound, which empty the memo.
        for key in keys[:6] + keys[:6] + keys:
            seed = "net:9:" + ":".join(map(str, key))
            assert medium._draw(*key) == random.Random(seed).random()
            assert len(medium._draws) <= 8

    def test_different_seed_different_outcomes(self):
        draws = {
            seed: [
                RealisticMedium(
                    Topology.ring(4), loss=0.5, seed=seed
                )._lost(0, 2, 100, s, 0)
                for s in range(32)
            ]
            for seed in (1, 2)
        }
        assert draws[1] != draws[2]

    def test_jitter_within_bound(self):
        medium = RealisticMedium(Topology.ring(4), jitter_ms=5, seed=1)
        for seq in range(64):
            jitter = medium._jitter(0, 1, 50, seq, 0)
            assert 0 <= jitter <= 5

    def test_plan_is_pure_function_of_state(self):
        medium = RealisticMedium(Topology.ring(5), loss=0.3, jitter_ms=2, seed=4)
        plans = [
            medium.plan_unicast(_Sender(0, clock=10, history=[None] * 2), 2, 3)
            for _ in range(3)
        ]
        assert plans[0] == plans[1] == plans[2]


class TestQueues:
    def test_serialization_delays_back_to_back_sends(self):
        # bandwidth 1 cell/ms, 4-cell packets: each occupies the link 4ms.
        medium = RealisticMedium(
            Topology.line(2), bandwidth_cells_per_ms=1, latency_ms=1
        )
        sender = _Sender(0, clock=0)
        [(_, first)] = medium.plan_unicast(sender, 1, 4)
        [(_, second)] = medium.plan_unicast(sender, 1, 4)
        assert first == 4 + 1
        assert second == 8 + 1  # queued behind the first

    def test_queue_full_tail_drops(self):
        medium = RealisticMedium(
            Topology.line(2), bandwidth_cells_per_ms=1, queue_capacity=1
        )
        sender = _Sender(0, clock=0)
        results = [medium.plan_unicast(sender, 1, 4) for _ in range(4)]
        assert results[0] and results[1]
        assert results[2] == [] and results[3] == []
        assert medium.queue_drops.value == 2

    def test_queue_state_is_per_sender_state(self):
        medium = RealisticMedium(Topology.line(2), bandwidth_cells_per_ms=1)
        a, b = _Sender(0), _Sender(0)
        medium.plan_unicast(a, 1, 4)
        assert a.link_busy and not b.link_busy

    def test_broadcast_serializes_once(self):
        medium = RealisticMedium(
            Topology.star(4), bandwidth_cells_per_ms=2, latency_ms=1
        )
        hub = _Sender(0, clock=0)
        plans = medium.plan_broadcast(hub, 4)  # service = 2ms
        assert [t for _, t in plans] == [3, 3, 3]


class TestParameters:
    def test_loss_must_be_probability(self):
        with pytest.raises(ValueError):
            RealisticMedium(Topology.line(2), loss=1.0)
        with pytest.raises(ValueError):
            RealisticMedium(Topology.line(2), loss=-0.1)

    def test_negative_knobs_rejected(self):
        for kwargs in (
            {"latency_ms": -1},
            {"jitter_ms": -1},
            {"bandwidth_cells_per_ms": -1},
            {"queue_capacity": -1},
        ):
            with pytest.raises(ValueError):
                RealisticMedium(Topology.line(2), **kwargs)


class TestSymmetryPredicate:
    def test_plain_routed_medium_is_symmetric(self):
        assert RealisticMedium(Topology.ring(4)).node_symmetric()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 0.1},
            {"jitter_ms": 1},
            {"bandwidth_cells_per_ms": 2},
        ],
    )
    def test_asymmetric_knobs(self, kwargs):
        assert not RealisticMedium(Topology.ring(4), **kwargs).node_symmetric()


class TestFatTreeTopology:
    def test_shape(self):
        topology = Topology.fat_tree(pods=2, leaf_fanout=2)
        # 2 cores + 2 aggregations + 4 leaves
        assert topology.node_count == 8
        assert topology.name == "fat-tree-2x2"

    def test_cores_connect_all_aggregations(self):
        topology = Topology.fat_tree(pods=3, leaf_fanout=1)
        for core in (0, 1):
            for agg in range(2, 5):
                assert agg in topology.neighbors(core)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Topology.fat_tree(pods=0)
        with pytest.raises(ValueError):
            Topology.fat_tree(pods=1, leaf_fanout=0)

"""Trickle-like dissemination: protocol behaviour + SDE properties."""


from repro import build_engine
from repro.core import dscenario_fingerprints
from repro.net import Topology
from repro.workloads import dissemination_scenario, first_gossip_packet
from repro.net.packet import Packet


class TestProtocolBehaviour:
    def _versions(self, engine):
        address = engine.program.global_address("version")
        return {
            node: sorted(
                s.memory[address] for s in engine.states_of_node(node)
            )
            for node in engine.topology.nodes()
        }

    def test_dissemination_completes_without_failures(self):
        topology = Topology.line(4)
        scenario = dissemination_scenario(topology, rounds=4, drop_nodes=())
        engine = build_engine(scenario, "sds")
        engine.run()
        versions = self._versions(engine)
        assert all(values == [1] for values in versions.values())

    def test_update_propagates_hop_by_hop(self):
        topology = Topology.line(3)
        scenario = dissemination_scenario(topology, rounds=3, drop_nodes=())
        engine = build_engine(scenario, "sds")
        engine.run()
        adopted = engine.program.global_address("adopted_at")
        t1 = engine.states_of_node(1)[0].memory[adopted]
        t2 = engine.states_of_node(2)[0].memory[adopted]
        assert 0 < t1 < t2  # farther node adopts later

    def test_suppression_reduces_traffic(self):
        """With k-suppression, steady-state rounds send fewer broadcasts
        than rounds x nodes."""
        topology = Topology.full_mesh(3)
        scenario = dissemination_scenario(topology, rounds=4, drop_nodes=())
        engine = build_engine(scenario, "sds")
        engine.run()
        broadcasts = engine.medium.broadcasts_sent.value
        assert broadcasts < 4 * 3  # suppression kicked in

    def test_drop_delays_but_does_not_prevent_dissemination(self):
        """The world where node 1 drops the first update still converges
        via a later gossip round (Trickle's robustness)."""
        topology = Topology.line(3)
        scenario = dissemination_scenario(topology, rounds=4)
        engine = build_engine(scenario, "sds", check_invariants=True)
        engine.run()
        address = engine.program.global_address("version")
        final_versions = {
            s.memory[address] for s in engine.states_of_node(2)
        }
        assert 1 in final_versions  # at least one world fully converged
        # ... and in *every* explored world the farthest node converged
        # eventually (recovery through re-gossip):
        assert final_versions == {1}


class TestSDEProperties:
    def test_equivalence_across_algorithms(self):
        fingerprints = {}
        for algorithm in ("cob", "cow", "sds"):
            scenario = dissemination_scenario(
                Topology.line(3), rounds=2
            )
            engine = build_engine(scenario, algorithm, check_invariants=True)
            report = engine.run()
            assert not report.aborted
            fingerprints[algorithm] = dscenario_fingerprints(
                engine.mapper, engine.packets
            )
        assert (
            fingerprints["cob"]
            == fingerprints["cow"]
            == fingerprints["sds"]
        )

    def test_gossip_is_flooding_like(self):
        """Dissemination is one of the paper's hard cases: the SDS/COB
        ratio is worse (closer to 1) than in the routed collect workload."""
        from repro.workloads import grid_scenario

        def ratio(factory):
            states = {}
            for algorithm in ("cob", "sds"):
                engine = build_engine(factory(), algorithm)
                states[algorithm] = engine.run().total_states
            return states["sds"] / states["cob"]

        gossip = ratio(
            lambda: dissemination_scenario(Topology.full_mesh(3), rounds=2)
        )
        collect = ratio(lambda: grid_scenario(3, sim_seconds=3))
        assert gossip > collect


class TestPacketFilter:
    def test_matches_version_one_gossip(self):
        assert first_gossip_packet(Packet(0, 1, (1, 0), 0))

    def test_rejects_version_zero(self):
        assert not first_gossip_packet(Packet(0, 1, (0, 0), 0))

    def test_rejects_wrong_shape(self):
        assert not first_gossip_packet(Packet(0, 1, (1, 0, 0), 0))

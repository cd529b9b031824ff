"""Medium and packet behaviour."""

from repro.expr import var
from repro.net import IdealMedium, Packet, Topology


class TestPacket:
    def test_unique_ids(self):
        a = Packet(0, 1, (1,), 0)
        b = Packet(0, 1, (1,), 0)
        assert a.pid != b.pid
        assert a != b

    def test_equality_by_pid(self):
        a = Packet(0, 1, (1,), 0)
        assert a == a
        assert hash(a) == hash(a)

    def test_len_is_payload_cells(self):
        assert len(Packet(0, 1, (1, 2, 3), 0)) == 3

    def test_symbolic_payload_detection(self):
        concrete = Packet(0, 1, (1, 2), 0)
        symbolic = Packet(0, 1, (1, var("n0.x")), 0)
        assert not concrete.is_symbolic()
        assert symbolic.is_symbolic()

    def test_payload_tuple_immutable(self):
        packet = Packet(0, 1, [1, 2], 0)
        assert isinstance(packet.payload, tuple)

    def test_broadcast_leg_flag(self):
        leg = Packet(0, 1, (1,), 0, broadcast_id=5)
        assert "bcast-leg" in repr(leg)


class TestIdealMedium:
    def test_unicast_to_neighbor(self):
        medium = IdealMedium(Topology.line(3))
        assert medium.unicast_targets(0, 1) == [1]

    def test_unicast_out_of_range_lost(self):
        medium = IdealMedium(Topology.line(3))
        assert medium.unicast_targets(0, 2) == []
        assert medium.undeliverable.value == 1

    def test_broadcast_reaches_all_neighbors(self):
        medium = IdealMedium(Topology.grid(3))
        assert medium.broadcast_targets(4) == [1, 3, 5, 7]

    def test_latency(self):
        medium = IdealMedium(Topology.line(2), latency_ms=5)
        assert medium.delivery_time(100) == 105

    def test_zero_latency_allowed(self):
        assert IdealMedium(Topology.line(2), latency_ms=0).delivery_time(7) == 7

    def test_negative_latency_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            IdealMedium(Topology.line(2), latency_ms=-1)

    def test_stats(self):
        medium = IdealMedium(Topology.line(3))
        medium.unicast_targets(0, 1)
        medium.broadcast_targets(1)
        assert medium.unicasts_sent.value == 1
        assert medium.broadcasts_sent.value == 1
        assert medium.undeliverable.value == 0

    def test_node_symmetric(self):
        assert IdealMedium(Topology.line(3)).node_symmetric()

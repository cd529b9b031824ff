"""Tests for the III-D equal-packet analyzer, LPT scheduling, and tracing."""

from repro import Scenario, Topology, build_engine
from repro.core import (
    SDSMapper,
    analyze_equal_packets,
    partition_groups,
    projected_speedup,
    schedule_makespan,
)
from repro.core.partition import Partition
from repro.core.tracing import render_groups, render_state, render_virtual_structure
from repro.net import SymbolicPacketDrop
from repro.workloads import grid_scenario, line_scenario

from .helpers import MapperHarness


class TestEqualPacketAnalysis:
    def test_no_rivals_no_merge_groups(self):
        # One sender state, no forks: nothing to merge.
        engine = build_engine(line_scenario(2, sim_seconds=2, drop_nodes=()), "sds")
        engine.run()
        report = analyze_equal_packets(engine.states, engine.packets)
        assert report.groups == []
        assert report.savings_fraction() == 0.0

    def test_sibling_senders_with_equal_packets_detected(self):
        """A drop fork creates two sibling lineages; when both later forward
        the *same* follow-up packet at the same time, the analyzer finds the
        merge opportunity."""
        source = """
        var got;
        func on_boot() {
            if (node_id() == 2) { timer_set(0, 100); timer_set(1, 200); }
        }
        func on_timer(tid) {
            var buf[1];
            buf[0] = tid;
            uc_send(1, buf, 1);
        }
        func on_recv(src, len) {
            got = recv_byte(0);
            if (node_id() == 1) {
                var buf[1];
                buf[0] = 9;        // both lineages forward identical bytes
                uc_send(0, buf, 1);
            }
        }
        """
        scenario = Scenario(
            name="merge",
            program=source,
            topology=Topology.line(3),
            horizon_ms=1000,
            failure_factory=lambda: [
                SymbolicPacketDrop([1], packet_filter=lambda p: p.payload[0] == 0)
            ],
        )
        engine = build_engine(scenario, "sds")
        engine.run()
        report = analyze_equal_packets(engine.states, engine.packets)
        # The second packet (tid=1) is forwarded by both the received- and
        # the dropped-first-packet lineage of node 1 at the same timestamp
        # with identical payload: one merge group.
        assert len(report.groups) >= 1
        group = report.groups[0]
        assert group.mergeable_transmissions() >= 1
        assert len(group.sender_sids) >= 2
        assert 0 < report.savings_fraction() < 1

    def test_grid_scenario_has_merge_potential(self):
        engine = build_engine(grid_scenario(4, sim_seconds=4), "sds")
        engine.run()
        report = analyze_equal_packets(engine.states, engine.packets)
        # Sibling forwarders re-send equal packets on later rounds.
        assert report.mergeable_transmissions > 0
        assert repr(report)


class TestScheduling:
    def _parts(self, sizes):
        return [Partition([i], set(range(sum(sizes[:i]), sum(sizes[: i + 1]))))
                for i in range(len(sizes))]

    def test_single_core_makespan_is_total(self):
        parts = self._parts([5, 3, 2])
        assert schedule_makespan(parts, 1) == 10

    def test_enough_cores_makespan_is_largest(self):
        parts = self._parts([5, 3, 2])
        assert schedule_makespan(parts, 3) == 5
        assert schedule_makespan(parts, 10) == 5

    def test_lpt_balances(self):
        parts = self._parts([4, 3, 3, 2])
        assert schedule_makespan(parts, 2) == 6  # {4,2} {3,3}

    def test_projected_speedup(self):
        parts = self._parts([4, 4])
        assert projected_speedup(parts, 2) == 2.0
        assert projected_speedup(parts, 1) == 1.0

    def test_invalid_cores(self):
        import pytest

        with pytest.raises(ValueError):
            schedule_makespan([], 0)

    def test_engine_partitions_schedule(self):
        engine = build_engine(grid_scenario(4, sim_seconds=3), "cow")
        engine.run()
        partitions = partition_groups(engine.mapper)
        one = projected_speedup(partitions, 1)
        four = projected_speedup(partitions, 4)
        assert one == 1.0
        assert four >= 1.0


class TestTracing:
    def test_render_groups_cow(self):
        engine = build_engine(line_scenario(3, sim_seconds=3), "cow")
        engine.run()
        text = render_groups(engine.mapper)
        assert "dstate #1" in text
        assert "node 0 |" in text

    def test_render_groups_cob_labels(self):
        engine = build_engine(line_scenario(3, sim_seconds=3), "cob")
        engine.run()
        assert "dscenario #1" in render_groups(engine.mapper)

    def test_render_groups_truncates(self):
        engine = build_engine(grid_scenario(3, sim_seconds=3), "cob")
        engine.run()
        text = render_groups(engine.mapper, max_groups=2)
        assert "more" in text

    def test_render_virtual_structure(self):
        engine = build_engine(line_scenario(3, sim_seconds=3), "sds")
        engine.run()
        text = render_virtual_structure(engine.mapper)
        assert "node 0 | L1: s" in text
        assert "superposition" in text

    def test_render_virtual_structure_shows_shared_lists(self):
        harness = MapperHarness(SDSMapper(), node_count=3)
        harness.branch(harness.initial[0])
        harness.transmit(harness.initial[0], 1)  # a virtual fork
        first, second = render_virtual_structure(harness.mapper).split("dstate #2")
        bystander = f"node 2 | L3: s{harness.initial[2].sid}~"
        assert bystander in first and bystander in second

    def test_render_state(self):
        engine = build_engine(line_scenario(3, sim_seconds=3), "sds")
        engine.run()
        state = next(iter(engine.states.values()))
        text = render_state(state, engine.program.globals_layout)
        assert f"s{state.sid}" in text
        assert "node" in text

    def test_render_state_with_error(self):
        from repro.vm import ErrorKind, GuestError
        from repro.vm.state import ExecutionState, Status

        state = ExecutionState(0, 4)
        state.status = Status.ERROR
        state.error = GuestError(ErrorKind.ASSERTION, "boom", 3)
        assert "error" in render_state(state)

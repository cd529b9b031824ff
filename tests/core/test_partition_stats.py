"""Partition analysis (future-work Section VI) and stats/memory accounting."""

from repro import build_engine
from repro.core import (
    COWMapper,
    estimate_state_bytes,
    partition_groups,
    speedup_bound,
)
from repro.core import stats
from repro.core.stats import HISTORY_COST, StatsRecorder, process_rss_bytes
from repro.vm.state import ExecutionState, Status
from repro.workloads import grid_scenario

from .helpers import MapperHarness


class TestPartition:
    def test_single_dstate_single_partition(self):
        harness = MapperHarness(COWMapper(), node_count=3)
        partitions = partition_groups(harness.mapper)
        assert len(partitions) == 1
        assert partitions[0].state_count() == 3

    def test_cow_dstates_are_independent(self):
        harness = MapperHarness(COWMapper(), node_count=3)
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)  # forks a second dstate
        partitions = partition_groups(harness.mapper)
        assert len(partitions) == 2
        # COW dstates share no states: ideal speedup is total/largest.
        assert speedup_bound(partitions) > 1.0

    def test_sds_shared_states_merge_partitions(self):
        from repro.core import SDSMapper

        harness = MapperHarness(SDSMapper(), node_count=3)
        node1 = harness.initial[1]
        harness.branch(node1)
        harness.transmit(node1, 2)
        # Bystander node 0 spans both dstates -> they cannot be separated.
        partitions = partition_groups(harness.mapper)
        assert len(partitions) == 1

    def test_engine_run_partitions(self):
        engine = build_engine(grid_scenario(3, sim_seconds=2), "cow")
        engine.run()
        partitions = partition_groups(engine.mapper)
        total = sum(p.state_count() for p in partitions)
        assert total == len(engine.states)
        assert speedup_bound(partitions) >= 1.0

    def test_empty_partitions_speedup(self):
        assert speedup_bound([]) == 1.0


class TestMemoryAccounting:
    def test_estimate_grows_with_content(self):
        small = ExecutionState(0, memory_size=4)
        big = ExecutionState(0, memory_size=400)
        assert estimate_state_bytes(big) > estimate_state_bytes(small)

    def test_estimate_counts_constraints_and_history(self):
        from repro.expr import bv, eq, var

        state = ExecutionState(0, memory_size=4)
        base = estimate_state_bytes(state)
        state.add_constraint(eq(var("x"), bv(1)))
        state.record_sent(1, dest=1)
        assert estimate_state_bytes(state) > base

    def test_recorder_samples(self):
        recorder = StatsRecorder(program_instructions=100, sample_every_events=2)
        states = [ExecutionState(0, 4), ExecutionState(1, 4)]
        assert recorder.should_sample(0)
        sample = recorder.record(states, virtual_ms=10, events_executed=0, groups=1)
        assert sample.total_states == 2
        assert sample.accounted_bytes > 0
        assert not recorder.should_sample(1)
        assert recorder.should_sample(2)

    def test_recorder_peaks(self):
        recorder = StatsRecorder(program_instructions=10)
        states = [ExecutionState(0, 4)]
        recorder.record(states, 0, 0, 1)
        for _ in range(2):
            state = ExecutionState(0, 4)
            recorder.add(state)
            states.append(state)
        recorder.record(states, 1, 1, 1)
        assert recorder.peak_states() == 3

    def test_added_states_are_priced_at_the_next_sample(self):
        recorder = StatsRecorder(program_instructions=10)
        states = [ExecutionState(0, 4)]
        first = recorder.record(states, 0, 0, 1)
        child = ExecutionState(1, 4)
        recorder.add(child)
        states.append(child)
        second = recorder.record(states, 1, 1, 1)
        assert second.live_states == first.live_states + 1
        assert second.accounted_bytes == (
            first.accounted_bytes + estimate_state_bytes(child)
        )

    def test_touch_reprices_once_per_window(self):
        recorder = StatsRecorder(program_instructions=10)
        state = ExecutionState(0, 4)
        first = recorder.record([state], 0, 0, 1)
        recorder.touch(state)
        state.record_sent(1, dest=1)
        recorder.touch(state)  # already dirty: nothing is subtracted again
        state.status = Status.PRUNED
        second = recorder.record([state], 1, 1, 1)
        assert second.accounted_bytes == first.accounted_bytes + HISTORY_COST
        assert (first.live_states, second.live_states) == (1, 0)
        # Untouched since: the next sample carries the totals over.
        third = recorder.record([state], 2, 2, 1)
        assert third.accounted_bytes == second.accounted_bytes
        assert third.live_states == 0

    def test_rss_readable_on_linux(self):
        assert process_rss_bytes() > 0

    def test_rss_agrees_with_vmrss(self):
        rss = process_rss_bytes()
        with open("/proc/self/status") as status:
            vmrss = next(
                int(line.split()[1]) * 1024
                for line in status
                if line.startswith("VmRSS:")
            )
        assert abs(rss - vmrss) <= 1 << 20

    def test_rss_is_zero_without_proc(self, monkeypatch):
        def unavailable(*args):
            raise FileNotFoundError(args[0])

        monkeypatch.setattr(stats.os, "open", unavailable)
        assert process_rss_bytes() == 0

    def test_image_cost_shows_as_baseline(self):
        """Figure 10's memory plots start with the bytecode-load jump; the
        accounting model reproduces it via the program-image term."""
        big_program = StatsRecorder(program_instructions=10_000)
        small_program = StatsRecorder(program_instructions=10)
        state = [ExecutionState(0, 4)]
        big = big_program.record(state, 0, 0, 1).accounted_bytes
        small = small_program.record(state, 0, 0, 1).accounted_bytes
        assert big > small


class TestReportSamples:
    def test_run_report_carries_series(self):
        scenario = grid_scenario(3, sim_seconds=2)
        scenario.sample_every_events = 1
        engine = build_engine(scenario, "sds")
        report = engine.run()
        assert len(report.samples) > 2
        # Monotone non-decreasing state counts over the run.
        totals = [s.total_states for s in report.samples]
        assert totals == sorted(totals)
        assert report.peak_states() == totals[-1]
        assert report.peak_accounted_bytes() >= report.samples[0].accounted_bytes

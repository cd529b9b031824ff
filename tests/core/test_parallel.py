"""Sequential-vs-parallel equivalence under a fixed cut, and the substrate.

The contract of :class:`repro.core.distributed.DistributedRunner` with a
fixed event-count cut (``partition_depth``) and stealing off: the merged
report is *identical* to the sequential run's — same state census, same
error states, same dscenario/dstate count — for any worker count.  These tests pin that down on the paper's 5x5 grid under COW and
SDS, plus the substrate pieces (pickling interned expressions,
snapshotting mappers, LPT assignment) in isolation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.distributed import (
    DistributedRunner,
    _run_job_inline,
    snapshot_assignment_tasks,
)
from repro.core.partition import (
    Partition,
    lpt_assign,
    partition_groups,
    schedule_makespan,
)
from repro.core.scenario import Scenario, build_engine
from repro.net import Topology
from repro.workloads import grid_scenario

#: Events the 5x5 grid (10 s) runs before virtual time 3000 ms.
GRID5_PREFIX_EVENTS = {"cow": 281, "sds": 196}


def _error_signature(report):
    """Order-free identity of a report's error states (sids differ)."""
    signatures = [
        (s.node, s.error.kind, s.error.message, s.error.line, s.error.code, s.clock)
        for s in report.error_states
    ]
    return sorted(signatures)


@pytest.fixture(scope="module")
def sequential_baseline():
    cache = {}

    def get(algorithm, scenario_factory=lambda: grid_scenario(5, sim_seconds=10)):
        key = (algorithm, scenario_factory)
        if key not in cache:
            engine = build_engine(scenario_factory(), algorithm)
            report = engine.run()
            cache[key] = (report, engine.state_census())
        return cache[key]

    return get


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("algorithm", ["cow", "sds"])
    def test_grid5_matches_sequential(
        self, sequential_baseline, algorithm, workers
    ):
        report, census = sequential_baseline(algorithm)
        parallel = DistributedRunner(
            grid_scenario(5, sim_seconds=10),
            algorithm,
            workers=workers,
            partition_depth=GRID5_PREFIX_EVENTS[algorithm],
            steal=False,
        ).run()
        assert parallel.prefix_events == GRID5_PREFIX_EVENTS[algorithm]
        assert parallel.total_states == report.total_states
        assert parallel.group_count == report.group_count
        assert parallel.state_census() == census
        assert _error_signature(parallel) == _error_signature(report)
        assert parallel.events_executed == report.events_executed
        assert parallel.instructions == report.instructions
        assert parallel.mapping_stats == report.mapping_stats
        assert parallel.accounted_bytes == report.accounted_bytes
        assert not parallel.aborted

    def test_error_states_merge_exactly(self, sequential_baseline):
        # A 1->0 chain asserting on symbolic data under symbolic drops:
        # some partitions end in error states, and the merged report must
        # carry every one of them exactly once.
        def scenario():
            from repro.net.failures import SymbolicPacketDrop

            source = """
            var seen;
            func on_boot() {
                if (node_id() == 2) { timer_set(0, 50); }
            }
            func on_timer(tid) {
                var buf[1];
                buf[0] = symbolic("data", 8);
                uc_send(node_id() - 1, buf, 1);
            }
            func on_recv(src, len) {
                seen = recv_byte(0);
                assert(seen != 13, 99);
                if (node_id() > 0) {
                    var buf[1];
                    buf[0] = seen;
                    uc_send(node_id() - 1, buf, 1);
                }
            }
            """
            return Scenario(
                name="assert-chain",
                program=source,
                topology=Topology.line(3),
                horizon_ms=400,
                failure_factory=lambda: [SymbolicPacketDrop([0, 1])],
            )

        engine = build_engine(scenario(), "sds")
        report = engine.run()
        assert report.error_states, "scenario must produce error states"
        for workers in (1, 2):
            parallel = DistributedRunner(
                scenario(), "sds", workers=workers, partition_depth=20, steal=False
            ).run()
            assert _error_signature(parallel) == _error_signature(report)
            assert parallel.total_states == report.total_states
            assert parallel.state_census() == engine.state_census()

    def test_cob_also_matches(self, sequential_baseline):
        # COB partitions are single dscenarios — the embarrassingly
        # parallel case; one worker count suffices as a smoke check.
        factory = lambda: grid_scenario(3, sim_seconds=10)  # noqa: E731
        engine = build_engine(factory(), "cob")
        report = engine.run()
        parallel = DistributedRunner(
            factory(), "cob", workers=2, partition_depth=257, steal=False
        ).run()
        assert parallel.total_states == report.total_states
        assert parallel.group_count == report.group_count
        assert parallel.state_census() == engine.state_census()

    def test_run_finishing_before_split_degenerates_cleanly(self):
        parallel = DistributedRunner(
            grid_scenario(3, sim_seconds=2),
            "sds",
            workers=4,
            partition_depth=10**6,
            steal=False,
        ).run()
        engine = build_engine(grid_scenario(3, sim_seconds=2), "sds")
        report = engine.run()
        assert parallel.total_states == report.total_states
        assert parallel.group_count == report.group_count
        assert parallel.workers == 4
        assert parallel.partition_count == 0

    def test_report_to_dict_accepts_parallel_report(self):
        from repro.core.reporting import report_to_dict

        parallel = DistributedRunner(
            grid_scenario(3, sim_seconds=4),
            "cow",
            workers=2,
            partition_depth=9,
            steal=False,
        ).run()
        data = report_to_dict(parallel)
        assert data["total_states"] == parallel.total_states
        assert data["group_count"] == parallel.group_count
        assert data["series"][-1]["states"] == parallel.total_states
        assert data["metrics"]["counters"]["parallel.workers"] == 2
        assert "merge" in data["phases"]

    @pytest.mark.parametrize("algorithm", ["cow", "sds"])
    def test_grid5_trace_multiset_matches_sequential(self, algorithm):
        # The event-level form of the equivalence above: the canonical
        # multiset of traced semantic events is identical between the
        # sequential run and a 2-worker run (modulo volatile id fields).
        from repro.obs import TraceEmitter, diff_traces

        sequential = TraceEmitter()
        build_engine(
            grid_scenario(5, sim_seconds=10), algorithm, trace=sequential
        ).run()
        parallel = TraceEmitter()
        DistributedRunner(
            grid_scenario(5, sim_seconds=10),
            algorithm,
            workers=2,
            partition_depth=GRID5_PREFIX_EVENTS[algorithm],
            steal=False,
            trace=parallel,
        ).run()
        diff = diff_traces(sequential.events, parallel.events)
        assert diff.equal, diff.render(limit=5)


class TestPickling:
    def test_interned_expressions_rebuild_through_constructors(self):
        from repro.expr import and_, bv, eq, ite, ne, not_, ult, var

        x = var("x")
        nodes = [
            bv(7, 8),
            x,
            and_(ult(x, bv(5)), ne(x, bv(0))),
            ite(eq(x, bv(1)), bv(2), x),
            not_(eq(x, bv(3))),
        ]
        for node in nodes:
            clone = pickle.loads(pickle.dumps(node))
            # Same process => same interning table => identical object.
            assert clone is node

    def test_execution_state_round_trips(self):
        from repro.expr import bv, eq, var
        from repro.vm.state import Event, ExecutionState

        state = ExecutionState(node=3, memory_size=8)
        state.memory[2] = var("n3.x")
        state.add_constraint(eq(var("n3.x"), bv(9)))
        state.push_event(10, Event.TIMER, 0)
        state.history = (("tx", 17, 1),)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.sid == state.sid
        assert clone.config_key() == state.config_key()
        assert clone.memory[2] is state.memory[2]  # interning survives

    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_mapper_snapshot_restores_structure(self, algorithm):
        from repro.core.scenario import make_mapper

        # The events each mapper runs on the 3x3 grid before 2000 ms.
        prefix_events = {"cob": 59, "cow": 25, "sds": 21}[algorithm]
        engine = build_engine(grid_scenario(3, sim_seconds=4), algorithm)
        engine.run_until(split_events=prefix_events)
        mapper = engine.mapper
        payload = pickle.loads(
            pickle.dumps(
                mapper.snapshot_groups(range(mapper.group_count()))
            )
        )
        restored = make_mapper(algorithm)
        restored.restore_groups(payload)
        restored.bind(lambda state: None)
        assert restored.group_count() == mapper.group_count()

        def shape(m):
            return [
                {node: sorted(s.sid for s in states) for node, states in group.items()}
                for group in m.groups()
            ]

        assert shape(restored) == shape(mapper)
        restored.check_invariants()

    def test_worker_task_round_trip_executes(self):
        # Build one real job snapshot, pickle it, and run it in-process:
        # the exact path a job takes on a worker.
        engine = build_engine(grid_scenario(3, sim_seconds=6), "cow")
        engine.run_until(split_events=25)
        assignment = lpt_assign(partition_groups(engine.mapper), 2)
        snapshots = snapshot_assignment_tasks(
            engine, [bundle for bundle in assignment if bundle]
        )
        assert snapshots
        result = _run_job_inline(0, pickle.dumps(snapshots[0]))
        assert result.total_states > 0
        assert result.events_executed > 0


class TestLPTAssign:
    def _partitions(self, weights):
        return [
            Partition([i], set(range(100 * i, 100 * i + w)))
            for i, w in enumerate(weights)
        ]

    def test_assignment_covers_all_partitions_once(self):
        partitions = self._partitions([5, 3, 8, 1, 4])
        assignment = lpt_assign(partitions, 2)
        assert len(assignment) == 2
        flattened = [p for core in assignment for p in core]
        assert sorted(p.group_indices[0] for p in flattened) == [0, 1, 2, 3, 4]

    def test_heaviest_partitions_spread_first(self):
        partitions = self._partitions([8, 5, 4, 3, 1])
        assignment = lpt_assign(partitions, 2)
        loads = sorted(
            sum(p.state_count() for p in core) for core in assignment
        )
        assert loads == [10, 11]  # LPT: 8+3 vs 5+4+1 (or equivalent balance)

    def test_makespan_agrees_with_assignment(self):
        partitions = self._partitions([7, 7, 6, 5, 4, 4, 2])
        for cores in (1, 2, 3, 4):
            assignment = lpt_assign(partitions, cores)
            makespan = max(
                sum(p.state_count() for p in core) for core in assignment
            )
            assert makespan == schedule_makespan(partitions, cores)

    def test_more_cores_than_partitions_leaves_empty_cores(self):
        partitions = self._partitions([3, 2])
        assignment = lpt_assign(partitions, 4)
        assert sum(1 for core in assignment if core) == 2

    def test_deterministic(self):
        partitions = self._partitions([4, 4, 4, 2, 2])
        first = lpt_assign(partitions, 3)
        second = lpt_assign(partitions, 3)
        key = lambda a: [[p.group_indices for p in core] for core in a]  # noqa: E731
        assert key(first) == key(second)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            lpt_assign([], 0)


class TestParallelCLI:
    def _run_json(self, tmp_path, workers):
        from repro.cli import main

        path = tmp_path / f"report-w{workers}.json"
        code = main(
            [
                "run",
                "grid:3",
                "--algorithm",
                "cow",
                "--workers",
                str(workers),
                "--partition-depth",
                "80",
                "--no-steal",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        import json

        return json.loads(path.read_text())

    def test_cli_workers_merge_is_worker_count_independent(self, tmp_path, capsys):
        one = self._run_json(tmp_path, 1)
        two = self._run_json(tmp_path, 2)
        for key in (
            "total_states",
            "group_count",
            "events_executed",
            "instructions",
            "mapping_stats",
            "errors",
            "accounted_bytes",
        ):
            assert one[key] == two[key], key
        out = capsys.readouterr().out
        assert "(projected speedup x" in out

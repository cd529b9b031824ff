"""Trace determinism: repeated runs and any worker count produce the
same canonical event multiset.

This is the observable form of the parallel-equivalence guarantee: the
*semantic* events of a run (forks, sends, deliveries, mapper copies,
solver queries) do not depend on scheduling host, worker count, or cache
state — only volatile bookkeeping fields (ids, seq, worker, cache
outcomes) may differ, and the canonical multiset drops exactly those.
"""

import pytest

from benchmarks.ladder.workloads import SYMBOLIC_FLOOD
from repro import build_engine
from repro.api import Scenario, Topology
from repro.cli import main
from repro.core import engine as engine_module
from repro.core.distributed import DistributedRunner
from repro.obs import TraceEmitter, diff_traces, validate_trace
from repro.vm import Executor
from repro.workloads import flood_scenario, grid_scenario

#: Events COW runs on the 3x3 grid before virtual time 2000 ms.
PREFIX_EVENTS = 25


def _traced_sequential(scenario, algorithm):
    trace = TraceEmitter()
    build_engine(scenario, algorithm, trace=trace).run()
    return trace.events


class TestRepeatedRuns:
    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_back_to_back_runs_are_identical(self, algorithm):
        first = _traced_sequential(flood_scenario(3, rounds=2), algorithm)
        second = _traced_sequential(flood_scenario(3, rounds=2), algorithm)
        diff = diff_traces(first, second)
        assert diff.equal, diff.render()

    def test_grid_scenario_also_identical(self):
        first = _traced_sequential(grid_scenario(3, sim_seconds=4), "sds")
        second = _traced_sequential(grid_scenario(3, sim_seconds=4), "sds")
        assert diff_traces(first, second).equal


class TestWorkerCountIndependence:
    @pytest.fixture(scope="class")
    def sequential_events(self):
        return _traced_sequential(grid_scenario(3, sim_seconds=6), "cow")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_multiset_equals_sequential(
        self, sequential_events, workers
    ):
        trace = TraceEmitter()
        report = DistributedRunner(
            grid_scenario(3, sim_seconds=6),
            "cow",
            workers=workers,
            partition_depth=PREFIX_EVENTS,
            steal=False,
            trace=trace,
        ).run()
        assert not report.aborted
        assert validate_trace(trace.events) == []
        diff = diff_traces(sequential_events, trace.events)
        assert diff.equal, diff.render(limit=5)

    def test_parallel_trace_carries_worker_meta_events(self):
        trace = TraceEmitter()
        DistributedRunner(
            grid_scenario(3, sim_seconds=6),
            "cow",
            workers=2,
            partition_depth=PREFIX_EVENTS,
            steal=False,
            trace=trace,
        ).run()
        kinds = {event["ev"] for event in trace.events}
        assert "worker.partition.start" in kinds
        assert "worker.merge" in kinds
        workers_seen = {
            event["worker"] for event in trace.events if "worker" in event
        }
        assert len(workers_seen) >= 2


class _Interpreting(Executor):
    """An executor that never summarizes: the reference run."""

    def _lookup(self, state, func_name, args):
        return None, None


class TestSummaryReplays:
    def test_replays_emit_the_interpreted_solver_queries(self, monkeypatch):
        """A summary replay asks the solver nothing, yet its trace holds
        each recorded decision's two ``solver.query`` events where
        interpretation has them: equal in number, order and fields."""
        scenario = Scenario(
            name="symbolic-flood-line3",
            program=SYMBOLIC_FLOOD,
            topology=Topology.line(3),
            horizon_ms=200,
        )
        queries, hits = {}, {}
        for kind in (Executor, _Interpreting):
            monkeypatch.setattr(engine_module, "Executor", kind)
            trace = TraceEmitter()
            engine = build_engine(scenario, "sds", trace=trace)
            engine.run()
            queries[kind] = [
                (event["conjuncts"], event["result"])
                for event in trace.events
                if event["ev"] == "solver.query"
            ]
            hits[kind] = engine.executor.summary_hits
        assert hits[Executor] > 0
        assert len(queries[Executor]) == engine.solver.queries.value
        assert queries[Executor] == queries[_Interpreting]


class TestMetricsDeterminism:
    def test_deterministic_counters_are_worker_count_independent(self):
        reports = {}
        for workers in (1, 2):
            reports[workers] = DistributedRunner(
                grid_scenario(3, sim_seconds=6),
                "cow",
                workers=workers,
                partition_depth=PREFIX_EVENTS,
                steal=False,
            ).run()
        # Cache hit/miss ratios, backend-solve counts, model shortcuts and
        # simplifier work all legitimately shift with partitioning (they
        # depend on per-process memo/cache state); every other counter
        # must match exactly, the phase timers' entry counts included
        # (backend searches, phase.solve.search, are volatile too).
        volatile = {
            "solver.cache.",
            "solver.backend.",
            "solver.shortcuts.",
            "solver.simplify.",
            "phase.solve.search.",
        }
        # The job count is one job per worker bundle, so like the worker
        # count itself it follows the worker count by construction.
        for name, value in reports[1].metrics["counters"].items():
            if name in ("parallel.workers", "distributed.jobs") or any(
                name.startswith(prefix) for prefix in volatile
            ):
                continue
            assert reports[2].metrics["counters"][name] == value, name


class TestCLIRoundTrip:
    def test_trace_out_diff_and_check_metrics(self, tmp_path, capsys):
        sequential = tmp_path / "seq.jsonl"
        parallel = tmp_path / "par.jsonl"
        metrics = tmp_path / "metrics.json"
        base = ["run", "flood:3", "--sim-seconds", "2"]
        assert main(base + ["--trace-out", str(sequential), "--metrics-out", str(metrics)]) == 0
        assert main(base + ["--workers", "2", "--trace-out", str(parallel)]) == 0
        assert main(["trace", "summary", str(sequential)]) == 0
        assert main(["trace", "diff", str(sequential), str(parallel)]) == 0
        assert main(["trace", "check-metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "semantically identical" in out
        assert "metrics OK" in out

    def test_trace_diff_detects_difference(self, tmp_path):
        small = tmp_path / "small.jsonl"
        large = tmp_path / "large.jsonl"
        assert main(["run", "flood:3", "--sim-seconds", "1", "--trace-out", str(small)]) == 0
        assert main(["run", "flood:3", "--sim-seconds", "3", "--trace-out", str(large)]) == 0
        assert main(["trace", "diff", str(small), str(large)]) == 1

    def test_check_metrics_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 999}')
        assert main(["trace", "check-metrics", str(bad)]) == 1

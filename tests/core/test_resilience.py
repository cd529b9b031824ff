"""Fault tolerance: supervision, retry, checkpoint/resume, cap aborts.

The contracts pinned here (see docs/RESILIENCE.md):

1. A worker SIGKILL'd mid-partition must *never* hang the run — the old
   blocking ``queue.get()`` drain did exactly that.  The coordinator
   detects the death, retries the job, and a chaos-killed parallel run
   finishes with results identical to an unfaulted sequential run (the
   coordinator's own protocol tests live in test_distributed.py).
2. Partitions that exhaust their retries surface as typed
   :class:`WorkerFailure` records — raised with the original worker
   traceback chained, or reported in ``failed_partitions`` under
   ``allow_partial``.
3. A resumed checkpoint yields a report equal to an uninterrupted run's
   on every deterministic field, and corrupt/truncated/foreign
   checkpoint files are rejected loudly at load.
4. Cap aborts (state / memory / wall-clock) produce a well-formed
   partial report, and a checkpoint taken before the abort resumes
   cleanly past it once the cap is raised.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.distributed import DistributedRunner
from repro.core.resilience import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    RetryPolicy,
    WorkerFailure,
    chaos_kill_probability,
    chaos_kill_requested,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.core.scenario import build_engine
from repro.obs import TraceEmitter, diff_traces
from repro.workloads import flood_scenario, grid_scenario

def _error_signature(report):
    return sorted(
        (s.node, s.error.kind, s.error.message, s.error.code, s.clock)
        for s in report.error_states
    )


def _assert_reports_match(left, right):
    """Equality on every deterministic report field (sids are volatile)."""
    assert left.total_states == right.total_states
    assert left.group_count == right.group_count
    assert left.events_executed == right.events_executed
    assert left.instructions == right.instructions
    assert left.virtual_ms == right.virtual_ms
    assert left.mapping_stats == right.mapping_stats
    assert left.accounted_bytes == right.accounted_bytes
    assert left.solver_queries == right.solver_queries
    assert _error_signature(left) == _error_signature(right)


# ---------------------------------------------------------------------------
# Failure records and retry policy
# ---------------------------------------------------------------------------


class TestWorkerFailure:
    def test_pickle_round_trip(self):
        failure = WorkerFailure(
            task_index=3,
            kind="crash",
            message="died",
            exitcode=-9,
            attempts=2,
            group_indices=(1, 4),
            state_count=12,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.as_dict() == failure.as_dict()
        assert clone.group_indices == (1, 4)

    def test_as_dict_is_json_serializable(self):
        failure = WorkerFailure(task_index=0, kind="timeout", message="slow")
        data = json.loads(json.dumps(failure.as_dict()))
        assert data["kind"] == "timeout"
        assert data["task_index"] == 0

    def test_describe_names_the_partition(self):
        failure = WorkerFailure(
            task_index=7, kind="exception", message="x", exc_type="KeyError"
        )
        text = failure.describe()
        assert "partition 7" in text
        assert "KeyError" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFailure(task_index=0, kind="melted", message="?")


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        for task in range(3):
            for attempt in range(1, 4):
                assert a.backoff_seconds(task, attempt) == b.backoff_seconds(
                    task, attempt
                )

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.1, backoff_factor=2.0, backoff_jitter=0.25
        )
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_seconds(0, attempt)
            assert base <= delay <= base * 1.25

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().backoff_seconds(0, 0) == 0.0

    def test_seed_changes_jitter(self):
        delays = {
            RetryPolicy(seed=s).backoff_seconds(1, 2) for s in range(8)
        }
        assert len(delays) > 1

    def test_chaos_env_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True),
            ("true", True),
            ("", False),
            ("0", False),
            ("no", False),
        ):
            monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", value)
            assert chaos_kill_requested() is expected
        monkeypatch.delenv("SDE_CHAOS_KILL_WORKER")
        assert chaos_kill_requested() is False

    def test_chaos_probability_parsing(self, monkeypatch):
        for value, expected in (
            ("", 0.0),
            ("0", 0.0),
            ("false", 0.0),
            ("no", 0.0),
            ("0.0", 0.0),
            ("0.3", 0.3),
            ("1", 1.0),
            ("1.0", 1.0),
            ("2.5", 1.0),  # clamped
            ("-0.5", 0.0),  # clamped
            ("yes", 1.0),  # plain-truthy string keeps the legacy meaning
            ("banana", 1.0),
        ):
            monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", value)
            assert chaos_kill_probability() == expected
        monkeypatch.delenv("SDE_CHAOS_KILL_WORKER")
        assert chaos_kill_probability() == 0.0

    def test_chaos_truthy_kills_only_first_attempt(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "yes")
        assert chaos_kill_requested(0, token="t") is True
        assert chaos_kill_requested(1, token="t") is False
        assert chaos_kill_requested(2, token="t") is False

    def test_chaos_fractional_is_a_seeded_per_attempt_coin(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "0.3")
        verdicts = [
            chaos_kill_requested(attempt, token=f"job{job}")
            for job in range(40)
            for attempt in range(3)
        ]
        # Deterministic: the same (token, attempt) grid re-decides
        # identically on a rerun.
        rerun = [
            chaos_kill_requested(attempt, token=f"job{job}")
            for job in range(40)
            for attempt in range(3)
        ]
        assert verdicts == rerun
        # Fractional: neither all-kill nor no-kill, and roughly the asked
        # probability (wide tolerance — this is a seeded coin, not a
        # statistics test).
        rate = sum(verdicts) / len(verdicts)
        assert 0.1 < rate < 0.5
        # Attempts are independent coins: some first attempts survive and
        # some retries die, unlike the all-or-nothing form.
        first = [chaos_kill_requested(0, token=f"job{j}") for j in range(40)]
        later = [chaos_kill_requested(1, token=f"job{j}") for j in range(40)]
        assert any(first) and not all(first)
        assert any(later) and not all(later)

    def test_chaos_fractional_zero_and_one_edges(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "0.0")
        assert not any(
            chaos_kill_requested(a, token=f"j{j}")
            for j in range(10)
            for a in range(3)
        )
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1.0")
        assert all(chaos_kill_requested(0, token=f"j{j}") for j in range(10))
        assert not any(chaos_kill_requested(1, token=f"j{j}") for j in range(10))


# ---------------------------------------------------------------------------
# End-to-end fault injection (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestChaosEquivalence:
    def test_killed_workers_recover_to_sequential_results(self, monkeypatch):
        # Every worker's first attempt dies via SDE_CHAOS_KILL_WORKER;
        # retries complete the run and the merged report + trace multiset
        # must equal the unfaulted sequential run's.
        sequential_trace = TraceEmitter()
        sequential_engine = build_engine(
            flood_scenario(4, rounds=6), "sds", trace=sequential_trace
        )
        sequential = sequential_engine.run()

        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        parallel_trace = TraceEmitter()
        parallel = DistributedRunner(
            flood_scenario(4, rounds=6),
            "sds",
            workers=2,
            partition_depth=1091,  # the events run before 30% of the horizon
            steal=False,
            trace=parallel_trace,
            retry_policy=RetryPolicy(backoff_base_seconds=0.001),
        ).run()

        assert parallel.retries >= 2  # both workers were killed once
        assert not parallel.partial
        _assert_reports_match(parallel, sequential)
        assert parallel.state_census() == sequential_engine.state_census()
        diff = diff_traces(sequential_trace.events, parallel_trace.events)
        assert diff.equal, diff.render(limit=5)
        # The faults themselves are visible in the (meta) trace.
        crashes = [
            e for e in parallel_trace.events if e["ev"] == "worker.crash"
        ]
        assert len(crashes) >= 2
        assert parallel.metrics["counters"]["parallel.retries"] == (
            parallel.retries
        )


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def _scenario():
    return grid_scenario(3, sim_seconds=6)


#: Events SDS runs on :func:`_scenario` before virtual time 3000 ms.
SDS_PREFIX_EVENTS = 68


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        baseline_engine = build_engine(_scenario(), "sds")
        baseline = baseline_engine.run()

        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        header = save_checkpoint(engine, path)
        assert header["events_executed"] == engine.events_executed
        del engine

        resumed = resume_engine(path)
        report = resumed.run()
        assert report.resumed
        _assert_reports_match(report, baseline)
        assert resumed.state_census() == baseline_engine.state_census()

    def test_resume_keeps_phase_counts(self, tmp_path):
        """The phase timers ride in the checkpoint's registry snapshot, so
        the resumed report counts every phase entry of the whole run."""
        baseline = build_engine(_scenario(), "sds").run()
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        del engine
        report = resume_engine(path).run()
        for name in ("phase.execute.count", "phase.map.count"):
            assert report.metrics["counters"][name] > 0
            assert (
                report.metrics["counters"][name]
                == baseline.metrics["counters"][name]
            )

    def test_pickled_sds_snapshot_of_shared_lists_resumes(self):
        """A mid-run SDS snapshot of a 4x4 grid where any packet may drop:
        many dstates share member lists, and the snapshot pickles without
        the lists' holders.  Restored, it resumes to the uninterrupted
        report."""
        from repro.core.snapshot import EngineSnapshot

        def scenario():
            return grid_scenario(4, sim_seconds=5, drop_any_packet=True)

        baseline_engine = build_engine(scenario(), "sds")
        baseline = baseline_engine.run()
        engine = build_engine(scenario(), "sds")
        engine.run_until(split_events=baseline.events_executed // 2)
        shared = [
            members
            for dstate in engine.mapper.dstates()
            for members in dstate.members.values()
            if len(members.dstates) > 1
        ]
        assert len(shared) > 10
        payload = pickle.dumps(EngineSnapshot.capture(engine, with_counters=True))
        del engine
        resumed = pickle.loads(payload).restore()
        resumed.mapper.check_invariants()
        report = resumed.run()
        _assert_reports_match(report, baseline)
        assert resumed.state_census() == baseline_engine.state_census()

    @pytest.mark.parametrize("algorithm", ["cob", "cow"])
    def test_resume_matches_for_other_mappers(self, tmp_path, algorithm):
        # The events each mapper runs before 2000 ms.
        prefix_events = {"cob": 59, "cow": 25}[algorithm]
        baseline_engine = build_engine(_scenario(), algorithm)
        baseline = baseline_engine.run()
        engine = build_engine(_scenario(), algorithm)
        engine.run_until(split_events=prefix_events)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        resumed = resume_engine(path)
        report = resumed.run()
        _assert_reports_match(report, baseline)
        assert resumed.state_census() == baseline_engine.state_census()

    def test_resume_ignores_retired_config_fields(self, tmp_path, monkeypatch):
        """A checkpoint whose pickled config still carries the removed
        reference-path switches resumes to the uninterrupted report."""
        from repro.core.snapshot import EngineSnapshot

        baseline = build_engine(_scenario(), "sds").run()
        capture = EngineSnapshot.capture

        def with_retired_fields(engine, **kwargs):
            snapshot = capture(engine, **kwargs)
            object.__setattr__(snapshot.config, "solver_optimize", False)
            object.__setattr__(snapshot.config, "loop_reuse", False)
            return snapshot

        monkeypatch.setattr(
            EngineSnapshot, "capture", staticmethod(with_retired_fields)
        )
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "old.sdeckpt"
        save_checkpoint(engine, path)
        del engine
        _, snapshot = load_checkpoint(path)
        assert vars(snapshot.config)["solver_optimize"] is False

        report = resume_engine(path).run()
        assert report.resumed
        _assert_reports_match(report, baseline)

    def test_foreign_histogram_bounds_rejected(self, tmp_path, monkeypatch):
        """Counters laid out by another build fail as a CheckpointError,
        the error a service job answers by starting fresh."""
        from repro.core.snapshot import EngineSnapshot

        capture = EngineSnapshot.capture

        def with_foreign_bounds(engine, **kwargs):
            snapshot = capture(engine, **kwargs)
            histograms = snapshot.counters["registry"]["histograms"]
            histograms["solver.query.conjuncts"]["bounds"] = [1, 2, 3]
            return snapshot

        monkeypatch.setattr(
            EngineSnapshot, "capture", staticmethod(with_foreign_bounds)
        )
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "foreign.sdeckpt"
        save_checkpoint(engine, path)
        with pytest.raises(CheckpointError, match="histogram bounds"):
            resume_engine(path)

    def test_periodic_checkpointing_during_run(self, tmp_path):
        path = tmp_path / "auto.sdeckpt"
        trace = TraceEmitter()
        engine = build_engine(
            _scenario(),
            "sds",
            checkpoint_path=str(path),
            checkpoint_every_events=50,
            trace=trace,
        )
        report = engine.run()
        assert report.checkpoints_written >= 2
        assert path.exists()
        writes = [e for e in trace.events if e["ev"] == "checkpoint.write"]
        assert len(writes) == report.checkpoints_written
        # Resuming the *last* periodic checkpoint completes identically.
        resumed = resume_engine(path)
        resumed_report = resumed.run()
        _assert_reports_match(resumed_report, report)
        assert resumed.state_census() == engine.state_census()

    def test_resume_restores_trace_continuity(self, tmp_path):
        sequential_trace = TraceEmitter()
        build_engine(_scenario(), "sds", trace=sequential_trace).run()

        first_trace = TraceEmitter()
        engine = build_engine(_scenario(), "sds", trace=first_trace)
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)

        resumed_trace = TraceEmitter()
        resumed = resume_engine(path, trace=resumed_trace)
        resumed.run()
        # The checkpoint carried the pre-split events, so the resumed
        # trace is the *complete* run's trace, not just the tail.
        diff = diff_traces(sequential_trace.events, resumed_trace.events)
        assert diff.equal, diff.render(limit=5)
        assert any(
            e["ev"] == "checkpoint.resume" for e in resumed_trace.events
        )

    def test_resume_report_flags_and_json(self, tmp_path):
        from repro.core.reporting import report_to_dict

        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        report = resume_engine(path).run()
        data = report_to_dict(report)
        assert data["resumed"] is True
        assert data["partial"] is False
        assert report.metrics["gauges"]["run.resumed"] == 1

    def test_header_is_readable_without_unpickling(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        with open(path, "rb") as handle:
            magic = handle.readline().strip()
            header = json.loads(handle.readline())
        assert magic == CHECKPOINT_MAGIC
        assert header["algorithm"] == "sds"
        assert header["events_executed"] == engine.events_executed
        assert header["total_states"] == len(engine.states)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_corrupted_body_rejected(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(b"definitely json\n{}")
        with pytest.raises(CheckpointError, match="not an SDE checkpoint"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.sdeckpt")

    @staticmethod
    def _checkpoint_claiming_version(tmp_path, version):
        """A mid-run checkpoint whose header claims ``version``."""
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_events=SDS_PREFIX_EVENTS)
        path = tmp_path / f"v{version}.sdeckpt"
        save_checkpoint(engine, path)
        magic, header_bytes, body = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_bytes)
        header["version"] = version
        path.write_bytes(
            magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + body
        )
        return path

    def test_future_version_rejected(self, tmp_path):
        path = self._checkpoint_claiming_version(tmp_path, 99)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_4_checkpoint_rejected(self, tmp_path):
        # Version 4 kept one counter dict per subsystem and no reducer
        # counters; its body cannot restore into a version-5 engine.
        path = self._checkpoint_claiming_version(tmp_path, 4)
        with pytest.raises(CheckpointError, match="version 4 is not supported"):
            load_checkpoint(path)

    def test_version_6_checkpoint_rejected(self, tmp_path):
        # Version 6 carried the phase timings as a "phases" entry beside
        # the registry snapshot; version 7 keeps them as registry timers.
        path = self._checkpoint_claiming_version(tmp_path, 6)
        with pytest.raises(CheckpointError, match="version 6 is not supported"):
            load_checkpoint(path)

    def test_version_7_checkpoint_rejected(self, tmp_path):
        # Version 7 pickled one SDS virtual state per (state, dstate) and a
        # per-state virtual list; version 8 ships the dstates alone, with
        # member lists shared between them.
        path = self._checkpoint_claiming_version(tmp_path, 7)
        with pytest.raises(CheckpointError, match="version 7 is not supported"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# Cap aborts (state / memory / wall-clock)
# ---------------------------------------------------------------------------


class TestCapAborts:
    def _abort_report(self, **caps):
        engine = build_engine(
            grid_scenario(3, sim_seconds=10),
            "sds",
            sample_every_events=1,
            **caps,
        )
        return engine.run(), engine

    def test_state_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_states=10)
        assert report.aborted
        assert "state cap exceeded" in report.abort_reason
        assert report.total_states > 10  # the sample that tripped the cap
        assert report.metrics["gauges"]["run.aborted"] == 1

    def test_memory_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_accounted_bytes=1)
        assert report.aborted
        assert "memory cap exceeded" in report.abort_reason
        assert report.metrics["gauges"]["run.aborted"] == 1

    def test_wall_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_wall_seconds=1e-9)
        assert report.aborted
        assert "wall-clock cap exceeded" in report.abort_reason

    def test_aborted_report_serializes_cleanly(self, tmp_path):
        from repro.core.reporting import load_report_dict, save_report
        from repro.obs import validate_metrics

        report, _ = self._abort_report(max_states=10)
        assert validate_metrics(report.metrics) == []
        path = tmp_path / "aborted.json"
        save_report(report, path)
        data = load_report_dict(path)
        assert data["aborted"] is True
        assert "state cap" in data["abort_reason"]
        assert data["metrics"]["gauges"]["run.aborted"] == 1

    def test_unaborted_run_reports_zero_gauge(self):
        report = build_engine(grid_scenario(3, sim_seconds=4), "sds").run()
        assert report.metrics["gauges"]["run.aborted"] == 0

    def test_checkpoint_before_abort_resumes_past_the_cap(self, tmp_path):
        # Table I's workflow: a capped run aborts, but the last checkpoint
        # lets the operator raise the cap and continue instead of
        # restarting from scratch.
        baseline_engine = build_engine(grid_scenario(3, sim_seconds=6), "sds")
        baseline = baseline_engine.run()

        path = tmp_path / "pre-abort.sdeckpt"
        engine = build_engine(
            grid_scenario(3, sim_seconds=6),
            "sds",
            sample_every_events=1,
            max_states=20,
            checkpoint_path=str(path),
            checkpoint_every_events=5,
        )
        capped = engine.run()
        assert capped.aborted
        assert path.exists()

        header, _ = load_checkpoint(path)
        assert header["total_states"] <= 20  # written before the abort

        resumed = resume_engine(path, max_states=None, sample_every_events=200)
        report = resumed.run()
        assert not report.aborted
        _assert_reports_match(report, baseline)
        assert resumed.state_census() == baseline_engine.state_census()

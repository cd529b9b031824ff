"""Distributed exploration: partitioner, coordinator, and steal protocol.

The contracts pinned here (see docs/DISTRIBUTED.md):

1. A distributed run — any worker count, stealing on or off, transports
   inline or multiprocess — merges to exactly the sequential run: same
   semantic counters, same state census, same canonical trace multiset.
2. Jobs are self-contained: a pickled job round-trips through bytes and
   replays its subtree in a fresh engine with no access to the
   coordinator's memory.
3. The deepening loop stops when the component graph has fractured into
   enough balanced partitions, and degrades gracefully when it cannot:
   a frontier that drains before fracturing (or an explicit cut depth
   past the end of the run) yields a sequential-prefix-only report.
4. A steal grant ships only the stolen half, in one reply, and the donor
   runs on with the rest; a donor with fewer than two live partitions
   denies; stale replies are dropped whole; killed workers retry through
   the typed failure path, and every failure record names its
   initial-cut groups.  A donor whose attempt fails after a grant is
   retried from its original payload, and the jobs stolen from it are
   cancelled, recursively (``TestUnsteal``).
5. The coordinator is the one worker supervisor: timeouts, crashes and
   worker exceptions are classified, the last attempt runs inline, and
   under ``allow_partial`` completed jobs survive another job's failure.
6. Each subprocess worker replies on its own pipe: a worker killed in
   the middle of a reply cannot block another worker's replies, and a
   reply sent just before a worker exits is read, not taken for a crash.
7. ``Coordinator.run`` sleeps until a reply, a worker's death or its next
   deadline, with no poll: a hung job times out, a killed worker is
   retried at once, and a steal denial's cooldown ends and the run goes
   on.  Each of these runs under a watchdog, so a hang fails the test.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from multiprocessing.connection import wait

import pytest

from benchmarks.ladder.workloads import SYMBOLIC_FLOOD
from repro.api import Scenario, Topology, build_engine
from repro.bench import render_series, render_table1, series_csv
from repro.bench.report import memory_label
from repro.core.distributed import (
    DistributedRunner,
    InlineTransport,
    MultiprocessTransport,
    Coordinator,
    Transport,
    _job_worker_main,
    _split_for_steal,
    deepen_until_partitioned,
    snapshot_assignment_tasks,
)
from repro.core.engine import RunReport
from repro.core.partition import steal_split
from repro.core.resilience import RetryPolicy, WorkerFailure, WorkerTaskError
from repro.obs import TraceEmitter, diff_traces, validate_trace

SYMBOLIC_PING = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    if (v > 128) { v -= 128; }
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""

FAST = RetryPolicy(
    max_retries=2,
    backoff_base_seconds=0.001,
)


def _scenario():
    """A 2-node symbolic flood: one connected SDS component that
    fractures within ~20 events — heavy enough to partition, light
    enough for tier-1."""
    return Scenario(
        name="symbolic-ping",
        program=SYMBOLIC_PING,
        topology=Topology.full_mesh(2),
        horizon_ms=150,
    )


def _sequential(trace=None):
    engine = build_engine(_scenario(), "sds", trace=trace)
    report = engine.run()
    return engine, report


def _assert_matches_sequential(report, seq_engine, seq_report):
    assert report.total_states == seq_report.total_states
    assert report.group_count == seq_report.group_count
    assert report.events_executed == seq_report.events_executed
    assert report.instructions == seq_report.instructions
    assert report.solver_queries == seq_report.solver_queries
    assert report.state_census() == seq_engine.state_census()


class TestDeepening:
    def test_connected_frontier_fractures_with_depth(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        assert len(partitions) >= 4
        assert engine.events_executed > 0
        assert not engine.aborted

    def test_drained_frontier_returns_empty(self):
        # min_partitions above what the scenario ever fractures into:
        # the probe runs the engine dry and reports what it found.
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=10_000, probe_limit_events=None
        )
        assert not engine.scheduler_snapshot()
        assert len(partitions) >= 1  # terminal components, all quiescent


class TestJobRoundTrip:
    def test_pickled_job_replays_its_subtree(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        bundle = [partitions[0]]
        snapshots = snapshot_assignment_tasks(engine, [bundle])
        payload = pickle.dumps(snapshots[0])

        restored = pickle.loads(payload).restore()
        assert len(restored.states) == partitions[0].state_count()
        restored.run()
        assert restored.events_executed > 0
        assert not restored.aborted

    def test_path_prefix_pickles(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        from repro.core.distributed import _path_prefix

        prefix = _path_prefix(engine, partitions[:2])
        clone = pickle.loads(pickle.dumps(prefix))
        assert clone.depth == engine.events_executed
        assert clone.group_indices == tuple(
            index for p in partitions[:2] for index in p.group_indices
        )
        assert clone.states == sum(p.state_count() for p in partitions[:2])
        assert clone.conjuncts == prefix.conjuncts


class TestDistributedEqualsSequential:
    def test_one_worker_uses_inline_transport(self):
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        assert report.transport_name == "InlineTransport"
        assert report.jobs_dispatched == 1
        _assert_matches_sequential(report, seq_engine, seq_report)

    @pytest.mark.parametrize("steal", [False, True])
    def test_multiprocess_workers_match(self, steal):
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(),
            "sds",
            workers=3,
            min_partitions=4,
            probe_events=2,
            steal=steal,
            retry_policy=FAST,
        ).run()
        _assert_matches_sequential(report, seq_engine, seq_report)
        assert report.jobs_dispatched >= 2

    def test_trace_multiset_equals_sequential(self):
        seq_trace = TraceEmitter()
        _sequential(trace=seq_trace)
        dist_trace = TraceEmitter()
        report = DistributedRunner(
            _scenario(),
            "sds",
            workers=2,
            probe_events=2,
            trace=dist_trace,
            retry_policy=FAST,
        ).run()
        assert not report.aborted
        assert validate_trace(dist_trace.events) == []
        diff = diff_traces(seq_trace.events, dist_trace.events)
        assert diff.equal, diff.render(limit=5)
        kinds = {event["ev"] for event in dist_trace.events}
        assert "worker.partition.start" in kinds
        assert "worker.job.dispatch" in kinds
        assert "worker.merge" in kinds

    def test_explicit_cut_depth_past_run_end(self):
        # The whole run happens in the "prefix": no jobs, no transport
        # work, and the report is exactly the sequential one.
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=4, partition_depth=10**6
        ).run()
        assert report.jobs_dispatched == 0
        assert report.partition_count == 0
        _assert_matches_sequential(report, seq_engine, seq_report)

    def test_distributed_metrics_counters_present(self):
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        counters = report.metrics["counters"]
        assert counters["distributed.jobs"] == 1
        assert counters["distributed.partition_depth"] == report.prefix_events
        assert "distributed.steals.granted" in counters


def _summary_line(summary, label):
    [line] = [line for line in summary.splitlines() if line.startswith(label)]
    return line


class TestReportRendering:
    """A distributed report renders like the sequential one, plus its
    own lines (README.md and docs/DISTRIBUTED.md print ``summary()``)."""

    def test_inline_summary_extends_the_sequential_summary(self):
        _, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        assert isinstance(report, RunReport)
        summary = report.summary()
        for label in (
            "  workers          : 1",
            "  partitions       : ",
            "  jobs dispatched  : 1 (InlineTransport transport)",
            "  steals           : 0 granted",
        ):
            assert _summary_line(summary, label)
        assert _summary_line(
            summary, f"  split point      : {report.prefix_events} events"
        )
        assert "PARTIAL" not in summary
        for label in (
            "  states (total)",
            "  dscenarios/dstates",
            "  events executed",
            "  instructions",
            "  solver queries",
        ):
            assert _summary_line(summary, label) == _summary_line(
                seq_report.summary(), label
            )

    def test_partial_summary_names_the_failed_partitions(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        report = DistributedRunner(
            _scenario(),
            "sds",
            workers=2,
            partition_depth=10,
            steal=False,
            retry_policy=policy,
        ).run()
        assert report.partial
        lines = report.summary().splitlines()
        failed = len(report.failed_partitions)
        assert f"  PARTIAL: {failed} partition(s) failed after retries" in lines
        described = [line for line in lines if line.startswith("    - ")]
        assert described == [
            f"    - {failure.describe()}" for failure in report.failed_partitions
        ]

    def test_bench_renderers_take_a_distributed_report(self):
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        table = render_table1([report], "t")
        assert "Super DStates (SDS)" in table
        assert f"{report.total_states:>10,}" in table
        assert memory_label(report.peak_accounted_bytes()) in table
        series = render_series([report], "states", "s")
        assert f"final={report.total_states:,} states" in series
        buffer = io.StringIO()
        series_csv([report], buffer)
        rows = buffer.getvalue().splitlines()[1:]
        assert len(rows) == len(report.samples)
        assert rows[-1].split(",")[4] == str(report.total_states)


class TestStealSplit:
    def test_single_partition_donor_denies(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        bundle = [partitions[0]]
        snapshots = snapshot_assignment_tasks(engine, [bundle])
        worker = pickle.loads(pickle.dumps(snapshots[0])).restore()
        # One partition, still runnable: nothing to split off.
        assert _split_for_steal(worker) is None

    def test_drained_donor_denies(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        snapshots = snapshot_assignment_tasks(engine, [partitions])
        worker = pickle.loads(pickle.dumps(snapshots[0])).restore()
        worker.run()  # final partition state: nothing runnable anywhere
        assert _split_for_steal(worker) is None

    def test_split_conserves_states(self):
        for algorithm in ("cob", "cow", "sds"):
            engine = build_engine(_scenario(), algorithm)
            partitions = deepen_until_partitioned(
                engine, min_partitions=4, probe_events=2
            )
            snapshots = snapshot_assignment_tasks(engine, [partitions])
            worker = pickle.loads(pickle.dumps(snapshots[0])).restore()
            before = set(worker.states)
            groups = worker.mapper.group_count()
            stolen_jobs = _split_for_steal(worker)
            assert stolen_jobs is not None, algorithm
            # The donor's live engine lost exactly the states it shipped.
            stolen = [pickle.loads(payload).restore() for payload, _ in stolen_jobs]
            stolen_sids = [sid for thief in stolen for sid in thief.states]
            assert sorted(list(worker.states) + stolen_sids) == sorted(before)
            assert sum(prefix.states for _, prefix in stolen_jobs) == len(
                stolen_sids
            )
            assert worker.mapper.group_count() + sum(
                thief.mapper.group_count() for thief in stolen
            ) == groups
            worker.mapper.check_invariants()
            # Only the donor's own states stay scheduled.
            scheduled = {sid for _, sid in worker.scheduler_snapshot()}
            assert scheduled <= set(worker.states)

    def test_steal_split_balances_by_weight(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        kept, stolen = steal_split(partitions)
        assert kept and stolen
        assert len(kept) + len(stolen) == len(partitions)
        kept_w = sum(p.state_count() for p in kept)
        stolen_w = sum(p.state_count() for p in stolen)
        assert kept_w >= stolen_w  # donor keeps the heavier-or-equal half


class _Prefix:
    def __init__(self, states=1, group_indices=()):
        self.states = states
        self.group_indices = tuple(group_indices)


def _fail(worker, job_id, **fields):
    """A worker's ``fail`` reply carrying a typed exception record."""
    fields.setdefault("message", "boom")
    return (
        "fail",
        worker,
        job_id,
        WorkerFailure(task_index=job_id, kind="exception", **fields),
    )


class ScriptedTransport(Transport):
    """A deterministic two-worker transport driven by the test.

    ``send`` records outgoing messages; the script maps each send to the
    replies the fake workers produce, which ``recv`` then serves.
    """

    def __init__(self, worker_count=2):
        self._worker_count = worker_count
        self.sent = []
        self.replies = []
        self.script = []  # callables: (worker, message) -> [replies]
        self._alive = [True] * worker_count
        self.restarts = []

    @property
    def worker_count(self):
        return self._worker_count

    def start(self):
        pass

    def send(self, worker, message):
        self.sent.append((worker, message))
        if self.script:
            handler = self.script.pop(0)
            self.replies.extend(handler(worker, message))

    def recv(self, timeout):
        return self.replies.pop(0) if self.replies else None

    def alive(self, worker):
        return self._alive[worker]

    def restart(self, worker):
        self.restarts.append(worker)
        self._alive[worker] = True

    def stop(self):
        pass


class TestCoordinatorProtocol:
    def _coordinator(self, transport, jobs, **kwargs):
        return Coordinator(
            transport,
            jobs,
            policy=kwargs.pop("policy", FAST),
            steal=kwargs.pop("steal", True),
            run_inline=kwargs.pop("run_inline", None),
            **kwargs,
        )

    def test_steal_denied_during_final_partition(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(4)), (b"j1", _Prefix(4))]

        def on_dispatch_j0(worker, message):
            assert message[0] == "job"
            return []  # worker 0 keeps running

        def on_dispatch_j1(worker, message):
            return [("done", worker, message[1], f"result-{message[1]}")]

        def on_steal(worker, message):
            assert message == ("steal",)
            # Donor is down to its last live partition: deny, then finish.
            return [
                ("steal_deny", worker, 0),
                ("done", worker, 0, "result-0"),
            ]

        transport.script = [on_dispatch_j0, on_dispatch_j1, on_steal]
        coordinator = self._coordinator(transport, jobs)
        coordinator.run()
        assert coordinator.steals_requested.value == 1
        assert coordinator.steals_denied.value == 1
        assert coordinator.steals_granted.value == 0
        assert sorted(coordinator.results) == ["result-0", "result-1"]
        assert coordinator.retries == 0

    def test_steal_grant_enqueues_stolen_jobs(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(8)), (b"j1", _Prefix(2))]

        def on_dispatch_j0(worker, message):
            return []

        def on_dispatch_j1(worker, message):
            return [("done", worker, message[1], "result-1")]

        def on_steal(worker, message):
            return [
                ("steal_reply", worker, 0, [(b"stolen-half", _Prefix(3))]),
                ("done", worker, 0, "result-0"),
            ]

        def on_dispatch_stolen(worker, message):
            assert message[2] == b"stolen-half"
            return [("done", worker, message[1], "result-2")]

        transport.script = [
            on_dispatch_j0,
            on_dispatch_j1,
            on_steal,
            on_dispatch_stolen,
        ]
        coordinator = self._coordinator(transport, jobs)
        coordinator.run()
        assert coordinator.steals_granted.value == 1
        # The donor keeps its original payload: a retry re-runs the job.
        assert coordinator.payloads[0] == b"j0"
        assert coordinator.donors == {2: 0}
        # One result per job, and no partial.
        assert sorted(coordinator.results) == ["result-0", "result-1", "result-2"]

    def test_stale_steal_reply_dropped_whole(self):
        # The donor died *after* sending a steal reply that arrives after
        # its job was already requeued: accepting the stolen half would
        # double-count the replayed subtree.
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(4))]
        coordinator = self._coordinator(transport, jobs, steal=False)
        coordinator.transport.start()
        coordinator._dispatch()
        coordinator._busy.pop(0)  # presumed dead; job requeued elsewhere
        coordinator._handle(
            ("steal_reply", 0, 0, [(b"stale-stolen", _Prefix(2))]),
        )
        assert coordinator.results == []
        assert coordinator.donors == {}
        assert coordinator.steals_granted.value == 0
        assert coordinator._outstanding == 1

    def test_worker_death_retries_through_typed_failure(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(4))]

        attempts = []

        def on_dispatch(worker, message):
            attempts.append(message[3])
            if len(attempts) == 1:
                transport._alive[worker] = False  # die without reporting
                return []
            return [("done", worker, message[1], "result-0")]

        transport.script = [on_dispatch, on_dispatch]
        coordinator = self._coordinator(transport, jobs, steal=False)
        coordinator.run()
        assert attempts == [0, 1]
        assert transport.restarts == [0]
        assert coordinator.retries == 1
        assert coordinator.results == ["result-0"]

    def test_exhausted_job_raises_typed_failure(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", _Prefix(4))]

        def always_fail(worker, message):
            return [_fail(worker, message[1], exc_type="RuntimeError")]

        transport.script = [always_fail, always_fail, always_fail]

        def inline_fails(job_id, payload):
            raise RuntimeError("inline boom")

        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_fails
        )
        with pytest.raises(Exception) as excinfo:
            coordinator.run()
        assert "inline boom" in str(excinfo.value)

    def test_allow_partial_degrades_to_failed_jobs(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", _Prefix(4, group_indices=(3, 5)))]

        def always_fail(worker, message):
            return [_fail(worker, message[1])]

        transport.script = [always_fail, always_fail, always_fail]

        def inline_fails(job_id, payload):
            raise RuntimeError("inline boom")

        policy = dataclasses.replace(FAST, allow_partial=True)
        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_fails, policy=policy
        )
        coordinator.run()
        assert len(coordinator.failed) == 1
        assert coordinator.failed[0].state_count == 4
        # The record carries enough to re-run the job from the cut.
        assert coordinator.failed[0].group_indices == (3, 5)

    def test_allow_partial_reports_instead_of_raising(self):
        # Every job's worker dies unreported and no retry is left: under
        # allow_partial the run ends with one record per job, no raise.
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(9, group_indices=(3, 5))), (b"j1", _Prefix(0))]

        def die(worker, message):
            transport._alive[worker] = False
            return []

        transport.script = [die, die]
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        coordinator = self._coordinator(
            transport, jobs, steal=False, policy=policy
        )
        coordinator.run()
        assert coordinator.results == []
        assert coordinator.retries == 0
        assert sorted(f.task_index for f in coordinator.failed) == [0, 1]
        assert {f.kind for f in coordinator.failed} == {"crash"}
        by_index = {f.task_index: f for f in coordinator.failed}
        # The failure record carries enough to rerun the job.
        assert by_index[0].group_indices == (3, 5)
        assert by_index[0].state_count == 9

    def test_stolen_job_failure_names_the_donors_groups(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(8, group_indices=(0, 2))), (b"j1", _Prefix(2))]

        def on_dispatch_j0(worker, message):
            return []

        def on_dispatch_j1(worker, message):
            return [("done", worker, message[1], "result-1")]

        def on_steal(worker, message):
            return [
                (
                    "steal_reply",
                    worker,
                    0,
                    [(b"stolen-half", _Prefix(3, group_indices=(7,)))],
                ),
                ("done", worker, 0, "result-0"),
            ]

        def on_dispatch_stolen(worker, message):
            return [_fail(worker, message[1])]

        transport.script = [
            on_dispatch_j0,
            on_dispatch_j1,
            on_steal,
            on_dispatch_stolen,
        ]
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        coordinator = self._coordinator(transport, jobs, policy=policy)
        coordinator.run()
        [failure] = coordinator.failed
        assert failure.task_index == 2
        assert failure.state_count == 3
        # Group 7 is local to the donor's engine; the cut's groups are 0, 2.
        assert failure.group_indices == (0, 2)

    def test_timeout_classified_and_worker_restarted(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", _Prefix(4))]
        transport.script = [lambda worker, message: []]  # hangs
        policy = dataclasses.replace(
            FAST, max_retries=0, task_timeout_seconds=0.05, allow_partial=True
        )
        coordinator = self._coordinator(
            transport, jobs, steal=False, policy=policy
        )
        coordinator.run()
        assert transport.restarts == [0]
        assert coordinator.results == []
        [failure] = coordinator.failed
        assert failure.kind == "timeout"
        assert "wall-clock budget" in failure.message

    def test_final_attempt_runs_inline(self):
        # With max_retries=1 a crashing job gets its last chance in the
        # coordinator's own process, immune to further worker loss.
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(4)), (b"j1", _Prefix(4))]

        def die(worker, message):
            transport._alive[worker] = False
            return []

        transport.script = [die, die]
        inline_runs = []

        def inline_ok(job_id, payload):
            inline_runs.append(payload)
            return f"inline-{job_id}"

        policy = dataclasses.replace(FAST, max_retries=1)
        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_ok, policy=policy
        )
        coordinator.run()
        assert sorted(inline_runs) == [b"j0", b"j1"]
        assert sorted(coordinator.results) == ["inline-0", "inline-1"]
        assert coordinator.failed == []
        assert coordinator.retries == 2

    def test_inline_fallback_failure_is_classified(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", _Prefix(4))]

        def die(worker, message):
            transport._alive[worker] = False
            return []

        transport.script = [die]

        def inline_fails(job_id, payload):
            raise RuntimeError("inline boom")

        policy = dataclasses.replace(FAST, max_retries=1, allow_partial=True)
        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_fails, policy=policy
        )
        coordinator.run()
        assert coordinator.results == []
        [failure] = coordinator.failed
        assert failure.kind == "exception"
        assert failure.exc_type == "RuntimeError"
        assert "inline boom" in failure.message
        assert failure.attempts == 2  # one crashed worker try + the inline one

    def test_worker_exception_preserves_origin(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", _Prefix(4))]

        def raise_in_worker(worker, message):
            return [
                _fail(
                    worker,
                    message[1],
                    exc_type="ValueError",
                    traceback="Traceback (most recent call last):\n"
                    "ValueError: boom\n",
                )
            ]

        transport.script = [raise_in_worker]
        policy = dataclasses.replace(FAST, max_retries=0)
        coordinator = self._coordinator(
            transport, jobs, steal=False, policy=policy
        )
        with pytest.raises(WorkerTaskError) as excinfo:
            coordinator.run()
        failure = excinfo.value.failure
        assert failure.kind == "exception"
        assert failure.exc_type == "ValueError"
        assert "ValueError: boom" in failure.traceback
        # The worker traceback is chained for pytest/traceback display.
        assert "worker traceback" in str(excinfo.value.__cause__)

    def test_allow_partial_keeps_completed_jobs(self):
        # One healthy job + one that always fails: the healthy result must
        # survive the other job's exhaustion.
        transport = ScriptedTransport()
        jobs = [(b"j0", _Prefix(4)), (b"j1", _Prefix(4))]

        def ok(worker, message):
            return [("done", worker, message[1], "result-0")]

        def fail(worker, message):
            return [_fail(worker, message[1])]

        transport.script = [ok, fail]
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        coordinator = self._coordinator(
            transport, jobs, steal=False, policy=policy
        )
        coordinator.run()
        assert coordinator.results == ["result-0"]
        assert [f.task_index for f in coordinator.failed] == [1]


class _LazyRestartTransport(ScriptedTransport):
    """A restarted worker reads as gone until its next message, as a
    :class:`MultiprocessTransport` worker does (it forks on the send)."""

    def restart(self, worker):
        super().restart(worker)
        self._alive[worker] = False

    def send(self, worker, message):
        self._alive[worker] = True
        super().send(worker, message)


def _grant(worker, job_id, *stolen):
    """A donor's steal reply shipping ``stolen`` ``(payload, _Prefix)`` jobs."""
    return ("steal_reply", worker, job_id, list(stolen))


def _run_on(worker, message):
    """Script step: the job keeps running."""
    return []


def _finish(worker, message):
    """Script step: the job finishes at once."""
    return [("done", worker, message[1], f"result-{message[1]}")]


def _grant_from_job_0(worker, message):
    """Script step: job 0 answers a steal request with one stolen job."""
    return [_grant(worker, 0, (b"stolen", _Prefix(3)))]


@pytest.fixture
def no_steal_cooldown(monkeypatch):
    """Scripted transports answer at once, so a cooldown would only spin."""
    monkeypatch.setattr("repro.core.distributed.STEAL_RETRY_COOLDOWN_SECONDS", 0.0)


class TestUnsteal:
    """A donor's attempt that fails after a grant is retried from its
    original payload, and every job stolen from it is cancelled,
    recursively: queued ones dropped, running ones stopped, ended ones
    voided."""

    JOBS = [(b"j0", _Prefix(8, group_indices=(0, 2))), (b"j1", _Prefix(2))]

    def _coordinator(self, transport, policy=FAST):
        return Coordinator(transport, self.JOBS, policy=policy, steal=True)

    def test_thief_gets_the_steal_cooldown(self):
        from repro.core.distributed import STEAL_RETRY_COOLDOWN_SECONDS

        transport = ScriptedTransport()
        coordinator = self._coordinator(transport)
        coordinator._dispatch()
        coordinator._handle(_grant(0, 0, (b"stolen", _Prefix(2))))
        coordinator._handle(("done", 1, 1, "result-1"))
        started = time.monotonic()
        coordinator._dispatch()
        assert transport.sent[-1] == (1, ("job", 2, b"stolen", 0))
        assert coordinator._steal_cooldown[1] >= started + STEAL_RETRY_COOLDOWN_SECONDS

    def test_donor_death_voids_a_finished_stolen_job(self, no_steal_cooldown):
        transport = ScriptedTransport()

        def finish_then_donor_dies(worker, message):
            assert message[1:3] == (2, b"stolen")
            transport._alive[0] = False
            return _finish(worker, message)

        def retry_donor(worker, message):
            assert message == ("job", 0, b"j0", 1)  # the original payload
            return [("done", worker, 0, "result-0-whole")]

        transport.script = [
            _run_on,
            _finish,
            _grant_from_job_0,
            finish_then_donor_dies,
            retry_donor,
        ]
        coordinator = self._coordinator(transport)
        coordinator.run()
        assert coordinator.steals_granted.value == 1
        assert coordinator.retries == 1
        assert coordinator.failed == []
        # The stolen half ran, but the donor's retry covers it again.
        assert sorted(coordinator.results) == ["result-0-whole", "result-1"]
        assert coordinator.donors == {}

    def test_a_thief_that_donated_then_died_is_retried_alone(
        self, no_steal_cooldown
    ):
        transport = ScriptedTransport()

        def grant_and_finish(worker, message):
            # Job 0 gives job 2 away, then finishes its own part.
            return [
                _grant(worker, 0, (b"s2", _Prefix(4))),
                ("done", worker, 0, "result-0"),
            ]

        def thief_grants(worker, message):
            assert message == ("steal",) and worker == 0
            return [_grant(worker, 2, (b"s3", _Prefix(2)))]

        def finish_then_thief_dies(worker, message):
            assert message[1:3] == (3, b"s3")
            transport._alive[0] = False
            return _finish(worker, message)

        def retry_thief(worker, message):
            assert message[1:] == (2, b"s2", 1)
            return [("done", worker, 2, "result-2-whole")]

        transport.script = [
            _run_on,  # j0 on worker 0
            _finish,  # j1 on worker 1
            grant_and_finish,  # steal from job 0
            _run_on,  # job 2 on worker 0
            thief_grants,  # steal from job 2
            finish_then_thief_dies,  # job 3 on worker 1
            retry_thief,
        ]
        coordinator = self._coordinator(transport)
        coordinator.run()
        assert coordinator.steals_granted.value == 2
        assert coordinator.retries == 1
        assert coordinator.attempts[0] == 0  # the first donor is untouched
        assert sorted(coordinator.results) == [
            "result-0",
            "result-1",
            "result-2-whole",
        ]
        assert coordinator.donors == {2: 0}

    def test_an_exhausted_donor_takes_its_subtree(self, no_steal_cooldown):
        transport = _LazyRestartTransport()

        def run_on_then_donor_dies(worker, message):
            assert message[1:3] == (2, b"stolen")
            transport._alive[0] = False
            return []

        transport.script = [_run_on, _finish, _grant_from_job_0, run_on_then_donor_dies]
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        coordinator = self._coordinator(transport, policy=policy)
        coordinator.run()
        # The running stolen job was stopped, not taken for a crash: only
        # the donor failed.
        assert transport.restarts == [0, 1]
        assert coordinator.retries == 0
        assert coordinator.results == ["result-1"]
        [failure] = coordinator.failed
        assert failure.task_index == 0
        assert failure.state_count == 8
        assert failure.group_indices == (0, 2)

    def test_voided_failures_leave_the_record(self, no_steal_cooldown):
        # A stolen job exhausted under allow_partial, then its donor died:
        # the donor's retry covers the stolen half, so the run is whole.
        transport = ScriptedTransport()

        def fail_then_donor_dies(worker, message):
            transport._alive[0] = False
            return [_fail(worker, message[1])]

        def retry_donor(worker, message):
            assert message == ("job", 0, b"j0", 1)
            return [("done", worker, 0, "result-0-whole")]

        def fail(worker, message):
            return [_fail(worker, message[1])]

        transport.script = [
            _run_on,
            _finish,
            _grant_from_job_0,
            fail,  # the stolen job's first attempt
            fail_then_donor_dies,  # its last: exhausted
            retry_donor,
        ]
        policy = dataclasses.replace(FAST, max_retries=1, allow_partial=True)
        coordinator = self._coordinator(transport, policy=policy)
        coordinator.run()
        assert coordinator.attempts[2] == 2
        assert coordinator.failed == []
        assert sorted(coordinator.results) == ["result-0-whole", "result-1"]


def _exit_after_first_grant(worker, inbox, outbox, message):
    """Pool worker that exits right after sending its first steal grant."""

    class Outbox:
        def send(self, reply):
            outbox.send(reply)
            if reply[0] == "steal_reply":
                os._exit(0)

    _job_worker_main(worker, inbox, Outbox(), message)


class TestUnstealRealEngine:
    def test_donor_exits_after_each_first_grant(self):
        scenario = Scenario(
            name="symbolic-flood-line4",
            program=SYMBOLIC_FLOOD,
            topology=Topology.line(4),
            horizon_ms=300,
        )
        sequential_engine = build_engine(scenario, "sds")
        sequential = sequential_engine.run()
        report = DistributedRunner(
            scenario,
            "sds",
            workers=2,
            transport=MultiprocessTransport(2, worker_main=_exit_after_first_grant),
            retry_policy=FAST,
        ).run()
        _assert_matches_sequential(report, sequential_engine, sequential)
        assert report.accounted_bytes == sequential.accounted_bytes
        assert not report.failed_partitions
        # Every grant killed its donor, so each one cost a retry.
        assert report.retries >= report.steals_granted



def _reply_on_request(worker, inbox, outbox, message):
    """Test worker: a 16 MB reply to "big", none to "die" (it exits at
    once), a small one to anything else."""
    if message[0] == "die":
        os._exit(0)
    if message[0] == "big":
        outbox.send(b"x" * (16 << 20))  # blocks: nobody reads the pipe
    else:
        outbox.send(("small", worker))
    inbox.get()  # idle until stopped


def _mid_reply_kill_probe():
    transport = MultiprocessTransport(2, worker_main=_reply_on_request)
    transport.start()
    try:
        transport.send(0, ("big",))
        time.sleep(0.5)  # worker 0 is now stuck mid-reply on a full pipe
        transport.restart(0)  # what a task-timeout expiry does
        transport.send(1, ("small",))
        message = transport.recv(5.0)
    finally:
        transport.stop()
    os._exit(0 if message == ("small", 1) else 1)


def _reply_then_exit(worker, inbox, outbox, message):
    """Test worker: answer one job, then exit at once."""
    _, job_id, _payload, _attempt = message
    outbox.send(("done", worker, job_id, f"result-{job_id}"))
    os._exit(0)


class TestMultiprocessTransport:
    def test_worker_killed_mid_reply_does_not_block_another(self):
        # The probe runs in its own process, so a regression fails here
        # instead of hanging the suite.
        probe = multiprocessing.get_context("fork").Process(
            target=_mid_reply_kill_probe
        )
        probe.start()
        probe.join(30)
        if probe.is_alive():
            probe.kill()
            probe.join()
            pytest.fail("recv hung after a worker was killed mid-reply")
        assert probe.exitcode == 0

    def test_recv_reads_past_a_closed_pipe(self):
        transport = MultiprocessTransport(2, worker_main=_reply_on_request)
        transport.start()
        try:
            transport.send(0, ("die",))
            transport.send(1, ("small",))
            transport._processes[0].join(10)
            assert transport._replies[1].poll(10)
            # Worker 0's end-of-file comes first; worker 1's reply is read
            # in the same call, not left for a wake that may never come.
            assert transport.recv(0.0) == ("small", 1)
            assert transport.reply_fd(0) is None
            assert not transport.alive(0)
        finally:
            transport.stop()

    def test_a_reply_the_scan_finds_stays_readable(self):
        # A reply that lands between a step's last read and its scan stays
        # on an open pipe: the job service sleeps on that pipe, so a reply
        # read into a buffer there would never wake it.
        transport = MultiprocessTransport(1, worker_main=_reply_then_exit)
        coordinator = Coordinator(
            transport, [(b"j0", _Prefix(1))], policy=FAST, steal=False
        )
        transport.start()
        try:
            coordinator._dispatch()
            transport._processes[0].join(10)
            coordinator._scan_workers()
            assert coordinator.failed == [] and coordinator.retries == 0
            fd = transport.reply_fd(0)
            assert fd is not None
            assert wait([fd], 0)
            events = coordinator.step(0.0)
        finally:
            transport.stop()
        assert ("done", 0, "result-0") in events

    def test_reply_sent_just_before_exit_counts_as_done(self):
        transport = MultiprocessTransport(1, worker_main=_reply_then_exit)
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        coordinator = Coordinator(
            transport, [(b"j0", _Prefix(1))], policy=policy, steal=False
        )
        transport.start()
        try:
            coordinator._dispatch()
            worker = transport._processes[0]
            worker.join(10)  # replied and gone; the reply is still unread
            assert not worker.is_alive()
            coordinator._scan_workers()
            events = coordinator.step(1.0)
        finally:
            transport.stop()
        assert ("done", 0, "result-0") in events
        assert coordinator.failed == []
        assert coordinator.retries == 0


def _under_watchdog(build, seconds=30.0):
    """Run ``build()``'s coordinator in a forked child and summarize it.

    A hang kills the child with the workers it forked (it leads its own
    process group) and fails the test instead of stalling the suite.
    Returns ``(results, [(kind, attempts)], retries, steal
    (requested, denied), seconds run)``.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        os.setpgrp()
        try:
            coordinator = build()
            started = time.monotonic()
            coordinator.run()
            writer.send(
                (
                    sorted(coordinator.results),
                    [(f.kind, f.attempts) for f in coordinator.failed],
                    coordinator.retries,
                    (
                        coordinator.steals_requested.value,
                        coordinator.steals_denied.value,
                    ),
                    time.monotonic() - started,
                )
            )
        except BaseException:
            writer.send(traceback.format_exc())
        os._exit(0)

    process = context.Process(target=child)
    process.start()
    writer.close()
    try:
        if not reader.poll(seconds):
            os.killpg(process.pid, signal.SIGKILL)
            pytest.fail(f"Coordinator.run still running after {seconds}s")
        summary = reader.recv()
    finally:
        process.kill()
        process.join()
        reader.close()
    assert not isinstance(summary, str), summary
    return summary


def _hang(worker, inbox, outbox, message):
    """Test worker: never answer."""
    time.sleep(30)


def _die_on_first_attempt(worker, inbox, outbox, message):
    """Test worker: SIGKILLed on attempt 0, answers on any later one."""
    _, job_id, _payload, attempt = message
    if attempt == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    outbox.send(("done", worker, job_id, f"result-{job_id}"))
    inbox.get()  # idle until stopped


def _deny_first_steal(worker, inbox, outbox, message):
    """Test worker: b"quick" answers at once; b"long" denies the first
    steal request and finishes on the second."""
    _, job_id, payload, _attempt = message
    if payload == b"long":
        assert inbox.get() == ("steal",)
        outbox.send(("steal_deny", worker, job_id))
        assert inbox.get() == ("steal",)
    outbox.send(("done", worker, job_id, f"result-{job_id}"))
    inbox.get()  # idle until stopped


class TestCoordinatorWakes:
    def test_hung_worker_times_out(self):
        policy = dataclasses.replace(
            FAST, max_retries=0, task_timeout_seconds=0.3, allow_partial=True
        )
        results, failed, retries, _steals, seconds = _under_watchdog(
            lambda: Coordinator(
                MultiprocessTransport(1, worker_main=_hang),
                [(b"j0", _Prefix(1))],
                policy=policy,
                steal=False,
            )
        )
        assert results == []
        assert failed == [("timeout", 1)]
        assert retries == 0
        assert 0.3 <= seconds < 10.0

    def test_killed_worker_is_retried_at_once(self):
        results, failed, retries, _steals, seconds = _under_watchdog(
            lambda: Coordinator(
                MultiprocessTransport(1, worker_main=_die_on_first_attempt),
                [(b"j0", _Prefix(1))],
                policy=FAST,
                steal=False,
            )
        )
        assert results == ["result-0"]
        assert failed == []
        assert retries == 1
        assert seconds < 5.0

    def test_steal_cooldown_expires_and_the_run_completes(self):
        from repro.core.distributed import STEAL_RETRY_COOLDOWN_SECONDS

        results, failed, retries, steals, seconds = _under_watchdog(
            lambda: Coordinator(
                MultiprocessTransport(2, worker_main=_deny_first_steal),
                [(b"long", _Prefix(4)), (b"quick", _Prefix(1))],
                policy=FAST,
                steal=True,
            )
        )
        assert results == ["result-0", "result-1"]
        assert failed == []
        assert retries == 0
        assert steals == (2, 1)  # asked, denied, asked again after the cooldown
        assert seconds >= STEAL_RETRY_COOLDOWN_SECONDS


class TestChaos:
    def test_chaos_killed_workers_recover_and_match(self, monkeypatch):
        # Every job's first subprocess attempt dies mid-run (including
        # mid-steal-protocol); the retry path must still converge to the
        # sequential result.
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=2, probe_events=2, retry_policy=FAST
        ).run()
        assert report.retries >= 1
        assert not report.failed_partitions
        _assert_matches_sequential(report, seq_engine, seq_report)

    def test_dead_worker_does_not_hang_the_drain(self, monkeypatch):
        # Regression: a blocking ``queue.get()`` drain hung forever when a
        # worker died without enqueueing a result.  With no retries the
        # real subprocess death must surface promptly as a typed crash.
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        policy = dataclasses.replace(FAST, max_retries=0)
        started = time.monotonic()
        with pytest.raises(WorkerTaskError) as excinfo:
            DistributedRunner(
                _scenario(),
                "sds",
                workers=2,
                partition_depth=10,
                steal=False,
                retry_policy=policy,
            ).run()
        assert time.monotonic() - started < 30.0
        failure = excinfo.value.failure
        assert failure.kind == "crash"
        assert f"partition {failure.task_index}" in str(excinfo.value)

    @pytest.mark.parametrize(
        "cut", [dict(probe_events=2), dict(partition_depth=10, steal=False)]
    )
    def test_exhausted_jobs_name_their_groups(self, monkeypatch, cut):
        # No retries under chaos: every job is exhausted and reported, and
        # between them the records name every group of the initial cut.
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        policy = dataclasses.replace(FAST, max_retries=0, allow_partial=True)
        report = DistributedRunner(
            _scenario(), "sds", workers=2, retry_policy=policy, **cut
        ).run()
        assert report.partial
        assert len(report.failed_partitions) == report.jobs_dispatched >= 2
        named = [
            index
            for failure in report.failed_partitions
            for index in failure.group_indices
        ]
        assert all(failure.state_count for failure in report.failed_partitions)
        assert sorted(named) == list(range(len(named)))

    def test_inline_transport_never_chaos_kills(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        assert isinstance(report.transport_name, str)
        _assert_matches_sequential(report, seq_engine, seq_report)


class TestCLI:
    def test_run_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "run",
                    "flood:3",
                    "--sim-seconds",
                    "2",
                    "--workers",
                    "2",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "jobs dispatched  :" in captured
        import json

        report = json.loads(out.read_text())
        assert report["total_states"] > 0

    def test_retry_flags_build_the_policy(self):
        from repro.cli import _retry_policy, build_parser

        args = build_parser().parse_args(
            [
                "run",
                "flood:3",
                "--workers",
                "2",
                "--max-retries",
                "5",
                "--allow-partial",
                "--task-timeout",
                "7.5",
            ]
        )
        assert _retry_policy(args) == RetryPolicy(
            max_retries=5, allow_partial=True, task_timeout_seconds=7.5
        )
        defaults = build_parser().parse_args(["run", "flood:3", "--workers", "2"])
        assert _retry_policy(defaults) == RetryPolicy()

    def test_retry_flags_reach_the_run(self, tmp_path, monkeypatch, capsys):
        # Every first worker attempt dies; with no retries and partial
        # results allowed, the run reports its failed partitions instead
        # of raising.
        import json

        from repro.cli import main

        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "flood:4",
                "--workers",
                "2",
                "--max-retries",
                "0",
                "--allow-partial",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["partial"] is True
        assert report["retries"] == 0
        assert report["failed_partitions"]
        assert all(
            failure["attempts"] == 1 for failure in report["failed_partitions"]
        )
        assert "PARTIAL:" in capsys.readouterr().out

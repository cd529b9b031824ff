"""Cost of fault tolerance: chaos recovery overhead, checkpoint I/O.

Two questions a long-running SDE deployment needs answered:

1. **What does surviving a worker kill cost?**  With
   ``SDE_CHAOS_KILL_WORKER`` every worker's first attempt dies
   unreported; the coordinator detects the deaths and retries.  The
   benchmark compares wall-clock against the unfaulted parallel run and
   asserts the recovered results are identical (losing a worker must
   never change the answer, only the wall-clock).
2. **What does a checkpoint cost?**  Serialize a mid-run 5x5-grid engine
   (the paper's workload), record write time and file size, then resume
   it and verify the completed run matches the uninterrupted baseline.

Both are single-shot (the ``once`` fixture): SDE runs are deterministic,
so repetition would only burn CI minutes.
"""

import os
import time

from repro.api import DistributedRunner, build_engine, resume_engine
from repro.core.resilience import RetryPolicy, save_checkpoint
from repro.workloads import grid_scenario

#: Events the 5x5 grid (10 s) runs before virtual time 3000 ms.
PREFIX_EVENTS = {"cow": 281, "sds": 196}


def _scenario():
    return grid_scenario(5, sim_seconds=10)


def _fast_policy():
    return RetryPolicy(backoff_base_seconds=0.01)


def test_chaos_recovery_overhead(once, benchmark, monkeypatch):
    def measure():
        t0 = time.perf_counter()
        clean = DistributedRunner(
            _scenario(),
            "cow",
            workers=2,
            partition_depth=PREFIX_EVENTS["cow"],
            steal=False,
            retry_policy=_fast_policy(),
        ).run()
        clean_s = time.perf_counter() - t0

        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        t1 = time.perf_counter()
        chaos = DistributedRunner(
            _scenario(),
            "cow",
            workers=2,
            partition_depth=PREFIX_EVENTS["cow"],
            steal=False,
            retry_policy=_fast_policy(),
        ).run()
        chaos_s = time.perf_counter() - t1
        monkeypatch.delenv("SDE_CHAOS_KILL_WORKER")
        return clean, clean_s, chaos, chaos_s

    clean, clean_s, chaos, chaos_s = once(measure)

    # Recovery must reproduce the unfaulted run exactly.
    assert chaos.retries >= 1
    assert not chaos.partial
    for name in ("states.total", "mapping.groups", "run.events_executed"):
        assert (
            chaos.metrics["counters"][name] == clean.metrics["counters"][name]
        ), name

    overhead = chaos_s / max(clean_s, 1e-9)
    benchmark.extra_info["clean_s"] = round(clean_s, 3)
    benchmark.extra_info["chaos_s"] = round(chaos_s, 3)
    benchmark.extra_info["overhead"] = round(overhead, 2)
    benchmark.extra_info["retries"] = chaos.retries
    # Killing every worker once forfeits at most one full pass over the
    # partitions plus backoff; recovery should stay within ~3x + slack.
    assert chaos_s < clean_s * 3 + 2.0, (
        f"chaos recovery too slow: {chaos_s:.2f}s vs {clean_s:.2f}s clean"
    )


def test_checkpoint_write_and_resume_cost(once, benchmark, tmp_path):
    baseline = build_engine(_scenario(), "sds").run()
    path = tmp_path / "bench.sdeckpt"

    def measure():
        engine = build_engine(_scenario(), "sds")
        t_prefix = time.perf_counter()
        engine.run_until(split_events=PREFIX_EVENTS["sds"])
        prefix_s = time.perf_counter() - t_prefix
        prefix_events = engine.events_executed
        t0 = time.perf_counter()
        save_checkpoint(engine, path)
        write_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        resumed = resume_engine(path)
        load_s = time.perf_counter() - t1
        report = resumed.run()
        return prefix_s, prefix_events, write_s, load_s, report

    prefix_s, prefix_events, write_s, load_s, report = once(measure)

    assert report.events_executed == baseline.events_executed
    assert report.total_states == baseline.total_states
    assert report.instructions == baseline.instructions

    size = os.path.getsize(path)
    benchmark.extra_info["checkpoint_bytes"] = size
    benchmark.extra_info["write_s"] = round(write_s, 4)
    benchmark.extra_info["load_s"] = round(load_s, 4)
    benchmark.extra_info["prefix_s"] = round(prefix_s, 4)
    benchmark.extra_info["prefix_events"] = prefix_events
    # One checkpoint in events of execution: the premise of the default
    # cadence (docs/RESILIENCE.md, "Choosing the cadence").
    benchmark.extra_info["write_events"] = round(
        write_s / (prefix_s / max(prefix_events, 1)), 1
    )
    # A checkpoint is a pickle of the live frontier.  It is not free: it
    # costs about half of re-running the prefix it replaces (5-7 ms
    # against 12 ms for this 196-event prefix), which is why checkpoints
    # are written every few hundred events, not every few.
    assert write_s < 10.0
    assert load_s < 10.0

"""Overhead budget of the observability layer.

The event trace is wired into the engine's hottest paths (dispatch,
transmission mapping, solver queries), so it must be cheap enough to
leave on for any diagnostic run.  The acceptance bar: a fully traced run
stays within **1.15x** of the untraced wall-clock.  After one warm-up
pair, the test times :data:`REPEATS` back-to-back pairs of an untraced
and a traced run, the side that goes first swapping every pair, and
takes the median of the per-pair traced/untraced ratios.  Both runs of
a pair share the host's phase, so a slow phase of a shared host cancels
out of its ratio, and a single hiccup moves no median.  The collector
runs before each timed run, so no run pays for an earlier one's garbage.

The zero-cost claim for *disabled* tracing (no allocations on the hot
path at all) is asserted separately, in
``tests/obs/test_events.py::test_disabled_tracing_allocates_nothing``.
"""

import gc
import statistics
import time

from repro.api import build_engine
from repro.obs import TraceEmitter
from repro.workloads import grid_scenario

#: timed (untraced, traced) pairs
REPEATS = 31


def _scenario():
    return grid_scenario(4, sim_seconds=6)


def _run_seconds(trace):
    engine = build_engine(_scenario(), "sds", trace=trace)
    gc.collect()
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0


def _interleaved_pairs():
    """``(untraced s, traced s)`` per pair, and a traced run's events."""
    _run_seconds(None)
    _run_seconds(TraceEmitter())
    pairs = []
    for repeat in range(REPEATS):
        trace = TraceEmitter()
        if repeat % 2:
            traced = _run_seconds(trace)
            untraced = _run_seconds(None)
        else:
            untraced = _run_seconds(None)
            traced = _run_seconds(trace)
        pairs.append((untraced, traced))
    return pairs, len(trace)


def test_tracing_overhead_within_budget(once, benchmark):
    pairs, events = once(_interleaved_pairs)
    ratio = statistics.median(
        traced / max(untraced, 1e-9) for untraced, traced in pairs
    )
    untraced_s = statistics.median(untraced for untraced, _ in pairs)
    traced_s = statistics.median(traced for _, traced in pairs)
    benchmark.extra_info["untraced_s"] = round(untraced_s, 4)
    benchmark.extra_info["traced_s"] = round(traced_s, 4)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["overhead_ratio"] = round(ratio, 3)
    assert events > 0, "traced run produced no events"
    assert ratio <= 1.15, (
        f"tracing overhead {ratio:.2f}x (median of {REPEATS} pairs) exceeds"
        f" the 1.15x budget ({untraced_s:.3f}s untraced vs {traced_s:.3f}s"
        f" traced medians, {events} events)"
    )

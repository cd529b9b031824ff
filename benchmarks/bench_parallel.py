"""Measured parallel speedup vs the LPT projection (Section VI realized).

``bench_partition.py`` reports the *ideal* speedup the partition
decomposition allows; this benchmark actually runs the partitions on
worker processes via :class:`repro.core.distributed.DistributedRunner`
(one fixed cut after ``PREFIX_EVENTS`` events, stealing off) and
compares measured wall-clock speedup against
:func:`~repro.core.partition.projected_speedup`.

Configuration: the paper's 5x5 grid collection scenario under COW with a
drop budget of 2 — heavy enough (~seconds of sequential work, >100
independent partitions) that process spawn + snapshot shipping amortizes.
The cut after 2,629 events (the events run before virtual time 3000 ms)
leaves ~94% of the events to the parallel phase, so with 2 workers
Amdahl caps the speedup just below x2.

The >1.2x wall-clock assertion only applies when the machine actually
has 2+ cores available to this process (cgroup-capped CI boxes often
expose one); on a single core the workers timeshare it, so the benchmark
instead asserts the overhead bound (parallel wall-clock within 40% of
sequential) and still records measured vs projected speedup.
"""

import os
import time

import pytest

from repro.api import DistributedRunner, build_engine
from repro.workloads import grid_scenario


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _heavy_grid():
    return grid_scenario(5, sim_seconds=10, drop_budget=2)


PREFIX_EVENTS = 2629


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_speedup_grid5_cow(once, benchmark, workers):
    def measure():
        t0 = time.perf_counter()
        sequential = build_engine(_heavy_grid(), "cow").run()
        sequential_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        parallel = DistributedRunner(
            _heavy_grid(),
            "cow",
            workers=workers,
            partition_depth=PREFIX_EVENTS,
            steal=False,
        ).run()
        parallel_s = time.perf_counter() - t1
        return sequential, sequential_s, parallel, parallel_s

    sequential, sequential_s, parallel, parallel_s = once(measure)

    # The merged report must be exactly the sequential run's.  Both sides
    # are read from the metrics snapshot (the contract `--metrics-out`
    # writes), not from mapper or report internals.
    seq_counters = sequential.metrics["counters"]
    par_counters = parallel.metrics["counters"]
    for name in ("states.total", "mapping.groups", "run.events_executed"):
        assert par_counters[name] == seq_counters[name], (
            name,
            seq_counters[name],
            par_counters[name],
        )

    cores = _available_cores()
    speedup = sequential_s / max(parallel_s, 1e-9)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["sequential_s"] = round(sequential_s, 3)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["projected_speedup"] = parallel.metrics["gauges"][
        "parallel.projected_speedup"
    ]
    benchmark.extra_info["partitions"] = par_counters["parallel.partitions"]
    benchmark.extra_info["prefix_events"] = par_counters["parallel.prefix_events"]
    if workers == 2 and cores >= 2:
        # The acceptance bar: real wall-clock win, not just a projection.
        assert speedup > 1.2, (
            f"parallel run too slow: {sequential_s:.2f}s sequential vs"
            f" {parallel_s:.2f}s on {workers} workers (x{speedup:.2f})"
        )
    elif cores < 2:
        # One core: workers timeshare it, so no wall-clock win is possible.
        # What we *can* assert is that the machinery adds bounded overhead
        # (prefix replay + snapshot shipping + process management).
        assert speedup > 1.0 / 1.4, (
            f"parallel overhead too high on a single core:"
            f" {sequential_s:.2f}s sequential vs {parallel_s:.2f}s"
            f" on {workers} workers (x{speedup:.2f})"
        )
    assert parallel.projected >= 1.0

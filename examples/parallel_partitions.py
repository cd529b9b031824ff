#!/usr/bin/env python3
"""Parallel execution of independent partitions (the paper's Section VI).

"In the future, we plan to parallelize SDE's implementation ... we have to
identify the sets of states which can be safely offloaded on other cores."

Dstates that share no execution state never interact, so each connected
component of the dstate/state graph can run on its own core.  This script
runs the grid scenario under COW and SDS twice — sequentially, then with
:class:`repro.core.distributed.DistributedRunner` on worker processes
(one fixed cut after an event count, stealing off) — and shows (1) the
partition structure and ideal speedup it allows, (2) the measured
wall-clock of the real parallel run, and (3) that the merged parallel
report is *identical* to the sequential one.

It also exposes a real trade-off: SDS's superposition makes states span
dstates, fusing partitions that COW keeps separate.

Run: ``python examples/parallel_partitions.py [side] [workers]``
"""

import sys
import time

from repro.api import DistributedRunner, build_engine
from repro.core import partition_groups, speedup_bound
from repro.workloads import grid_scenario

SIM_SECONDS = 6
#: Events each algorithm runs on the 5x5 grid before virtual time 2000 ms.
PREFIX_EVENTS = {"cow": 62, "sds": 49}


def main() -> int:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    print(f"{side}x{side} grid collection scenario, {workers} workers\n")
    for algorithm in ("cow", "sds"):
        scenario = grid_scenario(side, sim_seconds=SIM_SECONDS)
        t0 = time.perf_counter()
        engine = build_engine(scenario, algorithm)
        report = engine.run()
        sequential_s = time.perf_counter() - t0

        partitions = partition_groups(engine.mapper)
        bound = speedup_bound(partitions)
        sizes = sorted(
            (p.state_count() for p in partitions), reverse=True
        )

        t1 = time.perf_counter()
        parallel = DistributedRunner(
            grid_scenario(side, sim_seconds=SIM_SECONDS),
            algorithm,
            workers=workers,
            partition_depth=PREFIX_EVENTS[algorithm],
            steal=False,
        ).run()
        parallel_s = time.perf_counter() - t1

        identical = (
            parallel.total_states == report.total_states
            and parallel.group_count == report.group_count
            and parallel.events_executed == report.events_executed
            and parallel.state_census() == engine.state_census()
        )
        print(f"[{algorithm}] {report.total_states} states in"
              f" {report.group_count} dstates")
        print(f"  independent partitions : {len(partitions)}")
        print(f"  partition sizes (top 8): {sizes[:8]}")
        print(f"  ideal parallel speedup : {bound:.2f}x")
        print(f"  sequential wall-clock  : {sequential_s:.2f}s")
        print(f"  parallel wall-clock    : {parallel_s:.2f}s"
              f"  (x{sequential_s / max(parallel_s, 1e-9):.2f} measured,"
              f" x{parallel.projected:.2f} projected on {workers} workers,"
              f" {parallel.partition_count} partitions shipped)")
        print(f"  merged == sequential   : {identical}")
        print()
    print(
        "COW fragments into one partition per dstate (embarrassingly\n"
        "parallel, but over a larger state set); SDS's shared bystanders\n"
        "fuse partitions - compactness traded against offloadability.\n"
        "Either way the merged report is worker-count independent."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate Table I: the 100-node grid under COB / COW / SDS.

Usage::

    python -m repro.bench.table1 [nodes]          # default 100
    SDE_FULL=1 python -m repro.bench.table1       # paper-scale parameters

Default scale trims the simulated time so the whole table regenerates in a
few minutes of wall clock; COB gets a state cap and is reported "aborted"
when it blows through it — exactly how the paper reports COB's row.
"""

from __future__ import annotations

import sys
from typing import List

from ..core.engine import RunReport
from ..workloads.grid import paper_grid_scenario
from .report import render_table1
from .runner import full_scale, run_algorithms

__all__ = ["table1_rows", "main"]

#: COB state cap, mirroring the paper's ~40 GB memory cap that stopped COB
#: at 1,025,700 states.
COB_STATE_CAP = 1_000_000
COB_WALL_CAP_SECONDS = 180.0
FULL_COB_WALL_CAP_SECONDS = 3600.0


def table1_rows(nodes: int = 100) -> List[RunReport]:
    """Run the Table I experiment and return one report per algorithm."""
    if full_scale():
        sim_seconds = 10
        cob_wall = FULL_COB_WALL_CAP_SECONDS
    else:
        sim_seconds = 10 if nodes <= 49 else 6
        cob_wall = COB_WALL_CAP_SECONDS

    def factory():
        return paper_grid_scenario(
            nodes,
            sim_seconds=sim_seconds,
            sample_every_events=256,
        )

    return run_algorithms(
        factory,
        cob_max_states=COB_STATE_CAP,
        cob_max_wall_seconds=cob_wall,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    nodes = int(argv[0]) if argv else 100
    rows = table1_rows(nodes)
    print(
        render_table1(
            rows,
            f"Table I — {nodes}-node scenario with symbolic packet drops",
        )
    )
    print()
    print("paper (Table I, 100 nodes):")
    print("  COB 9h:39m (aborted) / 1,025,700 states / 38.1 GB")
    print("  COW 1h:38m           /    30,464 states /  3.4 GB")
    print("  SDS 19m              /     4,159 states /  1.6 GB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

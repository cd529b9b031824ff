"""Regenerate Figure 10: state and memory growth over time, 25/49/100 nodes.

Usage::

    python -m repro.bench.figure10 [nodes ...]      # default: 25 49 100
    SDE_FULL=1 python -m repro.bench.figure10

For each scenario size the three algorithms run with dense sampling; the
paired (a/c/e) state-growth and (b/d/f) memory-growth series print as text
and are written to ``results/figure10_<nodes>.csv`` for plotting.
"""

from __future__ import annotations

import pathlib
import sys
from typing import List

from ..core.engine import RunReport
from ..workloads.grid import PAPER_SIZES, paper_grid_scenario
from .report import render_series, series_csv
from .runner import full_scale, run_algorithms

__all__ = ["figure10_rows", "main"]

_SUBFIGURES = {25: ("a", "b"), 49: ("c", "d"), 100: ("e", "f")}

COB_STATE_CAP = 400_000
COB_WALL_CAP_SECONDS = 120.0


def figure10_rows(nodes: int) -> List[RunReport]:
    """Growth series for one scenario size, all three algorithms."""
    if full_scale():
        sim_seconds, cob_wall, cob_cap = 10, 3600.0, 1_200_000
    else:
        sim_seconds = 10 if nodes <= 25 else (6 if nodes <= 49 else 4)
        cob_wall, cob_cap = COB_WALL_CAP_SECONDS, COB_STATE_CAP

    def factory():
        return paper_grid_scenario(
            nodes, sim_seconds=sim_seconds, sample_every_events=16
        )

    return run_algorithms(
        factory,
        cob_max_states=cob_cap,
        cob_max_wall_seconds=cob_wall,
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sizes = [int(a) for a in argv] if argv else sorted(PAPER_SIZES)
    results_dir = pathlib.Path("results")
    results_dir.mkdir(exist_ok=True)
    for nodes in sizes:
        rows = figure10_rows(nodes)
        state_fig, memory_fig = _SUBFIGURES.get(nodes, ("?", "?"))
        print(
            render_series(
                rows,
                "states",
                f"Figure 10({state_fig}) — {nodes}-node scenario:"
                " state growth over time",
            )
        )
        print()
        print(
            render_series(
                rows,
                "memory",
                f"Figure 10({memory_fig}) — {nodes}-node scenario:"
                " memory growth over time",
            )
        )
        print()
        csv_path = results_dir / f"figure10_{nodes}.csv"
        with open(csv_path, "w") as stream:
            series_csv(rows, stream)
        print(f"raw series written to {csv_path}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

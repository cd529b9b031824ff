"""The metrics contract: which metrics a run reports, and their counts.

``metrics_contract.json`` pins, for a handful of cells that between them
reach every counter family, the sorted names of every counter, gauge and
histogram in the run report's metrics snapshot, plus the values of the
deterministic counters.  Left out are the counters docs/SOLVER.md calls
volatile (``solver.backend.*``, ``solver.shortcuts.*``,
``solver.simplify.*``, ``solver.cache.*``: they depend on memo and cache
state) and the timing gauges.  A change to how counters are kept must
reproduce the file unchanged.  Re-cut it with::

    PYTHONHASHSEED=1 PYTHONPATH=src python -m tests.obs.test_metrics_contract
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api import DistributedRunner, Scenario, Topology, build_engine
from repro.core.distributed import InlineTransport
from repro.workloads import election_scenario, flood_scenario

CONTRACT_PATH = Path(__file__).with_name("metrics_contract.json")

#: Counter families whose values depend on memo and cache state.
VOLATILE_PREFIXES = (
    "solver.backend.",
    "solver.shortcuts.",
    "solver.simplify.",
    "solver.cache.",
    "phase.solve.search.",
)

#: Symbolic readings on a mesh: certified for symmetry and POR, and every
#: reception branches on the solver.
SYMBOLIC_FLOOD = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""


def _mesh_scenario() -> Scenario:
    return Scenario(
        name="symbolic-flood-mesh3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=200,
    )


def _run(cell: str):
    if cell.startswith("flood/"):
        return build_engine(flood_scenario(3, rounds=2), cell[6:]).run()
    if cell == "election-realistic/sds":
        return build_engine(election_scenario(4, medium="realistic"), "sds").run()
    if cell == "mesh-reduced/sds":
        return build_engine(_mesh_scenario(), "sds", symmetry=True, por=True).run()
    if cell == "distributed-inline/sds":
        return DistributedRunner(
            flood_scenario(3, rounds=2),
            "sds",
            workers=2,
            probe_events=2,
            transport=InlineTransport(),
        ).run()
    raise KeyError(cell)


CELLS = (
    "flood/cob",
    "flood/cow",
    "flood/sds",
    "election-realistic/sds",
    "mesh-reduced/sds",
    "distributed-inline/sds",
)


def _is_timing_gauge(name: str) -> bool:
    return name == "run.runtime_seconds" or (
        name.startswith("phase.") and name.endswith(".seconds")
    )


def contract_entry(metrics: dict) -> dict:
    """The pinned part of one report's metrics snapshot."""
    counters = metrics["counters"]
    return {
        "counter_names": sorted(counters),
        "gauge_names": sorted(
            name for name in metrics["gauges"] if not _is_timing_gauge(name)
        ),
        "histogram_names": sorted(metrics["histograms"]),
        "counters": {
            name: counters[name]
            for name in sorted(counters)
            if not name.startswith(VOLATILE_PREFIXES)
        },
    }


def cut() -> dict:
    return {cell: contract_entry(_run(cell).metrics) for cell in CELLS}


@pytest.fixture(scope="module")
def contract():
    return json.loads(CONTRACT_PATH.read_text())


@pytest.mark.parametrize("cell", CELLS)
def test_cell_matches_contract(cell, contract):
    assert contract_entry(_run(cell).metrics) == contract[cell]


def test_contract_covers_every_family(contract):
    names = {name for entry in contract.values() for name in entry["counter_names"]}
    for family in ("mapping.", "solver.", "solver.cache.", "net.", "reduce."):
        assert any(name.startswith(family) for name in names), family
    assert "distributed.steals.requested" in names


def main() -> int:
    with open(CONTRACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(cut(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(CELLS)} cells to {CONTRACT_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

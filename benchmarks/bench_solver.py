"""Solver-bound end-to-end gate: the 3-node symbolic flood.

Runs the symbolic-sensor flood once through the whole pipeline (threaded
interpreter, query optimizer, tiered cache) and gates on three things:

1. **Correctness**: the deterministic counters equal their pinned values
   (:data:`EXPECTED`).  The optimizations may only change *how much
   work* is done, never a verdict, a state count or an executed event.
2. **Work**: ``solver_backend_groups_optimized`` — backend solve-group
   calls (``solver.backend.groups``: each is one normalize+cache+search
   pass over an independent conjunct group).
3. **Wall-clock**: ``flood_wall_calibrated_s`` — the run's wall time
   scaled to the ladder's reference host by the calibration loop of
   ``benchmarks.ladder.child``, timed before and after the run exactly
   as the ladder scales ``explore_s``.

Items 2 and 3 are gated by ``benchmarks/check_trend.py`` against
``benchmarks/baselines/BENCH_solver.json``.  All numbers come from the
run's metrics snapshot — the same JSON contract ``repro run
--metrics-out`` writes — not from solver internals.  Headline numbers
are persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``).

The flood workload in ``repro.workloads`` never queries the solver (its
drop failures are decided at the engine level), so the scenario here
floods *symbolic sensor readings*: every receive branches on symbolic
data three deep, which is what issues branch-feasibility queries.
"""

import time

from repro.api import Scenario, Topology, build_engine

from benchmarks.ladder.child import CALIBRATION_REFERENCE_S, calibrate
from benchmarks.record import record_bench

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
    if (v > 128) { v -= 128; }
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""

#: Deterministic counters of the flood: a change here is a behaviour
#: change, not a performance change.
EXPECTED = {
    "states.total": 37376,
    "run.events_executed": 5206,
    "mapping.groups": 512,
    "solver.queries": 65548,
    "solver.sat_results": 65548,
    "solver.unsat_results": 0,
}


def _scenario():
    return Scenario(
        name="symbolic-flood-3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )


def test_symbolic_flood_gate(once, benchmark):
    def measure():
        engine = build_engine(_scenario(), "sds")
        before = calibrate()
        start = time.perf_counter()
        report = engine.run()
        wall_s = time.perf_counter() - start
        after = calibrate()
        return report, wall_s, (before + after) / 2

    report, wall_s, calibration_s = once(measure)
    counters = report.metrics["counters"]
    for name, value in EXPECTED.items():
        assert counters[name] == value, (name, counters[name], value)

    calibrated_s = wall_s * CALIBRATION_REFERENCE_S / calibration_s
    groups = counters["solver.backend.groups"]
    record_bench(
        flood_wall_s=round(wall_s, 3),
        flood_wall_calibrated_s=round(calibrated_s, 3),
        solver_backend_groups_optimized=groups,
    )
    benchmark.extra_info["wall_s"] = round(wall_s, 3)
    benchmark.extra_info["calibrated_s"] = round(calibrated_s, 3)
    benchmark.extra_info["backend_groups"] = groups
    benchmark.extra_info["model_shortcuts"] = counters["solver.shortcuts.model"]
    benchmark.extra_info["verdict_shortcuts"] = counters[
        "solver.shortcuts.verdict"
    ]
    benchmark.extra_info["backend_searches"] = counters["solver.backend.searches"]
    benchmark.extra_info["cache_hits_exact"] = counters["solver.cache.hit.exact"]
    benchmark.extra_info["cache_hits_cex"] = counters["solver.cache.hit.cex"]
    benchmark.extra_info["cache_hits_model"] = counters["solver.cache.hit.model"]

"""State-space reduction benchmarks (symmetry + POR, ``docs/REDUCTION.md``).

One A/B gate on the same 3-node symbolic flood that ``bench_solver``
times, so wall-clock numbers stay comparable across bench files:

- reduction **off** (the default configuration every other bench runs);
- reduction **on** (``symmetry=True, por=True``).

The gate requires a >=2x drop in explored states (the PR target; the
measured factor is ~78x on this workload and the trend baseline pins the
real number), wall-clock no worse than the unreduced run, and — the
soundness half — identical canonical violation verdicts on vs. off.

A second gate times the reducer itself: ``reduce_wall_calibrated_s`` is
the best of ``WALL_ROUNDS`` runs of the ladder's ``reduced-flood`` run
(the same program on a 4-node mesh with symmetry and POR on, where the
reducer is the largest layer), each scaled to the ladder's reference host
by the calibration loop of ``benchmarks.ladder.child``, timed before and
after the round exactly as ``bench_solver`` scales its flood.

Headline numbers are persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``) and gated by ``benchmarks/check_trend.py``
against ``benchmarks/baselines/BENCH_reduce.json``.
"""

import time

from repro.api import Scenario, Topology, build_engine
from repro.core.reduce import analyze_recv_handler, canonical_violations
from repro.lang import compile_source

from benchmarks.bench_solver import SYMBOLIC_FLOOD
from benchmarks.ladder.child import CALIBRATION_REFERENCE_S, calibrate
from benchmarks.ladder.workloads import runs_for
from benchmarks.record import record_bench

#: Timed rounds of the reduced flood; the best one is recorded, so a slow
#: phase of a shared host has to cover every round to move the number.
WALL_ROUNDS = 5


def _flood_scenario() -> Scenario:
    return Scenario(
        name="symbolic-flood-3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )


def test_flood_handler_certifies():
    """The flood's ``on_recv`` must stay POR-certifiable: if a future
    edit makes it non-commuting, the reducer self-disables and the A/B
    gate below would silently measure nothing."""
    commutes, reason = analyze_recv_handler(compile_source(SYMBOLIC_FLOOD))
    assert commutes, f"flood on_recv no longer certifies: {reason}"


def test_reduction_state_drop_gate(once):
    """Symmetry+POR must cut explored states >=2x at no wall-clock cost,
    while reporting the identical canonical verdict set."""

    def run_pair():
        start = time.perf_counter()
        off = build_engine(_flood_scenario(), "sds").run()
        off_seconds = time.perf_counter() - start

        start = time.perf_counter()
        on = build_engine(_flood_scenario(), "sds", symmetry=True, por=True).run()
        on_seconds = time.perf_counter() - start
        return off, off_seconds, on, on_seconds

    off, off_seconds, on, on_seconds = once(run_pair)

    topology = Topology.full_mesh(3)
    assert canonical_violations(on, topology) == canonical_violations(
        off, topology
    ), "reduction changed the reported verdict set"

    drop = off.total_states / max(on.total_states, 1)
    counters = on.metrics["counters"]
    record_bench(
        reduce_states_off=off.total_states,
        reduce_states_on=on.total_states,
        reduce_state_drop_factor=round(drop, 1),
        reduce_wall_clock_off=round(off_seconds, 3),
        reduce_wall_clock_on=round(on_seconds, 3),
        reduce_pruned=counters.get("reduce.pruned", 0),
        reduce_slept_twins=counters.get("reduce.slept_twins", 0),
        reduce_slept_events=counters.get("reduce.slept_events", 0),
        reduce_woken=counters.get("reduce.woken", 0),
        reduce_orbits=counters.get("reduce.orbits", 0),
    )
    assert drop >= 2.0, (
        f"reduction dropped states only {drop:.1f}x "
        f"({off.total_states} -> {on.total_states})"
    )
    # "No worse" with the usual CI-jitter headroom; in practice the
    # reduced run is ~50x faster, so this bound is generous.
    assert on_seconds <= off_seconds * 1.25, (
        f"reduction made the run slower: {on_seconds:.2f}s vs "
        f"{off_seconds:.2f}s unreduced"
    )


def test_reduced_flood_wall_clock_gate(once):
    """The reducer's own cost: the 4-node-mesh reduced flood, calibrated."""
    (run,) = runs_for("reduced-flood", 7)

    def measure():
        rounds = []
        for _ in range(WALL_ROUNDS):
            engine = run.build(run.scenario())
            before = calibrate()
            start = time.perf_counter()
            report = engine.run()
            wall_s = time.perf_counter() - start
            calibration_s = (calibrate() + before) / 2
            rounds.append((wall_s * CALIBRATION_REFERENCE_S / calibration_s, wall_s))
        return report, min(rounds)

    report, (calibrated_s, wall_s) = once(measure)
    counters = report.metrics["counters"]
    assert report.total_states == 4002
    assert counters["reduce.fingerprints"] == 4346
    record_bench(
        reduce_wall_s=round(wall_s, 3),
        reduce_wall_calibrated_s=round(calibrated_s, 3),
    )

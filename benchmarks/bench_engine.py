"""Engine/VM throughput benchmarks and the interpreter perf gate.

Not a paper artifact — these keep an eye on the substrate itself:

- raw bytecode dispatch rate, and its gated form
  ``dispatch_rate_calibrated``: the threaded (table-dispatch +
  superinstruction) interpreter's hot-loop rate scaled to the ladder's
  reference host by the calibration loop of
  ``benchmarks.ladder.child`` (timed before and after the measurement,
  exactly as the ladder scales ``explore_s``);
- state fork cost: time, and bytes allocated per fork of an idle state
  (``fork_bytes_idle``, gated);
- the SDS virtual layer's bytes per logical virtual fork on a fixed
  anydrop grid (``virtual_fork_bytes``, gated): a virtual fork shares
  every bystander's member list, so a return to one object per bystander
  per fork shows up here;
- solver query rate;
- SDS end-to-end instruction rate (read from the metrics snapshot).

The end-to-end 3-node symbolic flood is timed by ``bench_solver.py``.
Regressions here would silently stretch every Table-I/Figure-10 run.
Headline numbers are persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``) and gated by ``benchmarks/check_trend.py``
against ``benchmarks/baselines/BENCH_engine.json``.
"""

import time
import tracemalloc

from repro.api import Solver, build_engine
from repro.lang import compile_source
from repro.vm import Executor, Status
from repro.workloads import grid_scenario

from benchmarks.ladder.child import CALIBRATION_REFERENCE_S, calibrate
from benchmarks.record import record_bench

HOT_LOOP = """
var acc;
func main(n) {
    var i = 0;
    while (i < n) {
        acc = (acc + i) ^ (i << 3);
        i += 1;
    }
}
"""


def _interpret_once(program, arg: int = 20_000):
    """One hot-loop event on a fresh executor: ``(executor, seconds)``.

    A fresh executor has no event summaries, so the event is
    interpreted, never replayed; the assertion keeps it that way.
    """
    executor = Executor(program)
    state = executor.make_initial_state(0)
    start = time.perf_counter()
    executor.run_event(state, "main", [arg])
    elapsed = time.perf_counter() - start
    assert executor.summary_hits == 0
    return executor, elapsed


def _dispatch_rate(program, arg: int = 20_000) -> float:
    """Instructions per second of one interpreted hot-loop event."""
    executor, elapsed = _interpret_once(program, arg)
    return executor.instructions_executed / max(elapsed, 1e-9)


def test_concrete_dispatch_rate(benchmark):
    program = compile_source(HOT_LOOP)

    def run_loop():
        return _interpret_once(program)[0]

    executor = benchmark(run_loop)
    assert executor.instructions_executed > 0
    benchmark.extra_info["instructions_per_round"] = executor.instructions_executed
    benchmark.extra_info["superinstructions"] = executor.decoded.fused


def test_dispatch_rate_gate(once):
    """Hot-loop dispatch rate, scaled to the ladder's reference host.

    Each round is scaled by the calibration loop timed just before and
    just after it (the ladder's scaling of ``explore_s``); the gate takes
    the best round, so it tracks the peak rate, not scheduler noise.
    Every round runs on a fresh executor: a repeat on one executor would
    be a summary hit, which measures no dispatch at all.
    """
    program = compile_source(HOT_LOOP)

    def measure():
        best = (0.0, 0.0)
        before = calibrate()
        for _ in range(5):
            rate = _dispatch_rate(program)
            after = calibrate()
            scale = (before + after) / (2 * CALIBRATION_REFERENCE_S)
            best = max(best, (rate * scale, rate))
            before = after
        return best

    calibrated, rate = once(measure)
    record_bench(
        dispatch_rate=int(rate),
        dispatch_rate_calibrated=int(calibrated),
    )
    assert calibrated > 0


def _idle_state():
    """A state between events of a running engine: the kind a mapper forks."""
    engine = build_engine(grid_scenario(5, sim_seconds=2), "sds")
    engine.run_until(split_events=50)
    idle = [s for s in engine.states.values() if s.status == Status.IDLE]
    assert idle and all(type(s.memory) is tuple for s in idle)
    return idle[-1]


def _fork_bytes(state, count: int = 1000) -> int:
    """Bytes allocated per fork of ``state`` (tracemalloc; deterministic)."""
    twins = [None] * count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for position in range(count):
            twins[position] = state.fork()
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return round(allocated / count)


def test_state_fork_cost(benchmark):
    state = _idle_state()

    def fork_many():
        return [state.fork() for _ in range(1000)]

    twins = benchmark(fork_many)
    assert len(twins) == 1000
    # An idle fork copies slots and shares every field: it allocates the
    # state object and its sid only.
    fork_bytes = _fork_bytes(state)
    benchmark.extra_info["fork_bytes_idle"] = fork_bytes
    record_bench(fork_bytes_idle=fork_bytes)


def _virtual_fork_bytes(scenario):
    """Bytes the SDS mapper holds per logical virtual fork after a run.

    Counts the live blocks allocated in ``repro/core/sds.py`` when the run
    ends (tracemalloc; deterministic): dstates, member lists, their holder
    sets and bindings.  Twins and the engine's own bookkeeping are
    allocated elsewhere and not counted.
    """
    engine = build_engine(scenario, "sds")
    tracemalloc.start()
    try:
        engine.run()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*repro/core/sds.py")]
        )
    finally:
        tracemalloc.stop()
    total = sum(stat.size for stat in held.statistics("filename"))
    return round(total / engine.mapper.virtual_forks.value)


def test_sds_virtual_fork_bytes():
    """An 8x8 grid where any packet may drop: 92 dstates and 6,627
    logical virtual forks, most of them bystanders'."""
    scenario = grid_scenario(8, sim_seconds=3, drop_any_packet=True)
    virtual_fork_bytes = _virtual_fork_bytes(scenario)
    record_bench(virtual_fork_bytes=virtual_fork_bytes)
    assert virtual_fork_bytes > 0


def test_solver_query_rate(benchmark):
    from repro.expr import bv, ne, ult, var

    solver = Solver(use_cache=False)
    x = var("x")

    def query_batch():
        sat = 0
        for bound in range(2, 34):
            if solver.check([ult(x, bv(bound)), ne(x, bv(0))]):
                sat += 1
        return sat

    sat = benchmark(query_batch)
    assert sat == 32


def test_sds_end_to_end_rate(benchmark):
    def run():
        engine = build_engine(grid_scenario(5, sim_seconds=4), "sds")
        return engine.run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    counters = report.metrics["counters"]
    gauges = report.metrics["gauges"]
    rate = counters["run.instructions"] / max(gauges["run.runtime_seconds"], 1e-9)
    benchmark.extra_info["instructions_per_second"] = int(rate)
    benchmark.extra_info["events"] = counters["run.events_executed"]
    assert not report.aborted

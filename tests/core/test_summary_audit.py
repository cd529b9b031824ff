"""Event summaries are invisible: every hit is re-interpreted and compared.

:class:`AuditingExecutor` is an :class:`Executor` that, on every summary
hit, first replays the summary's paths, then runs the event for real on
a copy of the state it had before, with a reference executor that never
summarizes, its own solver and a host that records effects instead of
performing them.  It compares, in order, the resulting states'
``config_key()``, steps, ``log`` output, fresh symbols and symbol
counters; the summary's recorded (condition, answer) pairs with the
reference solver's answers on the same path conditions (a replay asks
the solver nothing, so this is where a recorded answer is checked);
what the replay and the reference moved the deterministic solver
counters by; the fork callbacks, the instruction count and the effect
list.  The reference runs second and on its own solver, so its calls
move no counter of the engine.  The engine is built with it in place
of the plain executor.

It runs on every golden-matrix cell (which must still reproduce its
committed entry), the property-equivalence scenarios, symmetry + POR
floods, a realistic-medium grid and ring and the ladder's ``symflood``
scenario.  The engine-level tests below pin the replay itself: two
sends of one buffer mutated in between, ``log`` output and timer
generations after ``timer_stop`` and ``timer_set``, symbolic payloads,
and checkpoint resume and the distributed cut, whose reports equal the
uninterrupted run's.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from benchmarks.ladder.workloads import SYMBOLIC_FLOOD
from repro.api import Scenario, Topology, build_engine
from repro.core import engine as engine_module
from repro.core import iter_dscenarios
from repro.core import testcase_for_dscenario as make_dscenario_testcase
from repro.core.distributed import DistributedRunner
from repro.core.resilience import resume_engine, save_checkpoint
from repro.expr import var
from repro.net.packet import Packet
from repro.oslib import NodeOS
from repro.solver import Solver
from repro.vm import ExecutionState, Executor, SyscallHost
from repro.vm.executor import _QUERY
from repro.workloads import election_scenario, flood_scenario, grid_scenario

from ..conftest import budget
from ..integration import golden
from ..vm.test_summaries import semantic_counters
from .test_distributed import _assert_matches_sequential
from .test_property_equivalence import build, scenario_config
from .test_resilience import _assert_reports_match


class _EffectLog(SyscallHost):
    """Reads through the engine's host; records effects, performs none."""

    def __init__(self, host):
        self.host = host
        self.log = []

    def syscall(self, state, name, args):
        if name in self.host.effects:
            self.log.append(self.host.resolve(state, name, args))
            return 0
        return self.host.syscall(state, name, args)


class _SolverLog:
    """A solver that records the branch decisions it answers."""

    def __init__(self, solver):
        self.solver = solver
        self.calls = []

    def branch_feasibility(self, constraints, condition):
        answer = self.solver.branch_feasibility(constraints, condition)
        self.calls.append((condition, answer))
        return answer

    def __getattr__(self, name):
        return getattr(self.solver, name)


def _moved(before, after):
    """How far each :func:`semantic_counters` entry moved."""
    moved = {}
    for name, value in after.items():
        if isinstance(value, dict):  # a histogram's data
            old = before[name]
            moved[name] = (
                [new - was for new, was in zip(value["buckets"], old["buckets"])],
                value["total"] - old["total"],
            )
        else:
            moved[name] = value - before[name]
    return moved


def _fork_view(parent, children):
    return (parent.node, parent.constraints, [c.constraints for c in children])


def _views(states):
    # config_key() leaves the fresh symbols and their counters out
    return [
        (
            s.config_key(),
            s.steps,
            s.trace,
            s.symbolics,
            sorted(s.sym_counters.items()),
        )
        for s in states
    ]


class AuditingExecutor(Executor):
    """Re-interprets every summary hit on a copy after replaying it."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audited = 0
        #: the handler of every audited hit
        self.audited_handlers = []
        #: audited hits whose summary made branch decisions
        self.audited_symbolic = 0
        self.mismatches = []
        self._effect_log = _EffectLog(self.host)
        self._reference = Executor(
            self.program,
            _SolverLog(Solver()),
            host=self._effect_log,
            max_steps_per_event=self.max_steps_per_event,
            fuse_ops=self.fuse_ops,
        )
        AuditingExecutor.instances.append(self)

    def run_event(self, state, func_name, args=(), on_fork=None):
        self._event = (func_name, args)
        return super().run_event(state, func_name, args, on_fork)

    def _replay_paths(self, state, summary, on_fork):
        func_name, args = self._event
        copy = state.fork()
        forks = []

        def log_fork(parent, children):
            forks.append(_fork_view(parent, children))
            if on_fork is not None:
                on_fork(parent, children)

        counters = semantic_counters(self.solver)
        done = super()._replay_paths(state, summary, log_fork)
        recorded = [(step[1], step[2]) for step in summary.script if step[0] == _QUERY]
        replayed = (
            _views(done),
            recorded,
            _moved(counters, semantic_counters(self.solver)),
            forks,
            summary.instructions,
            summary.effects,
        )

        reference = self._reference
        reference.solver.calls = []
        counters = semantic_counters(reference.solver.solver)
        self._effect_log.log = []
        reference_forks = []
        before = reference.instructions_executed
        reference_done = reference.run_event(
            copy,
            func_name,
            args,
            lambda parent, children: reference_forks.append(
                _fork_view(parent, children)
            ),
        )
        interpreted = (
            _views(reference_done),
            reference.solver.calls,
            _moved(counters, semantic_counters(reference.solver.solver)),
            reference_forks,
            reference.instructions_executed - before,
            tuple(self._effect_log.log),
        )
        if interpreted != replayed:
            self.mismatches.append((state.node, func_name, args))
        self.audited += 1
        self.audited_handlers.append(func_name)
        if recorded:
            self.audited_symbolic += 1
        return done


@pytest.fixture
def audit(monkeypatch):
    """Build every engine of the test with an :class:`AuditingExecutor`;
    yields the list of executors built."""
    AuditingExecutor.instances = []
    monkeypatch.setattr(engine_module, "Executor", AuditingExecutor)
    yield AuditingExecutor.instances
    for executor in AuditingExecutor.instances:
        assert executor.mismatches == []
        assert executor._reference.visited_pcs <= executor.visited_pcs


class _Interpreting(Executor):
    """An executor that never summarizes: the reference run."""

    def _lookup(self, state, func_name, args):
        return None, None


def _entry(scenario, algorithm, **overrides):
    """The golden entry of a run: trace digest, counters, samples."""
    return golden.run(scenario, algorithm, **overrides)[0]


def _interpreted_entry(monkeypatch, scenario, algorithm, **overrides):
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "Executor", _Interpreting)
        return _entry(scenario, algorithm, **overrides)


def _audited(instances):
    return sum(executor.audited for executor in instances)


# ---------------------------------------------------------------------------
# The audit on every golden cell and on the other scenario families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", golden.ALGORITHMS)
@pytest.mark.parametrize("workload", list(golden.scenarios()))
def test_golden_cells_audited(audit, workload, algorithm):
    entry = _entry(golden.scenarios()[workload], algorithm)
    assert entry == golden.load()[f"{workload}/{algorithm}"]
    if workload in ("flood", "grid", "dissemination", "election", "quorum"):
        assert _audited(audit) > 0


@settings(
    max_examples=budget(20),
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(scenario_config())
def test_property_scenarios_audited(audit, monkeypatch, config):
    for algorithm in golden.ALGORITHMS:
        entry = _entry(build(config), algorithm)
        assert entry == _interpreted_entry(monkeypatch, build(config), algorithm)


REDUCED_FLOOD = """
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


@pytest.mark.parametrize(
    "scenario",
    [
        Scenario(
            name="reduced-flood",
            program=REDUCED_FLOOD,
            topology=Topology.full_mesh(3),
            horizon_ms=150,
        ),
        flood_scenario(4, rounds=2),
    ],
    ids=["symbolic-flood", "concrete-flood"],
)
def test_symmetry_and_por_audited(audit, monkeypatch, scenario):
    reduced = dict(symmetry=True, por=True)
    entry = _entry(scenario, "sds", **reduced)
    assert entry == _interpreted_entry(monkeypatch, scenario, "sds", **reduced)


def test_ladder_symflood_audited(audit, monkeypatch):
    scenario = Scenario(
        name="symbolic-flood-line4",
        program=SYMBOLIC_FLOOD,
        topology=Topology.line(4),
        horizon_ms=300,
    )
    entry = _entry(scenario, "sds")
    assert entry == _interpreted_entry(monkeypatch, scenario, "sds")
    assert sum(executor.audited_symbolic for executor in audit) > 0


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        (
            grid_scenario(4, sim_seconds=4),
            {
                "medium": "realistic",
                "medium_params": {
                    "jitter_ms": 2,
                    "bandwidth_cells_per_ms": 1,
                    "queue_capacity": 4,
                    "seed": 3,
                },
            },
        ),
        (
            election_scenario(
                33,
                medium="realistic",
                medium_params={"loss": 0.15, "jitter_ms": 2, "seed": 5},
            ),
            {},
        ),
    ],
    ids=["lossy-grid", "lossy-ring"],
)
@pytest.mark.parametrize("algorithm", ["cow", "sds"])
def test_realistic_medium_audited(audit, monkeypatch, scenario, overrides, algorithm):
    entry = _entry(scenario, algorithm, **overrides)
    assert entry == _interpreted_entry(monkeypatch, scenario, algorithm, **overrides)
    assert _audited(audit) > 0


# ---------------------------------------------------------------------------
# What a replay must reproduce, engine level
# ---------------------------------------------------------------------------


def _run_both(monkeypatch, scenario, algorithm="cob"):
    """``(summarized engine, interpreted engine)`` after a full run."""
    engines = []
    for kind in (AuditingExecutor, _Interpreting):
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "Executor", kind)
            engine = build_engine(scenario, algorithm)
            engine.run()
            engines.append(engine)
    return engines


def _census(engine):
    return sorted(
        (s.node, s.config_key()[2], s.trace, sorted(s.timer_generations.items()))
        for s in engine.states.values()
    )


TWO_SENDS = """
var count;
var got[6];
func on_boot() { if (node_id() == 1) { timer_set(0, 10); } }
func on_timer(tid) {
    var buf[2];
    buf[0] = 7;
    buf[1] = 1;
    bc_send(buf, 2);
    buf[0] = 9;
    bc_send(buf, 1);
    timer_set(0, 10);
}
func on_recv(src, len) {
    if (count < 6) { got[count] = recv_byte(0) * 10 + len; }
    count += 1;
}
"""


def test_two_sends_of_a_mutated_buffer(audit, monkeypatch):
    scenario = Scenario(
        name="two-sends",
        program=TWO_SENDS,
        topology=Topology.line(2),
        horizon_ms=75,
    )
    summarized, interpreted = _run_both(monkeypatch, scenario)
    assert summarized.executor.summary_hits > 0
    assert _census(summarized) == _census(interpreted)
    (sink,) = [s for s in summarized.states.values() if s.node == 0]
    got = summarized.program.global_address("got")
    assert sink.memory[got : got + 6] == (72, 91, 72, 91, 72, 91)


TIMERS = """
var fired;
func on_boot() { timer_set(0, 10); }
func on_timer(tid) {
    if (tid == 0) {
        timer_set(1, 4);
        timer_stop(1);
        timer_set(1, 5);
        timer_set(0, 10);
    } else {
        log(fired);
        fired = 1 - fired;
    }
}
"""


def test_timer_generations_after_stop_and_set(audit, monkeypatch):
    scenario = Scenario(
        name="timers", program=TIMERS, topology=Topology.line(2), horizon_ms=100
    )
    summarized, interpreted = _run_both(monkeypatch, scenario)
    assert summarized.executor.summary_hits > 0
    assert _census(summarized) == _census(interpreted)
    for state in summarized.states.values():
        # ten timer-0 runs bump timer 1 three times each; of each run's
        # two timer-1 expiries only the last set is live
        assert state.trace == ((0,), (1,)) * 4 + ((0,),)
        assert state.timer_generations[1] == 3 * 10


def test_symbolic_payload_is_input():
    host = NodeOS(engine=None)
    state = ExecutionState(0, 4)
    assert host.event_input(state) == ()
    state.current_packet = Packet(1, 0, (2, 3), 0)
    assert host.event_input(state) == (1, 2, 3)
    x = var("x")
    state.current_packet = Packet(1, 0, (2, x), 0)
    assert host.event_input(state) == (1, 2, x)


def test_symbolic_receptions_are_summarized_per_path_condition(audit):
    engine = build_engine(golden.scenarios()["symbolic"], "sds")
    engine.run()
    keys = engine.executor._summaries
    receptions = [key for key in keys if key[1] == "on_recv"]
    assert receptions
    # the program calls symbolic(): every key holds the symbol counters
    # (node, handler, args, memory, packet, counters); a symbolic
    # payload adds the path condition
    assert all(len(key) == 7 and key[-1] is not None for key in receptions)
    assert all(isinstance(key[5], frozenset) for key in keys)
    assert any(key[1] == "on_timer" for key in keys)
    assert _audited(audit) > 0
    assert sum(executor.audited_symbolic for executor in audit) > 0


def _testcases(engine):
    """Every dscenario's test case, as node -> inputs, in mapper order."""
    cases = []
    for members in iter_dscenarios(engine.mapper):
        case = make_dscenario_testcase(members, engine.solver)
        cases.append(
            (case.feasible, {node: case.inputs_for_node(node) for node in members})
        )
    return cases


def test_testcases_of_summarized_states_equal_interpreted(audit, monkeypatch):
    """``symbolic()`` runs answered from summaries name and count their
    symbols as interpretation does, so test cases come out equal."""
    scenario = Scenario(
        name="symbolic-flood-line3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.line(3),
        horizon_ms=200,
    )
    summarized, interpreted = _run_both(monkeypatch, scenario, "sds")
    assert "on_timer" in summarized.executor.audited_handlers
    cases = _testcases(summarized)
    assert cases == _testcases(interpreted)
    assert any(inputs for _feasible, members in cases for inputs in members.values())


# ---------------------------------------------------------------------------
# Summaries are a cache: resumed and distributed runs report the same
# ---------------------------------------------------------------------------


def test_checkpoint_resume_equals_uninterrupted(audit, tmp_path):
    baseline_engine = build_engine(grid_scenario(3, sim_seconds=6), "sds")
    baseline = baseline_engine.run()
    assert baseline_engine.executor.summary_hits > 0
    engine = build_engine(grid_scenario(3, sim_seconds=6), "sds")
    engine.run_until(split_events=68)  # the events before 3000 ms
    path = tmp_path / "mid.sdeckpt"
    save_checkpoint(engine, path)
    resumed = resume_engine(path)
    assert resumed.executor._summaries == {}
    _assert_reports_match(resumed.run(), baseline)
    assert resumed.state_census() == baseline_engine.state_census()


def test_distributed_cut_equals_uninterrupted():
    scenario = flood_scenario(3, rounds=2)
    engine = build_engine(scenario, "sds")
    sequential = engine.run()
    assert engine.executor.summary_hits > 0
    report = DistributedRunner(
        scenario, "sds", workers=2, probe_events=2, steal=False
    ).run()
    assert report.jobs_dispatched >= 1
    _assert_matches_sequential(report, engine, sequential)

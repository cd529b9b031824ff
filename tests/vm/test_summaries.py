"""Event summaries at the executor level (docs/VM.md, "Summaries").

A repeat of an event is answered from the summary its first run
recorded.  These tests run the executor on the network-less
:class:`NullHost` (plus a packet for the property) and pin what a hit
must reproduce (memory, stacks, counts, ``log`` output, fresh symbols
and symbol counters, forks, branch decisions, the deterministic solver
counters and host effects) and what keeps an event out of the table
(solver use other than a jump, a host effect on a run with more than
one leaf, deaths) or apart in it (a different clock for a ``time()``
reader, different symbol counters for a ``symbolic()`` caller, a
different path condition for symbolic input).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.expr import bv, eq, ne, uge, ule, ult, var, zext
from repro.lang import compile_source
from repro.obs.metrics import Histogram, Timer
from repro.solver import EMPTY, as_constraint_set
from repro.vm import Executor, NullHost, Status
from repro.vm.state import FrozenMap
from repro.vm import executor as executor_module

from ..conftest import budget

COUNTER = """
var total;
var seen[4];
func main(n) {
    var i = 0;
    while (i < n) {
        total += i;
        i += 1;
    }
    seen[n % 4] = total;
    log(total, n);
    log(7);
}
"""


def _executor(source, **kwargs):
    return Executor(compile_source(source), **kwargs)


def _state_view(state):
    return (
        state.config_key(),
        state.trace,
        state.steps,
        state.symbolics,
        sorted(state.sym_counters.items()),
    )


class _Interpreting(Executor):
    """An executor that interprets every event: the reference."""

    def _lookup(self, state, func_name, args):
        return None, None


def test_repeat_is_a_hit_equal_to_interpretation():
    views = {}
    executors = {}
    for kind in (Executor, _Interpreting):
        ex = executors[kind] = kind(compile_source(COUNTER))
        states = [ex.make_initial_state(0) for _ in range(2)]
        for state in states:
            ex.run_event(state, "main", [9])
        views[kind] = [_state_view(state) for state in states]
    summarized, reference = executors[Executor], executors[_Interpreting]
    assert summarized.summary_hits == 1
    assert reference.summary_hits == 0
    assert views[Executor] == views[_Interpreting]
    assert summarized.instructions_executed == reference.instructions_executed
    assert summarized.visited_pcs == reference.visited_pcs


def test_hit_counts_instructions_as_interpretation():
    executor = _executor(COUNTER)
    state = executor.make_initial_state(0)
    executor.run_event(state, "main", [20])
    once = executor.instructions_executed
    again = executor.make_initial_state(0)
    executor.run_event(again, "main", [20])
    assert executor.summary_hits == 1
    assert executor.instructions_executed == 2 * once
    assert again.steps == state.steps


def test_log_output_is_replayed():
    executor = _executor(COUNTER)
    first = executor.make_initial_state(0)
    executor.run_event(first, "main", [5])
    second = executor.make_initial_state(0)
    second.trace = ((1,),)
    executor.run_event(second, "main", [5])
    assert executor.summary_hits == 1
    assert first.trace == ((10, 5), (7,))
    assert second.trace == ((1,), (10, 5), (7,))


def test_different_input_misses():
    executor = _executor(COUNTER)
    for arg in (3, 4):
        executor.run_event(executor.make_initial_state(0), "main", [arg])
    other_node = executor.make_initial_state(1)
    executor.run_event(other_node, "main", [3])
    changed = executor.make_initial_state(0)
    changed.memory[0] = 99
    executor.run_event(changed, "main", [3])
    assert executor.summary_hits == 0
    assert changed.memory[0] == 99 + 3


CLOCK_READER = """
var last;
func main() {
    last = time();
    log(last);
}
"""


def test_time_reader_misses_on_another_clock():
    executor = _executor(CLOCK_READER)
    traces = []
    for clock in (5, 5, 6):
        state = executor.make_initial_state(0)
        state.clock = clock
        executor.run_event(state, "main")
        traces.append(state.trace)
    assert executor.summary_hits == 1
    assert traces == [((5,),), ((5,),), ((6,),)]


def test_clock_is_no_input_without_time():
    executor = _executor(COUNTER)
    for clock in (5, 6):
        state = executor.make_initial_state(0)
        state.clock = clock
        executor.run_event(state, "main", [2])
    assert executor.summary_hits == 1


@pytest.mark.parametrize(
    "source, leaves",
    [
        # symbolic() called, result discarded: no fork, no constraint
        ("var k; func main() { var x = symbolic(\"x\"); k = 1; }", 1),
        # symbolic() feeding a branch: forks on a concrete key
        (
            "var k; func main() { var x = symbolic(\"x\");"
            " if (x > 3) { k = 1; } else { k = 2; } }",
            2,
        ),
        # a fresh symbol after the fork, on one path only
        (
            "var k; func main() { var x = symbolic(\"x\");"
            " if (x > 3) { k = symbolic(\"y\", 4); } else { k = 2; }"
            " log(k); }",
            2,
        ),
    ],
    ids=["discarded", "branch", "after-fork"],
)
def test_symbolic_calls_are_summarized(source, leaves):
    program = compile_source(source)
    views, hits = {}, {}
    for kind in (Executor, _Interpreting):
        executor = kind(program)
        runs = []
        for _ in range(3):
            state = executor.make_initial_state(0)
            runs.append(_views(executor.run_event(state, "main")))
        views[kind] = (runs, executor.forks, executor.instructions_executed)
        hits[kind] = executor.summary_hits
    assert hits == {Executor: 2, _Interpreting: 0}
    assert views[Executor] == views[_Interpreting]
    replayed = views[Executor][0][2]
    assert len(replayed) == leaves
    assert all(view[3][0] == ("n0.x", 32) for view in replayed)  # symbolics


def test_symbol_counters_are_input():
    source = "var k; func main() { k = symbolic(\"x\", 8); }"
    executor = _executor(source)
    state = executor.make_initial_state(0)
    for _ in range(3):  # each run makes the next name: a new key
        executor.run_event(state, "main")
    assert executor.summary_hits == 0
    assert state.symbolics == (("n0.x", 8), ("n0.x1", 8), ("n0.x2", 8))
    assert state.sym_counters == {"x": 3}
    later = []
    for _ in range(2):  # one more name each, from a counter of 1
        again = executor.make_initial_state(0)
        again.sym_counters = FrozenMap({"x": 1})
        again.symbolics = (("n0.x", 8),)
        executor.run_event(again, "main")
        later.append(again)
    assert executor.summary_hits == 1
    assert _views(later[1:]) == _views(later[:1])
    assert later[1].symbolics == (("n0.x", 8), ("n0.x1", 8))
    assert later[1].sym_counters == {"x": 2}
    assert later[1].memory[0] is zext(var("n0.x1", 8), 32)


def test_counters_of_other_tags_survive_a_replay():
    """A program without ``symbolic()`` keys no counters, so a replay
    leaves the state's own (a failure model's budget, say) alone."""
    executor = _executor(COUNTER)
    first = executor.make_initial_state(0)
    executor.run_event(first, "main", [3])
    second = executor.make_initial_state(0)
    second.sym_counters = FrozenMap({"drop": 1})
    executor.run_event(second, "main", [3])
    assert executor.summary_hits == 1
    assert second.sym_counters == {"drop": 1}
    assert second.symbolics == ()


def test_symbolic_assume_is_never_summarized():
    executor = _executor(
        "var k; func main() { var x = symbolic(\"x\"); assume(x > 3); k = 1; }"
    )
    for _ in range(3):
        executor.run_event(executor.make_initial_state(0), "main")
    assert executor.summary_hits == 0
    assert executor._summaries == {}


class _SendHost(NullHost):
    """:class:`NullHost` plus ``bc_send``, an effect: every send, run or
    replayed, lands in :attr:`sent` with its sender's path condition."""

    effects = frozenset(["bc_send"])

    def __init__(self):
        self.sent = []

    def syscall(self, state, name, args):
        if name == "bc_send":
            self.replay(state, [self.resolve(state, name, args)])
            return 0
        return super().syscall(state, name, args)

    def resolve(self, state, name, args):
        return (name, tuple(state.memory[args[0] : args[0] + args[1]]))

    def replay(self, state, effects):
        for _name, payload in effects:
            self.sent.append((state.node, state.constraints, payload))


@pytest.mark.parametrize(
    "body, summarized",
    [
        ("out[0] = symbolic(\"x\", 8); bc_send(out, 1);", True),
        (
            "var x = symbolic(\"x\"); if (x > 3) { out[0] = 1; } bc_send(out, 1);",
            False,
        ),
    ],
    ids=["one-leaf", "two-leaves"],
)
def test_only_one_leaf_keeps_host_effects(body, summarized):
    program = compile_source(f"var out[1]; func main() {{ {body} }}")
    runs, hits = {}, {}
    for kind in (Executor, _Interpreting):
        host = _SendHost()
        executor = kind(program, host=host)
        views = [
            _views(executor.run_event(executor.make_initial_state(0), "main"))
            for _ in range(3)
        ]
        runs[kind], hits[kind] = (views, host.sent), executor.summary_hits
    assert runs[Executor] == runs[_Interpreting]
    assert hits[Executor] == (2 if summarized else 0)
    assert len(runs[Executor][1]) == (3 if summarized else 6)


BRANCHY = "var x; var k; func main() { if (x > 3) { k = 1; } else { k = 2; } }"


def _views(states):
    return [_state_view(state) for state in states]


def _check_summarized_per_path_condition(source):
    """Run ``main`` with a symbolic ``x`` twice on the empty path
    condition and twice under ``x < 3``: two hits, one summary per
    path condition, everything equal to interpretation."""
    x = var("x")
    bounded = EMPTY.extended(ult(x, bv(3)))
    program = compile_source(source)
    executors = {kind: kind(program) for kind in (Executor, _Interpreting)}
    runs = {}
    for kind, executor in executors.items():
        forks = []
        results = []
        for constraints in (EMPTY, EMPTY, bounded, bounded):
            state = executor.make_initial_state(0)
            state.memory[0] = x
            state.constraints = constraints
            done = executor.run_event(
                state, "main", on_fork=lambda parent, children: forks.append(
                    (parent.constraints, [c.constraints for c in children])
                )
            )
            results.append(_views(done))
        solver = executor.solver
        runs[kind] = (
            results,
            forks,
            executor.forks,
            executor.instructions_executed,
            semantic_counters(solver),
        )
    assert runs[Executor] == runs[_Interpreting]
    # both arms on the empty path condition, one under x < 3
    assert [len(done) for done in runs[Executor][0]] == [2, 2, 1, 1]
    summarized = executors[Executor]
    assert summarized.summary_hits == 2
    assert {key[-1] for key in summarized._summaries} == {EMPTY, bounded}


def test_symbolic_memory_is_summarized_per_path_condition():
    _check_summarized_per_path_condition(BRANCHY)


def test_symbolic_caller_is_summarized_per_path_condition():
    """A program that calls ``symbolic()`` scans its cells before its
    one lookup; a symbolic cell still puts the path condition in the
    key."""
    _check_summarized_per_path_condition(
        'var x; var k; func main() { var t = symbolic("t");'
        " if (x > 3) { k = t; } else { k = 2; } }"
    )


@pytest.mark.parametrize(
    "source",
    [
        "var x; var k; func main() { k = 10 / x; }",
        "var x; var k[4]; func main() { k[x] = 1; }",
        "var x; var k; func main() { assert(x > 3); k = 1; }",
        "var x; var k; func main() { assume(x > 3); k = 1; }",
        "var x; var k; func main() { if (x > 3) { k = 1; } else { fail(2); } }",
    ],
    ids=["divide", "index", "assert", "assume", "death"],
)
def test_symbolic_input_other_than_jumps_is_never_summarized(source):
    executor = _executor(source)
    x = var("x")
    for _ in range(2):
        state = executor.make_initial_state(0)
        state.memory[0] = x
        executor.run_event(state, "main")
    assert executor.summary_hits == 0
    assert executor._summaries == {}


def test_log_on_symbolic_input_is_replayed_per_leaf():
    source = (
        "var x; var k; func main() { if (x > 3) { log(k, x); } else { log(k); }"
        " k = 1; }"
    )
    program = compile_source(source)
    x = var("x")
    views, hits = {}, {}
    for kind in (Executor, _Interpreting):
        executor = kind(program)
        runs = []
        for _ in range(2):
            state = executor.make_initial_state(0)
            state.memory[0] = x
            runs.append(_views(executor.run_event(state, "main")))
        views[kind], hits[kind] = runs, executor.summary_hits
    assert hits == {Executor: 1, _Interpreting: 0}
    assert views[Executor] == views[_Interpreting]
    assert [view[1] for view in views[Executor][1]] == [((0,),), ((0, x),)]


def test_deaths_are_never_summarized():
    loop = "var k; func main() { while (1) { k += 1; k -= 1; } }"
    executor = _executor(loop, max_steps_per_event=500)
    failing = _executor("var k; func main() { k = 1; assert(k == 2); }")
    for ex in (executor, failing):
        for _ in range(2):
            state = ex.make_initial_state(0)
            (done,) = ex.run_event(state, "main")
            assert done.status == Status.ERROR
        assert ex.summary_hits == 0
        assert ex._summaries == {}


def test_table_is_bounded(monkeypatch):
    monkeypatch.setattr(executor_module, "SUMMARY_LIMIT", 3)
    executor = _executor(COUNTER)
    for arg in range(6):
        executor.run_event(executor.make_initial_state(0), "main", [arg])
    assert len(executor._summaries) == 3
    # the oldest entries made room; the newest still hit
    executor.run_event(executor.make_initial_state(0), "main", [5])
    executor.run_event(executor.make_initial_state(0), "main", [0])
    assert executor.summary_hits == 1


def test_fused_and_unfused_summaries_agree():
    results = []
    for fuse in (True, False):
        executor = _executor(COUNTER, fuse_ops=fuse)
        states = [executor.make_initial_state(0) for _ in range(2)]
        for state in states:
            executor.run_event(state, "main", [11])
        results.append(
            ([_state_view(s) for s in states], executor.instructions_executed)
        )
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Property: a summarizing executor equals the interpreting one
# ---------------------------------------------------------------------------


class _PacketHost(_SendHost):
    """:class:`_SendHost` plus a packet: ``state.current_packet`` holds
    payload cells, which ``recv_byte`` reads."""

    def event_input(self, state):
        return state.current_packet or ()

    def syscall(self, state, name, args):
        if name == "recv_byte":
            return state.current_packet[args[0]]
        return super().syscall(state, name, args)


#: ``s`` is a fresh symbol made before the forks, or a constant
_OPERANDS = ("v", "m", "k", "s")
_COMPARISONS = (">", "<", "==", "!=", ">=", "<=")
_SEND = "out[0] = k; bc_send(out, 1);"


@st.composite
def _branches(draw, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(
            st.sampled_from(
                [
                    f"k += {draw(st.integers(1, 9))};",
                    'k += symbolic("t", 4);',  # a fresh symbol after forks
                    _SEND,
                ]
            )
        )
    operand = draw(st.sampled_from(_OPERANDS))
    comparison = draw(st.sampled_from(_COMPARISONS))
    bound = draw(st.integers(0, 12))
    then = draw(_branches(depth - 1))
    otherwise = draw(_branches(depth - 1))
    return (
        f"if ({operand} {comparison} {bound}) {{ {then} }}"
        f" else {{ {otherwise} }} k += 1;"
    )


@st.composite
def _handler_runs(draw):
    """A handler with nested branches over a payload cell ``v``, a
    memory cell ``m`` and maybe a fresh symbol ``s``, fresh symbols and
    sends on some paths and maybe on all, path conditions, and a stream
    of events with repeats (path condition, payload, memory, the symbol
    counter of ``s``)."""
    body = " ".join(draw(st.lists(_branches(3), min_size=1, max_size=2)))
    prelude = draw(st.sampled_from(['var s = symbolic("s", 8);', "var s = 2;"]))
    epilogue = draw(st.sampled_from([_SEND, ""]))
    source = (
        "var m; var k; var out[1]; func main() {"
        f" var v = recv_byte(0); {prelude} {body} {epilogue} }}"
    )
    p, q = var("p"), var("q")
    atoms = [ult(p, bv(4)), uge(p, bv(6)), ule(q, bv(2)), ne(q, bv(5)), eq(p, q)]
    conditions = draw(
        st.lists(st.lists(st.sampled_from(atoms), max_size=2), min_size=1, max_size=3)
    )
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(conditions) - 1),
                st.sampled_from([p, 3, 7]),
                st.sampled_from([q, 1, 5]),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=8,
        )
    )
    return source, conditions, events


def _two_path_conditions(prelude):
    """``v > 5`` on the payload cell ``p`` under ``p < 4``, then twice
    under ``p >= 6``: the conditions decide the branch opposite ways, so
    only the third event may hit.  Random event streams rarely hold
    such a pair; the ``prelude`` picks the lookup branch (a program
    that calls ``symbolic()`` or one that does not)."""
    source = (
        "var m; var k; var out[1]; func main() { var v = recv_byte(0);"
        f" {prelude} if (v > 5) {{ k += 1; }} else {{ k += 2; }} }}"
    )
    p = var("p")
    events = [(0, p, 1, 0), (1, p, 1, 0), (1, p, 1, 0)]
    return source, [[ult(p, bv(4))], [uge(p, bv(6))]], events


#: Solver handles that move with memo and cache state (docs/SOLVER.md,
#: "Determinism contract"); a replay asks nothing, so they may differ.
_VOLATILE = ("solver.backend.", "solver.shortcuts.", "solver.simplify.", "solve.search")


def semantic_counters(solver):
    """Every deterministic solver handle by name: counter values, the
    query-size histogram's data and the ``solve`` timer's entry count."""
    view = {}
    for handle in solver.handles:
        if handle.name.startswith(_VOLATILE):
            continue
        if isinstance(handle, Histogram):
            view[handle.name] = handle.data()
        elif isinstance(handle, Timer):
            view[handle.name] = handle.count
        else:
            view[handle.name] = handle.value
    return view


def _run_events(kind, source, conditions, events):
    """Every event's results, the fork callbacks, the counters and the
    sends."""
    host = _PacketHost()
    executor = kind(compile_source(source), host=host)
    # A fresh chain per executor and condition, so no two executors share
    # the memos of a path-condition node.
    bound = [ult(var("p"), bv(200))]
    chains = [as_constraint_set(bound + atoms) for atoms in conditions]
    forks = []
    results = []
    for index, payload, cell, counter in events:
        state = executor.make_initial_state(0)
        state.memory[0] = cell
        if counter:
            state.sym_counters = FrozenMap({"s": counter})
        state.constraints = chains[index]
        state.current_packet = (payload,)
        done = executor.run_event(
            state,
            "main",
            on_fork=lambda parent, children: forks.append(
                (parent.constraints, [c.constraints for c in children])
            ),
        )
        results.append(_views(done))
    counters = (
        executor.forks,
        executor.instructions_executed,
        semantic_counters(executor.solver),
    )
    return (results, forks, counters, host.sent), executor.summary_hits


@settings(
    max_examples=budget(60),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_handler_runs())
@example(_two_path_conditions('var s = symbolic("s", 8);'))
@example(_two_path_conditions("var s = 2;"))
def test_summaries_equal_interpretation_on_symbolic_branches(runs):
    source, conditions, events = runs
    summarized, _ = _run_events(Executor, source, conditions, events)
    interpreted, hits = _run_events(_Interpreting, source, conditions, events)
    assert hits == 0
    assert summarized == interpreted

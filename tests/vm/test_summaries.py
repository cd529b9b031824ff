"""Event summaries at the executor level (docs/VM.md, "Summaries").

A repeat of an event is answered from the summary its first run
recorded.  These tests run the executor on the network-less
:class:`NullHost` (plus a packet for the property) and pin what a hit
must reproduce (memory, stacks, counts, ``log`` output, forks, branch
decisions and solver counters) and what keeps an event out of the
table (``symbolic()``, solver use other than a jump, a host effect or
``log`` output on symbolic input, deaths, a different clock for a
``time()`` reader, a different path condition for symbolic input).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expr import bv, eq, ne, uge, ule, ult, var
from repro.lang import compile_source
from repro.solver import EMPTY, as_constraint_set
from repro.vm import Executor, NullHost, Status
from repro.vm import executor as executor_module

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
    return (state.config_key(), state.trace, state.steps, state.symbolics)


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
    "source",
    [
        # symbolic() called, result discarded: no fork, no constraint
        "var k; func main() { var x = symbolic(\"x\"); k = 1; }",
        # symbolic() feeding a branch: forks
        "var k; func main() { var x = symbolic(\"x\");"
        " if (x > 3) { k = 1; } else { k = 2; } }",
        # assume() on symbolic data: a constraint, no fork
        "var k; func main() { var x = symbolic(\"x\"); assume(x > 3); k = 1; }",
    ],
)
def test_symbolic_events_are_never_summarized(source):
    executor = _executor(source)
    finals = []
    for _ in range(3):
        state = executor.make_initial_state(0)
        finals.append(executor.run_event(state, "main"))
    assert executor.summary_hits == 0
    assert executor._summaries == {}
    assert [len(done) for done in finals] == [len(finals[0])] * 3


BRANCHY = "var x; var k; func main() { if (x > 3) { k = 1; } else { k = 2; } }"


def _views(states):
    return [_state_view(state) for state in states]


def test_symbolic_memory_is_summarized_per_path_condition():
    x = var("x")
    bounded = EMPTY.extended(ult(x, bv(3)))
    program = compile_source(BRANCHY)
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
            solver.queries.value,
            solver.sat_results.value,
        )
    assert runs[Executor] == runs[_Interpreting]
    # both arms on the empty path condition, one under x < 3
    assert [len(done) for done in runs[Executor][0]] == [2, 2, 1, 1]
    summarized = executors[Executor]
    assert summarized.summary_hits == 2
    assert {key[-1] for key in summarized._summaries} == {EMPTY, bounded}


@pytest.mark.parametrize(
    "source",
    [
        "var x; var k; func main() { k = 10 / x; }",
        "var x; var k[4]; func main() { k[x] = 1; }",
        "var x; var k; func main() { assert(x > 3); k = 1; }",
        "var x; var k; func main() { assume(x > 3); k = 1; }",
        "var x; var k; func main() { if (x > 3) { log(k); } k = 1; }",
        "var x; var k; func main() { if (x > 3) { k = 1; } else { fail(2); } }",
    ],
    ids=["divide", "index", "assert", "assume", "log", "death"],
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


class _PacketHost(NullHost):
    """:class:`NullHost` plus a packet: ``state.current_packet`` holds
    payload cells, which ``recv_byte`` reads."""

    def event_input(self, state):
        return state.current_packet or ()

    def syscall(self, state, name, args):
        if name == "recv_byte":
            return state.current_packet[args[0]]
        return super().syscall(state, name, args)


_OPERANDS = ("v", "m", "k")
_COMPARISONS = (">", "<", "==", "!=", ">=", "<=")


@st.composite
def _branches(draw, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return f"k += {draw(st.integers(1, 9))};"
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
    """A handler with nested branches over a payload cell ``v`` and a
    memory cell ``m``, path conditions, and a stream of events with
    repeats (path condition, payload, memory)."""
    body = " ".join(draw(st.lists(_branches(3), min_size=1, max_size=2)))
    source = f"var m; var k; func main() {{ var v = recv_byte(0); {body} }}"
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
            ),
            min_size=2,
            max_size=8,
        )
    )
    return source, conditions, events


def _solver_counters(solver):
    return [(handle.name, getattr(handle, "value", None)) for handle in solver.handles]


def _run_events(kind, source, conditions, events):
    """Every event's results, the fork callbacks and the counters."""
    executor = kind(compile_source(source), host=_PacketHost())
    # A fresh chain per executor and condition, so no two executors share
    # the memos of a path-condition node.
    bound = [ult(var("p"), bv(200))]
    chains = [as_constraint_set(bound + atoms) for atoms in conditions]
    forks = []
    results = []
    for index, payload, cell in events:
        state = executor.make_initial_state(0)
        state.memory[0] = cell
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
        _solver_counters(executor.solver),
    )
    return (results, forks, counters), executor.summary_hits


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_handler_runs())
def test_summaries_equal_interpretation_on_symbolic_branches(runs):
    source, conditions, events = runs
    summarized, _ = _run_events(Executor, source, conditions, events)
    interpreted, hits = _run_events(_Interpreting, source, conditions, events)
    assert hits == 0
    assert summarized == interpreted

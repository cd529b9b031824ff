"""Event summaries at the executor level (docs/VM.md, "Summaries").

A repeat of a concrete-input event is answered from the summary its
first run recorded.  These tests run the executor on the network-less
:class:`NullHost` and pin what a hit must reproduce (memory, stacks,
counts, ``log`` output) and what keeps an event out of the table
(symbolic input, ``symbolic()``, forks, deaths, a different clock for a
``time()`` reader).
"""

import pytest

from repro.expr import var
from repro.lang import compile_source
from repro.vm import Executor, Status
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

    def _summary_key(self, state, func_name, args):
        return None


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


def test_symbolic_memory_is_never_summarized():
    source = "var x; var k; func main() { if (x > 3) { k = 1; } else { k = 2; } }"
    executor = _executor(source)
    for _ in range(2):
        state = executor.make_initial_state(0)
        state.memory[0] = var("x")
        assert len(executor.run_event(state, "main")) == 2
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

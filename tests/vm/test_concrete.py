"""VM tests with fully concrete programs (no forking)."""

import pytest

from repro.lang import compile_source
from repro.vm import Executor, Status


def run(source, entry="main", args=(), node=0):
    """Compile, run one event, return (states, executor)."""
    program = compile_source(source)
    executor = Executor(program)
    state = executor.make_initial_state(node)
    states = executor.run_event(state, entry, args)
    return states, executor


def run_single(source, entry="main", args=()):
    states, _ = run(source, entry, args)
    assert len(states) == 1, states
    return states[0]


def global_value(state, program_source, name):
    from repro.lang import compile_source as cs

    return state.memory[cs(program_source).global_address(name)]


class TestStraightLine:
    def test_arithmetic(self):
        src = "var r; func main() { r = 2 + 3 * 4 - 1; }"
        state = run_single(src)
        assert global_value(state, src, "r") == 13

    def test_signed_division(self):
        src = "var q; var m; func main() { q = -7 / 2; m = -7 % 2; }"
        state = run_single(src)
        assert global_value(state, src, "q") == 0xFFFFFFFD  # -3
        assert global_value(state, src, "m") == 0xFFFFFFFF  # -1

    def test_bitwise_and_shifts(self):
        src = """
        var a; var b; var c;
        func main() {
            a = 0xF0 & 0x3C;
            b = 1 << 10;
            c = -16 >> 2;
        }
        """
        state = run_single(src)
        assert global_value(state, src, "a") == 0x30
        assert global_value(state, src, "b") == 1024
        assert global_value(state, src, "c") == 0xFFFFFFFC  # -4, arithmetic

    def test_wrapping(self):
        src = "var r; func main() { r = 0x7fffffff + 1; }"
        state = run_single(src)
        assert global_value(state, src, "r") == 0x80000000

    def test_global_initializers(self):
        src = "var a = 7; var b; func main() { b = a; }"
        state = run_single(src)
        assert global_value(state, src, "b") == 7


class TestControlFlow:
    def test_if_else(self):
        src = """
        var r;
        func main(x) {
            if (x > 10) { r = 1; } else { r = 2; }
        }
        """
        assert global_value(run_single(src, args=[20]), src, "r") == 1
        assert global_value(run_single(src, args=[5]), src, "r") == 2

    def test_signed_comparison_in_branch(self):
        src = "var r; func main(x) { if (x < 0) { r = 1; } }"
        minus_one = 0xFFFFFFFF
        assert global_value(run_single(src, args=[minus_one]), src, "r") == 1

    def test_while_loop(self):
        src = """
        var total;
        func main() {
            var i = 0;
            while (i < 5) { total += i; i += 1; }
        }
        """
        assert global_value(run_single(src), src, "total") == 10

    def test_for_loop_with_break_continue(self):
        src = """
        var total;
        func main() {
            for (var i = 0; i < 10; i += 1) {
                if (i == 3) { continue; }
                if (i == 6) { break; }
                total += i;
            }
        }
        """
        # 0+1+2+4+5 = 12
        assert global_value(run_single(src), src, "total") == 12

    def test_short_circuit_evaluation(self):
        src = """
        var calls;
        func side() { calls += 1; return 1; }
        func main(x) {
            var a = x && side();
            var b = x || side();
        }
        """
        state = run_single(src, args=[0])
        # x=0: && short-circuits (no call), || evaluates side once.
        assert global_value(state, src, "calls") == 1

    def test_ternary(self):
        src = "var r; func main(x) { r = x ? 10 : 20; }"
        assert global_value(run_single(src, args=[1]), src, "r") == 10
        assert global_value(run_single(src, args=[0]), src, "r") == 20


class TestFunctions:
    def test_call_and_return(self):
        src = """
        var r;
        func addmul(a, b, c) { return a + b * c; }
        func main() { r = addmul(1, 2, 3); }
        """
        assert global_value(run_single(src), src, "r") == 7

    def test_nested_calls(self):
        src = """
        var r;
        func inc(x) { return x + 1; }
        func twice(x) { return inc(inc(x)); }
        func main() { r = twice(5); }
        """
        assert global_value(run_single(src), src, "r") == 7

    def test_void_return_yields_zero(self):
        src = """
        var r;
        func nothing() { return; }
        func main() { r = nothing() + 5; }
        """
        assert global_value(run_single(src), src, "r") == 5

    def test_handler_args(self):
        src = "var r; func on_timer(tid) { r = tid * 2; }"
        state = run_single(src, entry="on_timer", args=[21])
        assert global_value(state, src, "r") == 42

    def test_missing_entry_raises(self):
        program = compile_source("func main() { }")
        executor = Executor(program)
        state = executor.make_initial_state()
        with pytest.raises(KeyError):
            executor.run_event(state, "no_such_handler")


class TestArrays:
    def test_store_load(self):
        src = """
        var a[4]; var r;
        func main() {
            a[0] = 10; a[3] = 40;
            r = a[0] + a[3];
        }
        """
        assert global_value(run_single(src), src, "r") == 50

    def test_loop_fill(self):
        src = """
        var a[8]; var r;
        func main() {
            for (var i = 0; i < 8; i += 1) { a[i] = i * i; }
            r = a[7];
        }
        """
        assert global_value(run_single(src), src, "r") == 49

    def test_compound_element_assign(self):
        src = "var a[2]; var r; func main() { a[1] = 5; a[1] += 3; r = a[1]; }"
        assert global_value(run_single(src), src, "r") == 8

    def test_peek_poke_via_decay(self):
        src = """
        var buf[4]; var r;
        func main() {
            poke(buf + 2, 99);
            r = peek(buf + 2) + buf[2];
        }
        """
        assert global_value(run_single(src), src, "r") == 198


class TestBuiltins:
    def test_min_max_abs(self):
        src = """
        var a; var b; var c;
        func main() {
            a = min(3, -5);
            b = max(3, -5);
            c = abs(-5);
        }
        """
        state = run_single(src)
        assert global_value(state, src, "a") == 0xFFFFFFFB  # -5
        assert global_value(state, src, "b") == 3
        assert global_value(state, src, "c") == 5

    def test_lshr_vs_ashr(self):
        src = "var a; var b; func main() { a = lshr(-4, 1); b = -4 >> 1; }"
        state = run_single(src)
        assert global_value(state, src, "a") == 0x7FFFFFFE
        assert global_value(state, src, "b") == 0xFFFFFFFE

    def test_log_records_trace(self):
        src = "func main() { log(1, 2); log(3); }"
        state = run_single(src)
        assert state.trace == ((1, 2), (3,))

    def test_node_id(self):
        src = "var r; func main() { r = node_id(); }"
        states, _ = run(src, node=7)
        assert global_value(states[0], src, "r") == 7


class TestEventCompletion:
    def test_state_idle_after_event(self):
        state = run_single("func main() { }")
        assert state.status == Status.IDLE
        # Between events a state is a value: empty tuple stacks, frozen memory.
        assert state.call_stack == ()
        assert state.opstack == ()
        assert type(state.memory) is tuple

    def test_steps_counted(self):
        state = run_single("func main() { var x = 1 + 2; }")
        assert state.steps > 0

    def test_step_limit(self):
        program = compile_source("func main() { while (1) { } }")
        executor = Executor(program, max_steps_per_event=1000)
        state = executor.make_initial_state()
        states = executor.run_event(state, "main")
        assert len(states) == 1
        assert states[0].status == Status.ERROR
        assert "step" in states[0].error.kind

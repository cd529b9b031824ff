"""Symbolic execution tests: forking, path constraints, error detection,
and concrete replay of generated models (the KLEE test-case property)."""


from repro.expr import evaluate
from repro.lang import compile_source
from repro.solver import Solver
from repro.vm import ErrorKind, Executor, Status


def run(source, entry="main", args=(), max_steps=100_000):
    program = compile_source(source)
    executor = Executor(program, Solver(), max_steps_per_event=max_steps)
    state = executor.make_initial_state(0)
    states = executor.run_event(state, entry, args)
    return states, executor, program


def completed(states):
    return [s for s in states if s.status == Status.IDLE]


def errored(states):
    return [s for s in states if s.status == Status.ERROR]


def solve_global(executor, program, state, name):
    """Concrete value of global ``name`` under a model of the state's path."""
    model = executor.solver.get_model(state.constraints)
    cell = state.memory[program.global_address(name)]
    if isinstance(cell, int):
        return cell
    env = {var_name: model.get(var_name, 0) for var_name, _ in state.symbolics}
    return evaluate(cell, env)


class TestForkOnBranch:
    def test_two_way_fork(self):
        src = """
        var r;
        func main() {
            var x = symbolic("x");
            if (x == 0) { r = 1; } else { r = 2; }
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 2
        results = sorted(solve_global(executor, program, s, "r") for s in done)
        assert results == [1, 2]

    def test_figure1_four_paths(self):
        """The paper's Figure 1 program explores exactly four paths, and the
        generated test cases satisfy each path's description."""
        src = """
        var path;
        func main() {
            var x = symbolic("x");
            if (x == 0) { path = 1; }
            else {
                if (x < 50) {
                    if (x > 10) { path = 2; } else { path = 3; }
                } else { path = 4; }
            }
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 4
        seen = {}
        for state in done:
            path = solve_global(executor, program, state, "path")
            model = executor.solver.get_model(state.constraints)
            x = model.get("n0.x", 0)
            sx = x if x < 2**31 else x - 2**32
            seen[path] = sx
        assert set(seen) == {1, 2, 3, 4}
        assert seen[1] == 0
        assert 10 < seen[2] < 50
        assert seen[3] != 0 and seen[3] <= 10
        assert seen[4] >= 50

    def test_path_constraints_disjoint(self):
        src = """
        func main() {
            var x = symbolic("x");
            if (x < 100) { } else { }
        }
        """
        states, executor, _ = run(src)
        done = completed(states)
        assert len(done) == 2
        # The conjunction of both paths' constraints is unsatisfiable.
        combined = list(done[0].constraints) + list(done[1].constraints)
        assert executor.solver.check(combined) is None

    def test_no_fork_when_direction_implied(self):
        src = """
        var r;
        func main() {
            var x = symbolic("x");
            assume(x < 10);
            if (x < 100) { r = 1; } else { r = 2; }
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 1
        assert solve_global(executor, program, done[0], "r") == 1

    def test_fork_count_statistic(self):
        src = """
        func main() {
            var a = symbolic("a");
            var b = symbolic("b");
            if (a) { }
            if (b) { }
        }
        """
        states, executor, _ = run(src)
        assert len(completed(states)) == 4
        assert executor.forks == 3  # 1 (first if) + 2 (second if on each path)

    def test_symbolic_loop_bound(self):
        src = """
        var total;
        func main() {
            var n = symbolic("n");
            assume(n < 4);   // unsigned: n in {0,1,2,3}
            var i = 0;
            while (i < n) { total += 1; i += 1; }
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 4
        totals = sorted(solve_global(executor, program, s, "total") for s in done)
        assert totals == [0, 1, 2, 3]


class TestSymbolicData:
    def test_symbolic_width(self):
        src = """
        var r;
        func main() {
            var d = symbolic("d", 1);
            r = d;
        }
        """
        states, _, _ = run(src)
        state = states[0]
        assert state.symbolics == (("n0.d", 1),)

    def test_symbolic_names_are_sequenced(self):
        src = """
        func main() {
            var a = symbolic("x");
            var b = symbolic("x");
            var c = symbolic("y");
        }
        """
        states, _, _ = run(src)
        names = [name for name, _ in states[0].symbolics]
        assert names == ["n0.x", "n0.x1", "n0.y"]

    def test_symbolic_arithmetic_folds_concretely(self):
        # (x - x) is concrete zero: no fork on the following branch.
        src = """
        var r;
        func main() {
            var x = symbolic("x");
            if (x - x) { r = 1; } else { r = 2; }
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 1
        assert solve_global(executor, program, done[0], "r") == 2

    def test_assume_infeasible_kills_state(self):
        src = """
        func main() {
            var x = symbolic("x");
            assume(x < 5);
            assume(x > 10);
        }
        """
        states, _, _ = run(src)
        assert len(states) == 1
        assert states[0].status == Status.INFEASIBLE


class TestErrorStates:
    def test_concrete_assertion_failure(self):
        states, _, _ = run("func main() { assert(0); }")
        errors = errored(states)
        assert len(errors) == 1
        assert errors[0].error.kind == ErrorKind.ASSERTION

    def test_symbolic_assertion_forks_error(self):
        src = """
        func main() {
            var x = symbolic("x");
            assert(x != 7, 42);
        }
        """
        states, executor, _ = run(src)
        errors = errored(states)
        done = completed(states)
        assert len(errors) == 1 and len(done) == 1
        assert errors[0].error.code == 42
        # The error path's test case must set x to exactly 7.
        model = executor.solver.get_model(errors[0].constraints)
        assert model["n0.x"] == 7

    def test_assertion_that_always_holds(self):
        src = """
        func main() {
            var x = symbolic("x");
            assume(x < 5);
            assert(x < 10);
        }
        """
        states, _, _ = run(src)
        assert not errored(states)

    def test_division_by_symbolic_zero(self):
        src = """
        var r;
        func main() {
            var d = symbolic("d");
            r = 100 / d;
        }
        """
        states, executor, _ = run(src)
        errors = errored(states)
        assert len(errors) == 1
        assert errors[0].error.kind == ErrorKind.DIVISION_BY_ZERO
        model = executor.solver.get_model(errors[0].constraints)
        assert model["n0.d"] == 0
        # The surviving path is constrained to d != 0.
        survivors = completed(states)
        assert len(survivors) == 1
        assert not executor.solver.may_be_true(
            survivors[0].constraints, _eq_zero("n0.d")
        )

    def test_concrete_division_by_zero(self):
        states, _, _ = run("var r; func main() { r = 1 / 0; }")
        assert errored(states)[0].error.kind == ErrorKind.DIVISION_BY_ZERO

    def test_out_of_bounds_concrete(self):
        states, _, _ = run("var a[4]; func main() { a[5] = 1; }")
        assert errored(states)[0].error.kind == ErrorKind.OUT_OF_BOUNDS

    def test_negative_index_is_out_of_bounds(self):
        states, _, _ = run("var a[4]; var r; func main() { r = a[-1]; }")
        assert errored(states)[0].error.kind == ErrorKind.OUT_OF_BOUNDS

    def test_fail_builtin(self):
        states, _, _ = run("func main() { fail(9); }")
        error = errored(states)[0].error
        assert error.kind == ErrorKind.EXPLICIT_FAIL
        assert error.code == 9


class TestSymbolicIndex:
    def test_concretization_forks_per_value(self):
        src = """
        var a[3]; var r;
        func main() {
            a[0] = 10; a[1] = 20; a[2] = 30;
            var i = symbolic("i");
            assume(i < 3);
            r = a[i];
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 3
        values = sorted(solve_global(executor, program, s, "r") for s in done)
        assert values == [10, 20, 30]

    def test_unconstrained_index_spawns_oob_error(self):
        src = """
        var a[2]; var r;
        func main() {
            var i = symbolic("i");
            r = a[i];
        }
        """
        states, _, _ = run(src)
        assert len(errored(states)) == 1
        assert errored(states)[0].error.kind == ErrorKind.OUT_OF_BOUNDS
        assert len(completed(states)) == 2

    def test_symbolic_store_targets_each_slot(self):
        src = """
        var a[2]; var r;
        func main() {
            var i = symbolic("i");
            assume(i < 2);
            a[i] = 9;
            r = a[0] + a[1];
        }
        """
        states, executor, program = run(src)
        done = completed(states)
        assert len(done) == 2
        for state in done:
            assert solve_global(executor, program, state, "r") == 9


class TestReplayDeterminism:
    def test_concrete_replay_reaches_same_path(self):
        """Solve a path's constraints, re-run the program with the concrete
        value wired in, and check the replay takes the same path — the
        "concrete test case" property symbolic execution promises."""
        template = """
        var r;
        func main() {
            var x = %s;
            if (x == 0) { r = 1; }
            else { if (x < 50) { r = 2; } else { r = 3; } }
        }
        """
        states, executor, program = run(template % 'symbolic("x")')
        for state in completed(states):
            model = executor.solver.get_model(state.constraints)
            x = model.get("n0.x", 0)
            symbolic_r = solve_global(executor, program, state, "r")
            replay_states, replay_exec, replay_prog = run(template % x)
            assert len(replay_states) == 1
            replay_r = replay_states[0].memory[replay_prog.global_address("r")]
            assert replay_r == symbolic_r


def _eq_zero(name):
    from repro.expr import bv, eq, var

    return eq(var(name, 32), bv(0))

"""Interpreter dispatch: pre-decoding, superinstruction fusion, and
fused-vs-unfused bit-identity.

Superinstructions must be an implementation detail of the threaded
interpreter: the unfused base-ISA decoding is the baseline, with
identical final memory, identical instruction
counts, identical visited-pc coverage, identical forks and path
constraints.  Fusion is slot-preserving — a fused instruction occupies
the first constituent's slot and the remaining slots keep the original
decoded instructions — so jumps into the middle of a former pair still
land on real code, and a pc that *is* a jump target is never swallowed.
"""

import pickle

from repro.expr import evaluate
from repro.lang import compile_source
from repro.lang.bytecode import Op, find_back_edges
from repro.solver import Solver
from repro.vm import Executor, Status

COUNT_LOOP = """
var acc;
func main(n) {
    var i = 0;
    while (i < n) {
        acc = (acc + i) ^ (i << 3);
        i += 1;
    }
}
"""

SYMBOLIC_BRANCHES = """
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


def _run(source, entry="main", args=(), **executor_kwargs):
    program = compile_source(source)
    executor = Executor(program, Solver(), **executor_kwargs)
    state = executor.make_initial_state(0)
    states = executor.run_event(state, entry, args)
    return states, executor, program


def _superops(decoded):
    return {op for op, _, _ in decoded.code if op >= int(Op.LOAD_LOAD)}


class TestDecoding:
    def test_slot_preserving(self):
        program = compile_source(COUNT_LOOP)
        decoded = program.decoded(fuse=True)
        assert len(decoded.code) == len(program.code)

    def test_fusion_finds_pairs_in_hot_loop(self):
        program = compile_source(COUNT_LOOP)
        decoded = program.decoded(fuse=True)
        assert decoded.fused > 0
        # The loop compare feeds a conditional jump: a CMP_JZ/CMP_JNZ
        # superinstruction must appear.
        assert _superops(decoded) & {int(Op.CMP_JZ), int(Op.CMP_JNZ)}

    def test_fuse_off_emits_base_isa_only(self):
        program = compile_source(COUNT_LOOP)
        decoded = program.decoded(fuse=False)
        assert decoded.fused == 0
        assert not _superops(decoded)

    def test_jump_targets_never_swallowed(self):
        program = compile_source(COUNT_LOOP)
        decoded = program.decoded(fuse=True)
        for target in decoded.jump_targets:
            op, _, _ = decoded.code[target]
            # A jump target must hold a real instruction boundary: either
            # an unfused base op, or the *start* of a superinstruction —
            # never be hidden inside one.  Slot preservation guarantees
            # the slot still holds the original op when its predecessor
            # fused past it, so every target's op is executable as-is.
            assert op in {int(o) for o in Op}

    def test_decode_is_cached_per_fuse_mode(self):
        program = compile_source(COUNT_LOOP)
        assert program.decoded(fuse=True) is program.decoded(fuse=True)
        assert program.decoded(fuse=False) is program.decoded(fuse=False)
        assert program.decoded(fuse=True) is not program.decoded(fuse=False)

    def test_pickle_drops_decode_cache(self):
        program = compile_source(COUNT_LOOP)
        program.decoded(fuse=True)
        clone = pickle.loads(pickle.dumps(program))
        assert clone._decoded == {}
        # ...and re-decoding the clone reproduces the same code.
        assert clone.decoded(fuse=True).code == program.decoded(fuse=True).code


class TestBackEdges:
    def test_while_loop_has_back_edge(self):
        program = compile_source(COUNT_LOOP)
        edges = find_back_edges(program)
        assert edges, "while loop must produce a back-edge"
        for jump_pc, target in edges:
            assert target <= jump_pc

    def test_loop_header_recorded(self):
        program = compile_source(COUNT_LOOP)
        decoded = program.decoded(fuse=True)
        assert decoded.back_edges
        assert decoded.loop_headers == frozenset(
            target for _, target in decoded.back_edges
        )

    def test_straight_line_has_none(self):
        program = compile_source("var r; func main() { r = 1 + 2; }")
        assert find_back_edges(program) == ()


class TestConcreteEquivalence:
    def _ab(self, **variant):
        states, executor, program = _run(COUNT_LOOP, args=[500], **variant)
        assert len(states) == 1
        acc = states[0].memory[program.global_address("acc")]
        return (
            acc,
            executor.instructions_executed,
            frozenset(executor.visited_pcs),
            states[0].steps,
        )

    def test_threaded_matches_baseline(self):
        """Fused dispatch == the unfused base-ISA baseline."""
        assert self._ab() == self._ab(fuse_ops=False)


class TestSymbolicEquivalence:
    def _paths(self, **variant):
        states, executor, program = _run(SYMBOLIC_BRANCHES, **variant)
        done = [s for s in states if s.status == Status.IDLE]
        solver = executor.solver
        results = []
        for state in done:
            model = solver.get_model(state.constraints)
            cell = state.memory[program.global_address("path")]
            if not isinstance(cell, int):
                env = {
                    name: model.get(name, 0) for name, _ in state.symbolics
                }
                cell = evaluate(cell, env)
            results.append((cell, len(state.constraints)))
        return sorted(results), executor.instructions_executed

    def test_forks_and_constraints_identical(self):
        fused_paths, fused_instr = self._paths()
        unfused_paths, unfused_instr = self._paths(fuse_ops=False)
        assert fused_paths == unfused_paths
        assert [p for p, _ in fused_paths] == [1, 2, 3, 4]
        assert fused_instr == unfused_instr

"""The symbolic bytecode interpreter.

:class:`Executor` runs one node-local *event* (boot, timer expiry, packet
reception) of one :class:`~repro.vm.state.ExecutionState` to completion.
Executing an event may *fork* the state wherever control depends on
symbolic data:

- conditional jumps whose condition is symbolic and both-ways feasible;
- array accesses with symbolic indices (concretized per feasible value,
  plus an out-of-bounds error path when reachable);
- division/modulo with a possibly-zero symbolic divisor;
- failed or undecided ``assert()``.

Fork notifications are delivered through the ``on_fork`` callback — this is
the hook the COB state-mapping algorithm attaches to ("mapping on local
branch"), while COW/SDS react to transmissions via the syscall host instead.

A handler run is recorded once and then *replayed*: the executor keeps
a bounded table of event summaries (the run's branch decisions and
forks, each leaf's final memory and stacks, ``log`` output and fresh
symbols, counts and the host effects in order), and a repeated event
replays the summary instead of re-interpreting the handler (docs/VM.md,
"Summaries").

The executor is deliberately ignorant of networking: everything beyond pure
computation goes through a :class:`SyscallHost`.

The interpreter is *threaded*: each pc indexes a precomputed
``(handler, specialized arg, line)`` triple built from the decoder
output, so dispatch is one tuple index and one call — no opcode
comparison chain, no operand re-interpretation — and fused
superinstructions collapse 2–4 dispatches into one.  Fused handlers
account their constituents' steps, instruction counts and visited pcs,
so fused and unfused decoding (``fuse_ops``) produce bit-identical
traces, forks, verdicts, counters and coverage.  The only observable
divergence is the step *limit* boundary: a superinstruction is not
split by the limit, so a limit-truncated event may die up to three base
instructions later.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..expr import (
    as_bv,
    add as bv_add,
    ashr as bv_ashr,
    bv,
    bvand as bv_and,
    bvnot as bv_not,
    bvor as bv_or,
    bvxor as bv_xor,
    eq,
    ite,
    lshr as bv_lshr,
    mul as bv_mul,
    ne,
    neg as bv_neg,
    not_,
    sdiv as bv_sdiv,
    shl as bv_shl,
    sle,
    slt,
    srem as bv_srem,
    sub as bv_sub,
    to_signed,
    udiv as bv_udiv,
    uge,
    ule,
    ult,
    urem as bv_urem,
    var,
    zext,
)
from ..lang.bytecode import CompiledProgram, DecodedProgram, Op
from ..solver import BranchTotals, Solver
from .errors import ErrorKind, GuestError
from .state import CellValue, ExecutionState, Status
from .syscalls import SyscallAbort

__all__ = ["Executor", "SyscallHost", "NullHost"]

_MASK32 = 0xFFFFFFFF
_RETURN_SENTINEL = -1
#: Interned constants for compare results — identical objects to what
#: ``bv(1)``/``bv(0)`` return, so fused and unfused comparisons build
#: the exact same expression graph.
_BV_ONE = bv(1)
_BV_ZERO = bv(0)

#: Most event summaries an executor keeps; the oldest entry makes room.
SUMMARY_LIMIT = 4096

#: The steps of a summary's script.
#: (_QUERY, condition, (may hold, may not hold), depth): a jump's solver
#: call, ``depth`` conjuncts after the path condition the run began on
_QUERY = 0
_FORK = 1  # (_FORK, the twin's conjunct, the state's own conjunct)
_LEAF = 2  # (_LEAF, _Leaf): a path that ended; the next path starts

ForkCallback = Callable[[ExecutionState, List[ExecutionState]], None]


class SyscallHost:
    """Interface the engine/OS library implements for host syscalls.

    The executor resolves pure builtins itself; everything touching node
    identity, time, timers or the network lands here.  Implementations must
    return the syscall's result value (int or expression).

    Event summaries need three more things from a host: what a handler
    can read through it (:meth:`event_input`), which syscalls have an
    effect beyond the calling state's memory (:attr:`effects`), and a way
    to record such a call with its arguments resolved (:meth:`resolve`)
    and to perform the recorded calls again (:meth:`replay`).  The base
    class opts out of summaries.
    """

    #: Names of the syscalls whose effect outlives the handler run; a
    #: summary records each call of one and replays it on a hit.
    effects: frozenset = frozenset()

    def syscall(
        self, state: ExecutionState, name: str, args: List[CellValue]
    ) -> CellValue:
        raise NotImplementedError(name)

    def event_input(self, state: ExecutionState) -> Optional[Tuple[CellValue, ...]]:
        """Everything a handler of ``state`` can read through this host
        besides its node id and the clock, as a flat tuple of cells.

        ``None`` means the host does not support summaries.
        """
        return None

    def resolve(
        self, state: ExecutionState, name: str, args: List[CellValue]
    ) -> tuple:
        """The replayable record of a call of an :attr:`effects` syscall
        that just succeeded: its name and concrete arguments, with every
        memory operand read now (a send records its payload, not its
        buffer address)."""
        raise NotImplementedError(name)

    def replay(self, state: ExecutionState, effects: Sequence[tuple]) -> None:
        """Perform recorded :meth:`resolve` records on ``state``, in order."""
        raise NotImplementedError


class NullHost(SyscallHost):
    """Host for single-node, network-less execution (tests, quickstart).

    Its timer syscalls do nothing, so it has no effects to replay.
    """

    def event_input(self, state):
        return ()

    def syscall(self, state, name, args):
        if name == "node_id":
            return state.node
        if name == "node_count":
            return 1
        if name == "time":
            return state.clock
        if name in ("timer_set", "timer_stop"):
            return 0
        raise NotImplementedError(f"syscall {name!r} needs a network engine")


# Syscalls the executor implements without consulting the host.
_PURE_SYSCALLS = frozenset(
    ["symbolic", "assume", "assert", "fail", "peek", "poke", "lshr", "min",
     "max", "abs", "log"]
)


class Executor:
    """Interprets compiled NSL under symbolic semantics."""

    def __init__(
        self,
        program: CompiledProgram,
        solver: Optional[Solver] = None,
        host: Optional[SyscallHost] = None,
        max_steps_per_event: int = 1_000_000,
        fuse_ops: bool = True,
    ) -> None:
        self.program = program
        self.solver = solver if solver is not None else Solver()
        self.host = host if host is not None else NullHost()
        self.max_steps_per_event = max_steps_per_event
        self.instructions_executed = 0
        self.forks = 0
        #: every program counter ever dispatched, across all states — the
        #: raw data behind repro.vm.coverage.coverage_report.
        self.visited_pcs = set()
        self.fuse_ops = fuse_ops
        self.decoded: DecodedProgram = program.decoded(fuse=fuse_ops)
        # (handler function, specialized arg, line) per pc; the handlers
        # are unbound, so the table holds no reference to this executor
        # (docs/VM.md, "Memory management").
        self._threaded = tuple(
            self._bind(op, arg, line) for op, arg, line in self.decoded.code
        )
        #: event key -> _Summary; a cache, never part of a snapshot.
        self._summaries: Dict[tuple, _Summary] = {}
        #: events answered from a summary instead of the interpreter
        self.summary_hits = 0
        # What the event being recorded did so far, else None.
        self._recording: Optional[_Recording] = None
        # The clock is a handler input only where the program reads it,
        # and the symbol counters only where it makes fresh symbols; such
        # a program's cells (and packets) can hold its symbols.
        syscalls = {arg[0] for op, arg, _ in self.decoded.code if op == Op.SYS}
        self._reads_clock = "time" in syscalls
        self._makes_symbols = "symbolic" in syscalls

    # -- state construction ---------------------------------------------------

    def make_initial_state(self, node: int = 0) -> ExecutionState:
        """A fresh idle state with global initializers applied."""
        state = ExecutionState(node, self.program.memory_size)
        for address, value in self.program.initializers:
            state.memory[address] = value & _MASK32
        return state

    # -- event driving ----------------------------------------------------------

    def start_event(
        self, state: ExecutionState, func_name: str, args: Sequence[int] = ()
    ) -> None:
        """Position ``state`` at the entry of ``func_name`` with ``args``."""
        func = self.program.function(func_name)
        if func is None:
            raise KeyError(f"program has no function {func_name!r}")
        if len(args) != len(func.params):
            raise ValueError(
                f"{func_name} expects {len(func.params)} args, got {len(args)}"
            )
        # The event runs on private lists; resume_event freezes them.
        state.memory = memory = list(state.memory)
        for offset, value in enumerate(args):
            memory[func.param_base + offset] = _mask_cell(value)
        state.pc = func.entry
        state.call_stack = [_RETURN_SENTINEL]
        state.opstack = []
        state.status = Status.RUNNING
        state.steps = 0

    def run_event(
        self,
        state: ExecutionState,
        func_name: str,
        args: Sequence[int] = (),
        on_fork: Optional[ForkCallback] = None,
    ) -> List[ExecutionState]:
        """Run one event to completion on ``state`` and all its forks.

        Returns every resulting state: completed ones are ``IDLE``; defective
        ones are ``ERROR``; contradicted ones are ``INFEASIBLE``.

        A repeat of a summarized event is replayed, not interpreted; a
        first run is recorded.
        """
        key, summary = self._lookup(state, func_name, args)
        if summary is not None:
            return self._replay_summary(state, summary, on_fork)
        self.start_event(state, func_name, args)
        if key is None:
            return self.resume_event(state, on_fork)
        return self._record_summary(state, key, on_fork)

    def resume_event(
        self,
        state: ExecutionState,
        on_fork: Optional[ForkCallback] = None,
    ) -> List[ExecutionState]:
        """Drive an already-positioned RUNNING state to event completion.

        Every state it returns is frozen (:meth:`ExecutionState.freeze`).
        """
        recording = self._recording
        active = [state]
        done: List[ExecutionState] = []
        while active:
            current = active.pop()
            successors = self._execute_threaded(current)
            if len(successors) > 1:
                self.forks += len(successors) - 1
                if on_fork is not None:
                    on_fork(
                        current, [s for s in successors if s is not current]
                    )
            for successor in successors:
                if successor.status == Status.RUNNING:
                    active.append(successor)
                else:
                    successor.freeze()
                    done.append(successor)
                    if recording is not None:
                        recording.script.append(
                            (_LEAF, _Leaf(successor, recording))
                        )
        return done

    # -- event summaries --------------------------------------------------------------

    def _lookup(
        self, state: ExecutionState, func_name: str, args: Sequence[int]
    ) -> Tuple[Optional[tuple], Optional["_Summary"]]:
        """The event's summary key and the summary stored under it.

        The key is everything the handler can read; ``(None, None)``
        means the host opts out.  A program that calls ``symbolic()``
        reads the state's symbol counters, which name the fresh symbols.
        A key with a symbolic cell also holds the path condition, which
        the handler's jump decisions read through the solver.  Such a
        program's cells are scanned before the one lookup.  Any other
        program looks the key without the path condition up first: a
        stored key of that length is concrete (no expression equals an
        int), so a concrete hit costs one lookup and no scan.
        """
        event_input = self.host.event_input(state)
        if event_input is None:
            return None, None
        args = tuple(args)
        memory = tuple(state.memory)
        key = (state.node, func_name, args, memory, event_input)
        if self._reads_clock:
            key += (state.clock,)
        summaries = self._summaries
        if self._makes_symbols:
            key += (frozenset(state.sym_counters.items()),)
            if not _all_concrete(memory, args, event_input):
                key += (state.constraints,)
            return key, summaries.get(key)
        summary = summaries.get(key)
        if summary is not None or _all_concrete(memory, args, event_input):
            return key, summary
        key += (state.constraints,)
        return key, summaries.get(key)

    def _record_summary(
        self, state: ExecutionState, key: tuple, on_fork: Optional[ForkCallback]
    ) -> List[ExecutionState]:
        """Run an event and keep its summary if the run qualifies: it
        used the solver for jump decisions only, every leaf ended
        ``IDLE``, and a run with more than one leaf had no host effect
        (docs/VM.md, "Summaries")."""
        instructions = self.instructions_executed
        self._recording = recording = _Recording(state)
        try:
            done = self.resume_event(state, on_fork)
        finally:
            self._recording = None
        if recording.spoiled or (recording.effects and len(done) > 1):
            return done
        for successor in done:
            if successor.status != Status.IDLE:
                return done
        summaries = self._summaries
        if len(summaries) >= SUMMARY_LIMIT:
            del summaries[next(iter(summaries))]
        summaries[key] = _Summary(
            recording.script,
            self.instructions_executed - instructions,
            tuple(recording.effects),
        )
        return done

    def _replay_summary(
        self,
        state: ExecutionState,
        summary: "_Summary",
        on_fork: Optional[ForkCallback],
    ) -> List[ExecutionState]:
        """Finish the event as the recorded run did: its paths, then its
        host effects.  The pcs the run visited are already in
        ``visited_pcs``."""
        done = self._replay_paths(state, summary, on_fork)
        if summary.effects:
            self.host.replay(state, summary.effects)
        self.instructions_executed += summary.instructions
        self.summary_hits += 1
        return done

    def _replay_paths(
        self,
        state: ExecutionState,
        summary: "_Summary",
        on_fork: Optional[ForkCallback],
    ) -> List[ExecutionState]:
        """Fork ``state`` and install the leaves as the recorded run did;
        return the leaves in the interpreter's order.

        The recorded branch decisions are not asked again: their answers
        cannot change (docs/VM.md, "Summaries"), and the solver's
        semantic counters move by the summary's totals.  A trace gets
        each decision's query events at its place in the script.
        """
        script = summary.script
        if len(script) == 1:  # one path, no decision: all concrete runs
            script[0][1].install(state)
            return [state]
        # Any longer script begins with a decision: summary.branches is set.
        solver = self.solver
        solver.replay_branches(summary.branches, len(state.constraints))
        trace = solver.trace
        steps = iter(script)
        active = [state]
        done: List[ExecutionState] = []
        while active:
            current = active.pop()
            for step in steps:
                kind = step[0]
                if kind == _QUERY:
                    if trace is not None:
                        solver.emit_branch(len(current.constraints), step[2])
                elif kind == _FORK:
                    twin = current.fork()
                    twin.add_constraint(step[1])
                    current.add_constraint(step[2])
                    self.forks += 1
                    if on_fork is not None:
                        on_fork(current, [twin])
                    active.append(current)
                    active.append(twin)
                    break
                else:
                    step[1].install(current)
                    done.append(current)
                    break
        return done

    # -- the interpreter loop --------------------------------------------------------

    def _execute_threaded(self, state: ExecutionState) -> List[ExecutionState]:
        """The table-dispatch loop: one tuple index + one call per pc.

        ``instructions_executed`` is batched into a loop-local counter
        and flushed on exit; fused handlers account their extra
        constituents directly on the instance attribute.
        """
        threaded = self._threaded
        visited = self.visited_pcs
        limit = self.max_steps_per_event
        dispatched = 0
        try:
            while True:
                if state.steps >= limit:
                    return [
                        self._die(
                            state,
                            GuestError(
                                ErrorKind.STEP_LIMIT,
                                f"event exceeded {limit} steps",
                            ),
                        )
                    ]
                pc = state.pc
                handler, arg, line = threaded[pc]
                visited.add(pc)
                state.pc = pc + 1
                state.steps += 1
                dispatched += 1
                outcome = handler(self, state, arg, line)
                if outcome is not None:
                    return outcome
        finally:
            self.instructions_executed += dispatched

    # -- threaded dispatch: binding ------------------------------------------------

    def _bind(self, op, arg, line):
        """Specialize one decoded instruction into ``(handler, arg, line)``.

        Runs once per pc at construction: all per-opcode decisions and
        dict lookups (arith/compare function pairs) happen here, so the
        hot loop only indexes a tuple and calls.  The handler is the
        class's plain function, called with the executor: a bound method
        would point back at the executor and make it cyclic garbage.
        """
        cls = type(self)
        if op == Op.PUSH:
            return (cls._op_push, arg, line)
        if op == Op.LOAD:
            return (cls._op_load, arg, line)
        if op == Op.STORE:
            return (cls._op_store, arg, line)
        if op == Op.LOADI:
            return (cls._op_loadi, arg, line)
        if op == Op.STOREI:
            return (cls._op_storei, arg, line)
        if Op.ADD <= op <= Op.BNOT:
            if op in _DIVISIVE:
                return (
                    cls._op_divide,
                    (_CONCRETE_ARITH[op], _SYMBOLIC_ARITH[op]),
                    line,
                )
            if op == Op.NEG or op == Op.BNOT:
                return (cls._op_unary, op, line)
            return (
                cls._op_arith2,
                (_CONCRETE_ARITH[op], _SYMBOLIC_ARITH[op]),
                line,
            )
        if Op.EQ <= op <= Op.BOOL:
            if op == Op.LNOT or op == Op.BOOL:
                return (cls._op_truth, op, line)
            return (cls._op_cmp2, (_CONCRETE_CMP[op], _SYMBOLIC_CMP[op]), line)
        if op == Op.JMP:
            return (cls._op_jmp, arg, line)
        if op == Op.JZ:
            return (cls._op_jz, arg, line)
        if op == Op.JNZ:
            return (cls._op_jnz, arg, line)
        if op == Op.CALL:
            return (cls._op_call, arg, line)
        if op == Op.RET:
            return (cls._op_ret, None, line)
        if op == Op.SYS:
            return (cls._op_sys, arg, line)
        if op == Op.POP:
            return (cls._op_pop, None, line)
        if op == Op.DUP:
            return (cls._op_dup, None, line)
        if op == Op.LOAD_LOAD:
            return (cls._op_load_load, arg, line)
        if op == Op.PUSH_LOAD:
            return (cls._op_push_load, arg, line)
        if op == Op.LOAD_PUSH:
            return (cls._op_load_push, arg, line)
        if op == Op.PUSH_STORE:
            return (cls._op_push_store, arg, line)
        if op == Op.LOAD_STORE:
            return (cls._op_load_store, arg, line)
        if op == Op.LOAD_ARITH:
            addr, aop = arg
            return (
                cls._op_load_arith,
                (addr, _CONCRETE_ARITH[aop], _SYMBOLIC_ARITH[aop]),
                line,
            )
        if op == Op.PUSH_ARITH:
            imm, aop = arg
            return (
                cls._op_push_arith,
                (imm, _CONCRETE_ARITH[aop], _SYMBOLIC_ARITH[aop]),
                line,
            )
        if op == Op.ARITH_STORE:
            aop, addr = arg
            return (
                cls._op_arith_store,
                (_CONCRETE_ARITH[aop], _SYMBOLIC_ARITH[aop], addr),
                line,
            )
        if op == Op.ARITH_LOAD:
            aop, addr = arg
            return (
                cls._op_arith_load,
                (_CONCRETE_ARITH[aop], _SYMBOLIC_ARITH[aop], addr),
                line,
            )
        if op == Op.ARITH_ARITH:
            op1, op2 = arg
            return (
                cls._op_arith_arith,
                (_CONCRETE_ARITH[op1], _SYMBOLIC_ARITH[op1],
                 _CONCRETE_ARITH[op2], _SYMBOLIC_ARITH[op2]),
                line,
            )
        if op == Op.CMP_JZ:
            cop, target = arg
            return (
                cls._op_cmp_jz,
                (_CONCRETE_CMP[cop], _SYMBOLIC_CMP[cop], target),
                line,
            )
        if op == Op.CMP_JNZ:
            cop, target = arg
            return (
                cls._op_cmp_jnz,
                (_CONCRETE_CMP[cop], _SYMBOLIC_CMP[cop], target),
                line,
            )
        if op == Op.INC_MEM:
            addr, imm, aop = arg
            return (
                cls._op_inc_mem,
                (addr, imm, _CONCRETE_ARITH[aop], _SYMBOLIC_ARITH[aop]),
                line,
            )
        raise AssertionError(f"unhandled opcode {op!r}")  # pragma: no cover

    # -- threaded dispatch: base handlers ------------------------------------------
    # Each handler returns None to keep running, or the successor list
    # (the forks, or the one finished or dead state).  The loop has
    # already accounted the dispatch (pc, steps, instruction count) and
    # set the fall-through pc before the handler runs.

    def _op_push(self, state, arg, line):
        state.opstack.append(arg)

    def _op_load(self, state, arg, line):
        state.opstack.append(state.memory[arg])

    def _op_store(self, state, arg, line):
        state.memory[arg] = _mask_cell(state.opstack.pop())

    def _op_loadi(self, state, arg, line):
        return self._indexed(state, arg[0], arg[1], line, load=True)

    def _op_storei(self, state, arg, line):
        return self._indexed(state, arg[0], arg[1], line, load=False)

    def _op_unary(self, state, op, line):
        opstack = state.opstack
        value = opstack.pop()
        if isinstance(value, int):
            opstack.append((-value if op == Op.NEG else ~value) & _MASK32)
        else:
            opstack.append(bv_neg(value) if op == Op.NEG else bv_not(value))

    def _op_arith2(self, state, fns, line):
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            opstack.append(fns[0](left, right))
        else:
            opstack.append(fns[1](as_bv(left), as_bv(right)))

    def _op_divide(self, state, fns, line):
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        return self._divide(state, fns[0], fns[1], left, right, line)

    def _op_truth(self, state, op, line):
        opstack = state.opstack
        value = opstack.pop()
        if isinstance(value, int):
            truthy = value != 0
            opstack.append(int(truthy) if op == Op.BOOL else int(not truthy))
        else:
            condition = ne(value, bv(0))
            if op == Op.LNOT:
                condition = not_(condition)
            opstack.append(ite(condition, bv(1), bv(0)))

    def _op_cmp2(self, state, fns, line):
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            opstack.append(int(fns[0](left, right)))
        else:
            opstack.append(
                ite(fns[1](as_bv(left), as_bv(right)), _BV_ONE, _BV_ZERO)
            )

    def _op_jmp(self, state, arg, line):
        state.pc = arg

    def _op_jz(self, state, arg, line):
        return self._branch_value(state, state.opstack.pop(), True, arg)

    def _op_jnz(self, state, arg, line):
        return self._branch_value(state, state.opstack.pop(), False, arg)

    def _op_call(self, state, arg, line):
        if len(state.call_stack) > 64:
            return [
                self._die(
                    state,
                    GuestError(
                        ErrorKind.STACK_OVERFLOW,
                        "call stack exceeded 64 frames",
                        line,
                    ),
                )
            ]
        memory = state.memory
        opstack = state.opstack
        for address in arg[1]:
            memory[address] = _mask_cell(opstack.pop())
        state.call_stack.append(state.pc)
        state.pc = arg[0]

    def _op_ret(self, state, arg, line):
        return_pc = state.call_stack.pop()
        if return_pc == _RETURN_SENTINEL:
            state.opstack.pop()  # discard the handler's return value
            state.status = Status.IDLE
            return [state]
        state.pc = return_pc

    def _op_sys(self, state, arg, line):
        return self._syscall(state, arg[0], arg[1], line)

    def _op_pop(self, state, arg, line):
        state.opstack.pop()

    def _op_dup(self, state, arg, line):
        state.opstack.append(state.opstack[-1])

    # -- threaded dispatch: superinstruction handlers ------------------------------
    # The loop accounted the first constituent only; _account2/_account4
    # bring steps, instruction counts, visited pcs and the fall-through
    # pc up to what the unfused sequence would have produced, *before*
    # any path that can fork or die.

    def _account2(self, state):
        pc2 = state.pc
        self.visited_pcs.add(pc2)
        state.pc = pc2 + 1
        state.steps += 1
        self.instructions_executed += 1

    def _account4(self, state):
        pc2 = state.pc
        visited = self.visited_pcs
        visited.add(pc2)
        visited.add(pc2 + 1)
        visited.add(pc2 + 2)
        state.pc = pc2 + 3
        state.steps += 3
        self.instructions_executed += 3

    def _op_load_load(self, state, arg, line):
        self._account2(state)
        memory = state.memory
        opstack = state.opstack
        opstack.append(memory[arg[0]])
        opstack.append(memory[arg[1]])

    def _op_push_load(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        opstack.append(arg[0])
        opstack.append(state.memory[arg[1]])

    def _op_load_push(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        opstack.append(state.memory[arg[0]])
        opstack.append(arg[1])

    def _op_push_store(self, state, arg, line):
        self._account2(state)
        state.memory[arg[1]] = arg[0]  # immediates are pre-masked

    def _op_load_store(self, state, arg, line):
        self._account2(state)
        memory = state.memory
        memory[arg[1]] = memory[arg[0]]  # cells are invariantly masked

    def _op_load_arith(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        left = opstack.pop()
        right = state.memory[arg[0]]
        if isinstance(left, int) and isinstance(right, int):
            opstack.append(arg[1](left, right))
        else:
            opstack.append(arg[2](as_bv(left), as_bv(right)))

    def _op_push_arith(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        left = opstack.pop()
        if isinstance(left, int):
            opstack.append(arg[1](left, arg[0]))
        else:
            opstack.append(arg[2](as_bv(left), as_bv(arg[0])))

    def _op_arith_store(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            state.memory[arg[2]] = arg[0](left, right)
        else:
            state.memory[arg[2]] = arg[1](as_bv(left), as_bv(right))

    def _op_arith_load(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            opstack.append(arg[0](left, right))
        else:
            opstack.append(arg[1](as_bv(left), as_bv(right)))
        opstack.append(state.memory[arg[2]])

    def _op_arith_arith(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        c = opstack.pop()
        b = opstack.pop()
        if isinstance(b, int) and isinstance(c, int):
            inner = arg[0](b, c)
        else:
            inner = arg[1](as_bv(b), as_bv(c))
        a = opstack.pop()
        if isinstance(a, int) and isinstance(inner, int):
            opstack.append(arg[2](a, inner))
        else:
            opstack.append(arg[3](as_bv(a), as_bv(inner)))

    def _op_cmp_jz(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            if not arg[0](left, right):
                state.pc = arg[2]
            return None
        value = ite(arg[1](as_bv(left), as_bv(right)), _BV_ONE, _BV_ZERO)
        return self._branch_value(state, value, True, arg[2])

    def _op_cmp_jnz(self, state, arg, line):
        self._account2(state)
        opstack = state.opstack
        right = opstack.pop()
        left = opstack.pop()
        if isinstance(left, int) and isinstance(right, int):
            if arg[0](left, right):
                state.pc = arg[2]
            return None
        value = ite(arg[1](as_bv(left), as_bv(right)), _BV_ONE, _BV_ZERO)
        return self._branch_value(state, value, False, arg[2])

    def _op_inc_mem(self, state, arg, line):
        self._account4(state)
        memory = state.memory
        current = memory[arg[0]]
        if isinstance(current, int):
            memory[arg[0]] = arg[2](current, arg[1])
        else:
            memory[arg[0]] = arg[3](as_bv(current), as_bv(arg[1]))

    # -- helpers -------------------------------------------------------------------

    def _die(
        self, state: ExecutionState, error: GuestError
    ) -> ExecutionState:
        state.status = Status.ERROR
        state.error = error
        return state

    def _spoil_recording(self) -> None:
        """The event being recorded did what a summary cannot replay."""
        if self._recording is not None:
            self._recording.spoiled = True

    def _feasible(self, state: ExecutionState, condition) -> bool:
        self._spoil_recording()
        return self.solver.may_be_true(state.constraints, condition)

    def _branch_feasible(self, state: ExecutionState, condition):
        """``(may_hold, may_not_hold)`` for a two-way decision that is
        not a jump (a divisor, an assertion).

        One batched solver call instead of the back-to-back may/must
        pair: the state's memoized model decides one arm for free.
        """
        self._spoil_recording()
        return self.solver.branch_feasibility(state.constraints, condition)

    # .. division ....................................................................

    def _divide(
        self, state, cfn, sfn, left, right, line
    ) -> Optional[List[ExecutionState]]:
        """Division with a division-by-zero error path."""
        successors: List[ExecutionState] = []
        if isinstance(right, int):
            if right == 0:
                return [
                    self._die(
                        state,
                        GuestError(
                            ErrorKind.DIVISION_BY_ZERO, "division by zero", line
                        ),
                    )
                ]
        else:
            zero_cond = eq(right, bv(0))
            can_zero, can_nonzero = self._branch_feasible(state, zero_cond)
            if can_zero:
                if can_nonzero:
                    error_twin = state.fork()
                    error_twin.add_constraint(zero_cond)
                    self._die(
                        error_twin,
                        GuestError(
                            ErrorKind.DIVISION_BY_ZERO,
                            "division by zero (symbolic divisor)",
                            line,
                        ),
                    )
                    state.add_constraint(not_(zero_cond))
                    successors.append(error_twin)
                else:
                    return [
                        self._die(
                            state,
                            GuestError(
                                ErrorKind.DIVISION_BY_ZERO,
                                "divisor is always zero",
                                line,
                            ),
                        )
                    ]
        if isinstance(left, int) and isinstance(right, int):
            state.opstack.append(cfn(left, right))
        else:
            state.opstack.append(sfn(as_bv(left), as_bv(right)))
        if successors:
            return [state] + successors
        return None

    # .. branches ......................................................................

    def _branch_value(
        self, state, value, jump_on_zero, target
    ) -> Optional[List[ExecutionState]]:
        if isinstance(value, int):
            taken = (value == 0) == jump_on_zero
            if taken:
                state.pc = target
            return None
        zero_cond = eq(value, bv(0))
        answer = self.solver.branch_feasibility(state.constraints, zero_cond)
        recording = self._recording
        if recording is not None:
            recording.script.append(
                (_QUERY, zero_cond, answer, len(state.constraints) - recording.path)
            )
        feasible_zero, feasible_nonzero = answer
        if feasible_zero and feasible_nonzero:
            # Fork: the original takes the fall-through; the twin jumps.
            twin = state.fork()
            twin.pc = target
            if jump_on_zero:
                taken, fall_through = zero_cond, not_(zero_cond)
            else:
                taken, fall_through = not_(zero_cond), zero_cond
            twin.add_constraint(taken)
            state.add_constraint(fall_through)
            if recording is not None:
                recording.script.append((_FORK, taken, fall_through))
            return [state, twin]
        if not feasible_zero and not feasible_nonzero:
            state.status = Status.INFEASIBLE
            return [state]
        zero_holds = feasible_zero
        if zero_holds == jump_on_zero:
            state.pc = target
        # The direction is implied by the path condition: no constraint added.
        return None

    # .. indexed memory access ..........................................................

    def _indexed(
        self, state, base, size, line, load: bool
    ) -> Optional[List[ExecutionState]]:
        opstack = state.opstack
        value: CellValue = 0
        if not load:
            value = _mask_cell(opstack.pop())
        index = opstack.pop()

        if isinstance(index, int):
            if index >= size:  # negative indices wrap to huge unsigned values
                return [
                    self._die(
                        state,
                        GuestError(
                            ErrorKind.OUT_OF_BOUNDS,
                            f"index {to_signed(index, 32)} outside [0, {size})",
                            line,
                        ),
                    )
                ]
            if load:
                opstack.append(state.memory[base + index])
            else:
                state.memory[base + index] = value
            return None

        # Symbolic index: concretize over feasible in-bounds values; spawn an
        # error state if out-of-bounds is reachable (KLEE-style).
        successors: List[ExecutionState] = []
        oob = uge(index, bv(size))
        if self._feasible(state, oob):
            error_twin = state.fork()
            error_twin.add_constraint(oob)
            self._die(
                error_twin,
                GuestError(
                    ErrorKind.OUT_OF_BOUNDS,
                    f"symbolic index may fall outside [0, {size})",
                    line,
                ),
            )
            successors.append(error_twin)

        feasible_values = [
            concrete
            for concrete in range(size)
            if self._feasible(state, eq(index, bv(concrete)))
        ]
        if not feasible_values and not successors:
            state.status = Status.INFEASIBLE
            return [state]

        variants: List[ExecutionState] = []
        for position, concrete in enumerate(feasible_values):
            variant = state if position == 0 else state.fork()
            variants.append(variant)
        # Constrain and apply after forking so forks share the pre-access state.
        for variant, concrete in zip(variants, feasible_values):
            variant.add_constraint(eq(index, bv(concrete)))
            if load:
                variant.opstack.append(variant.memory[base + concrete])
            else:
                variant.memory[base + concrete] = value
        result = variants + successors
        if len(result) == 1 and result[0] is state and not successors:
            return None  # single feasible value, no fork happened
        return result

    # .. syscalls ...........................................................................

    def _syscall(self, state, name, nargs, line) -> Optional[List[ExecutionState]]:
        opstack = state.opstack
        args = [opstack.pop() for _ in range(nargs)]
        args.reverse()

        if name not in _PURE_SYSCALLS:
            host = self.host
            try:
                result = host.syscall(state, name, args)
                if self._recording is not None and name in host.effects:
                    self._recording.effects.append(host.resolve(state, name, args))
            except SyscallAbort as abort:
                abort.error.line = line
                return [self._die(state, abort.error)]
            opstack.append(_mask_cell(result))
            return None

        if name == "symbolic":
            return self._sys_symbolic(state, args, line)
        if name == "assume":
            return self._sys_assume(state, args[0])
        if name == "assert":
            return self._sys_assert(state, args, line)
        if name == "fail":
            code = args[0] if isinstance(args[0], int) else None
            return [
                self._die(
                    state,
                    GuestError(
                        ErrorKind.EXPLICIT_FAIL,
                        f"fail({code if code is not None else '<symbolic>'})",
                        line,
                        code,
                    ),
                )
            ]
        if name == "peek" or name == "poke":
            address = args[0]
            if not isinstance(address, int) or address >= len(state.memory):
                return [
                    self._die(
                        state,
                        GuestError(
                            ErrorKind.BAD_SYSCALL,
                            f"{name} needs a concrete in-range address",
                            line,
                        ),
                    )
                ]
            if name == "peek":
                opstack.append(state.memory[address])
            else:
                state.memory[address] = _mask_cell(args[1])
                opstack.append(0)
            return None
        if name == "lshr":
            left, right = args
            if isinstance(left, int) and isinstance(right, int):
                opstack.append(0 if right >= 32 else left >> right)
            else:
                opstack.append(bv_lshr(as_bv(left), as_bv(right)))
            return None
        if name == "min" or name == "max":
            left, right = args
            if isinstance(left, int) and isinstance(right, int):
                sl, sr = to_signed(left, 32), to_signed(right, 32)
                chosen = min(sl, sr) if name == "min" else max(sl, sr)
                opstack.append(chosen & _MASK32)
            else:
                l, r = as_bv(left), as_bv(right)
                condition = slt(l, r)
                opstack.append(
                    ite(condition, l, r) if name == "min" else ite(condition, r, l)
                )
            return None
        if name == "abs":
            value = args[0]
            if isinstance(value, int):
                opstack.append(abs(to_signed(value, 32)) & _MASK32)
            else:
                opstack.append(ite(slt(value, bv(0)), bv_neg(value), value))
            return None
        if name == "log":
            recorded = tuple(
                arg if isinstance(arg, int) else arg for arg in args
            )
            state.trace = state.trace + (recorded,)
            opstack.append(0)
            return None
        raise AssertionError(f"unhandled pure syscall {name!r}")

    def _sys_symbolic(self, state, args, line) -> Optional[List[ExecutionState]]:
        tag_index = args[0]
        width = args[1] if len(args) > 1 else 32
        if not isinstance(tag_index, int) or not isinstance(width, int):
            return [
                self._die(
                    state,
                    GuestError(
                        ErrorKind.BAD_SYSCALL,
                        "symbolic() needs a literal tag and width",
                        line,
                    ),
                )
            ]
        if not 1 <= width <= 32 or tag_index >= len(self.program.strings):
            return [
                self._die(
                    state,
                    GuestError(
                        ErrorKind.BAD_SYSCALL,
                        f"symbolic(): bad width {width} or tag",
                        line,
                    ),
                )
            ]
        tag = self.program.strings[tag_index]
        name = state.fresh_symbol_name(tag)
        symbol = var(name, width)
        state.add_symbolic(name, width)
        state.opstack.append(zext(symbol, 32) if width < 32 else symbol)
        return None

    def _sys_assume(self, state, value) -> Optional[List[ExecutionState]]:
        if isinstance(value, int):
            if value == 0:
                state.status = Status.INFEASIBLE
                return [state]
            state.opstack.append(0)
            return None
        condition = ne(value, bv(0))
        if not self._feasible(state, condition):
            state.status = Status.INFEASIBLE
            return [state]
        state.add_constraint(condition)
        state.opstack.append(0)
        return None

    def _sys_assert(self, state, args, line) -> Optional[List[ExecutionState]]:
        value = args[0]
        code = None
        if len(args) > 1 and isinstance(args[1], int):
            code = args[1]
        if isinstance(value, int):
            if value != 0:
                state.opstack.append(0)
                return None
            return [
                self._die(
                    state,
                    GuestError(ErrorKind.ASSERTION, "assertion failed", line, code),
                )
            ]
        holds = ne(value, bv(0))
        can_pass, can_fail = self._branch_feasible(state, holds)
        if not can_fail:
            state.opstack.append(0)
            return None
        if not can_pass:
            return [
                self._die(
                    state,
                    GuestError(
                        ErrorKind.ASSERTION, "assertion always fails", line, code
                    ),
                )
            ]
        error_twin = state.fork()
        error_twin.add_constraint(not_(holds))
        self._die(
            error_twin,
            GuestError(
                ErrorKind.ASSERTION, "assertion may fail", line, code
            ),
        )
        state.add_constraint(holds)
        state.opstack.append(0)
        return [state, error_twin]


class _Recording:
    """What the event being recorded did so far, in the interpreter's
    order: the script of branch decisions, forks and leaves, and the
    host effects.  ``trace``, ``symbolics`` and ``path`` are the lengths
    of the ``log`` output, the symbol list and the path condition the
    event started at."""

    __slots__ = ("script", "effects", "trace", "symbolics", "path", "spoiled")

    def __init__(self, state: ExecutionState) -> None:
        self.script: List[tuple] = []
        self.effects: List[tuple] = []
        self.trace = len(state.trace)
        self.symbolics = len(state.symbolics)
        self.path = len(state.constraints)
        self.spoiled = False


class _Leaf:
    """How one path of a recorded run left its state: the frozen memory
    and stacks, which every replay shares, the ``log`` output and the
    fresh symbols, with the symbol counters after them."""

    __slots__ = (
        "memory", "pc", "call_stack", "opstack", "steps", "trace",
        "symbolics", "sym_counters",
    )

    def __init__(self, state: ExecutionState, recording: _Recording) -> None:
        self.memory = state.memory
        self.pc = state.pc
        self.call_stack = state.call_stack
        self.opstack = state.opstack
        self.steps = state.steps
        self.trace = state.trace[recording.trace:]
        # Only symbolic() moves the counters during a handler, and only
        # a key of a program that calls it holds them.
        self.symbolics = state.symbolics[recording.symbolics:]
        self.sym_counters = state.sym_counters if self.symbolics else None

    def install(self, state: ExecutionState) -> None:
        """Leave ``state`` as the recorded path left it, host effects aside."""
        state.memory = self.memory
        state.pc = self.pc
        state.call_stack = self.call_stack
        state.opstack = self.opstack
        state.steps = self.steps
        state.status = Status.IDLE
        if self.trace:
            state.trace = state.trace + self.trace
        if self.symbolics:
            state.symbolics = state.symbolics + self.symbolics
            state.sym_counters = self.sym_counters


class _Summary:
    """One recorded run of an event: its script (``_QUERY``, ``_FORK``
    and ``_LEAF`` steps in the interpreter's depth-first order), what its
    decisions add to the solver's counters (``None`` without any), its
    instruction count and, for a run with one leaf, its host effects."""

    __slots__ = ("script", "branches", "instructions", "effects")

    def __init__(self, script: List[tuple], instructions: int, effects: tuple) -> None:
        self.script = tuple(script)
        queries = [(step[3], step[2]) for step in script if step[0] == _QUERY]
        self.branches = BranchTotals(queries) if queries else None
        self.instructions = instructions
        self.effects = effects


def _all_concrete(*parts: tuple) -> bool:
    for cells in parts:
        for cell in cells:
            if type(cell) is not int:
                return False
    return True


def _mask_cell(value: CellValue) -> CellValue:
    return value & _MASK32 if isinstance(value, int) else value


def _concrete_sdiv(a: int, b: int) -> int:
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    quotient = abs(sa) // abs(sb)
    return (-quotient if (sa < 0) != (sb < 0) else quotient) & _MASK32


def _concrete_srem(a: int, b: int) -> int:
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    remainder = abs(sa) % abs(sb)
    return (-remainder if sa < 0 else remainder) & _MASK32


_CONCRETE_ARITH = {
    Op.ADD: lambda a, b: (a + b) & _MASK32,
    Op.SUB: lambda a, b: (a - b) & _MASK32,
    Op.MUL: lambda a, b: (a * b) & _MASK32,
    Op.SDIV: _concrete_sdiv,
    Op.SREM: _concrete_srem,
    Op.UDIV: lambda a, b: a // b,
    Op.UREM: lambda a, b: a % b,
    Op.BAND: lambda a, b: a & b,
    Op.BOR: lambda a, b: a | b,
    Op.BXOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: 0 if b >= 32 else (a << b) & _MASK32,
    Op.ASHR: lambda a, b: (to_signed(a, 32) >> min(b, 31)) & _MASK32,
    Op.LSHR: lambda a, b: 0 if b >= 32 else a >> b,
}

_SYMBOLIC_ARITH = {
    Op.ADD: bv_add,
    Op.SUB: bv_sub,
    Op.MUL: bv_mul,
    Op.SDIV: bv_sdiv,
    Op.SREM: bv_srem,
    Op.UDIV: bv_udiv,
    Op.UREM: bv_urem,
    Op.BAND: bv_and,
    Op.BOR: bv_or,
    Op.BXOR: bv_xor,
    Op.SHL: bv_shl,
    Op.ASHR: bv_ashr,
    Op.LSHR: bv_lshr,
}

_DIVISIVE = frozenset([Op.SDIV, Op.SREM, Op.UDIV, Op.UREM])

_CONCRETE_CMP = {
    Op.EQ: lambda a, b: a == b,
    Op.NE: lambda a, b: a != b,
    Op.SLT: lambda a, b: to_signed(a, 32) < to_signed(b, 32),
    Op.SLE: lambda a, b: to_signed(a, 32) <= to_signed(b, 32),
    Op.ULT: lambda a, b: a < b,
    Op.ULE: lambda a, b: a <= b,
}

_SYMBOLIC_CMP = {
    Op.EQ: eq,
    Op.NE: ne,
    Op.SLT: slt,
    Op.SLE: sle,
    Op.ULT: ult,
    Op.ULE: ule,
}

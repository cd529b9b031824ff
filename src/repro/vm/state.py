"""Execution states for symbolic distributed execution.

An :class:`ExecutionState` is one symbolic execution path of one node: its
full VM configuration (memory, program position, operand/call stacks), its
path constraints, plus the node-level simulation context (virtual clock,
pending event queue, current packet).  In the paper's terms these are
exactly the objects that state-mapping algorithms fork, group into
dstates/dscenarios and deliver packets to.

States are cheap to clone (:meth:`fork`): guest memory cells are immutable
values (ints or interned expressions), so cloning copies flat lists only.
The *communication history* is tracked as an immutable tuple — the paper
notes it need not be stored; we keep it because the invariant checks in the
test-suite use it (dstates must be conflict-free).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

from ..expr import BoolExpr, BVExpr
from ..solver.constraints import EMPTY, ConstraintSet
from .errors import GuestError

__all__ = [
    "ExecutionState",
    "Event",
    "Status",
    "CellValue",
    "ensure_state_ids_above",
    "state_id_watermark",
]

CellValue = Union[int, BVExpr]

_state_ids = itertools.count(1)


def ensure_state_ids_above(minimum: int) -> None:
    """Advance the sid counter past ``minimum``.

    A worker process restoring an engine snapshot inherits states whose sids
    were allocated in the parent; without this, locally forked states would
    collide with them.
    """
    global _state_ids
    if next(_state_ids) <= minimum:
        _state_ids = itertools.count(minimum + 1)


def state_id_watermark() -> int:
    """A sid bound: every sid allocated so far is <= the returned value.

    Consumes one id, so only call at snapshot points (the gap is harmless —
    sids are opaque identifiers, never compared to anything but equality).
    """
    return next(_state_ids)


class Status:
    IDLE = "idle"            # between events, waiting in the scheduler
    RUNNING = "running"      # mid-event (only while the executor drives it)
    TERMINATED = "terminated"  # simulation horizon reached / killed
    ERROR = "error"          # carries a GuestError
    INFEASIBLE = "infeasible"  # assume() contradicted the path condition
    PRUNED = "pruned"        # parked by symmetry/POR reduction; still a
    #                          dstate member, wakeable on an uncovered
    #                          delivery (repro.core.reduce)


class Event:
    """One pending node-local event (timer expiry, packet reception, boot).

    ``seq`` makes the ordering deterministic; ``generation`` lets timers be
    cancelled without removing heap entries.
    """

    __slots__ = ("time", "seq", "kind", "data", "generation")

    BOOT = "boot"
    TIMER = "timer"
    RECV = "recv"

    def __init__(self, time: int, seq: int, kind: str, data, generation: int = 0):
        self.time = time
        self.seq = seq
        self.kind = kind
        self.data = data
        self.generation = generation

    def sort_key(self) -> Tuple[int, int]:
        return (self.time, self.seq)

    def copy(self) -> "Event":
        return Event(self.time, self.seq, self.kind, self.data, self.generation)

    def config_key(self) -> tuple:
        return (self.time, self.seq, self.kind, self.data, self.generation)

    def __repr__(self) -> str:
        return f"Event({self.kind}@{self.time}ms seq={self.seq} data={self.data!r})"


class ExecutionState:
    """One symbolic execution path of one node."""

    __slots__ = (
        "sid",
        "node",
        "memory",
        "pc",
        "call_stack",
        "opstack",
        "constraints",
        "status",
        "error",
        "steps",
        "sym_counters",
        "symbolics",
        "clock",
        "events",
        "event_seq",
        "timer_generations",
        "current_packet",
        "history",
        "link_busy",
        "forked_from",
        "trace",
        # Weak-referenceable, so tests can watch a dropped engine free its
        # states; the slot fits in the object's allocation size class.
        "__weakref__",
    )

    def __init__(self, node: int, memory_size: int) -> None:
        self.sid: int = next(_state_ids)
        self.node = node
        self.memory: List[CellValue] = [0] * memory_size
        self.pc: int = 0
        self.call_stack: List[int] = []
        self.opstack: List[CellValue] = []
        # The path condition: a persistent parent-sharing ConstraintSet.
        # Forks alias the same node; add_constraint appends a child node,
        # so all analysis memos (canonical form, partition, model) are
        # shared along the prefix chain.
        self.constraints: ConstraintSet = EMPTY
        self.status: str = Status.IDLE
        self.error: Optional[GuestError] = None
        self.steps: int = 0
        self.sym_counters: Dict[str, int] = {}
        self.symbolics: List[Tuple[str, int]] = []  # (var name, width)
        # -- node-level simulation context --
        self.clock: int = 0
        self.events: List[Event] = []  # kept sorted by sort_key
        self.event_seq: int = 0
        self.timer_generations: Dict[int, int] = {}
        self.current_packet = None  # set while an on_recv handler runs
        self.history: tuple = ()  # communication history (packet log)
        # Per-egress-link busy-until times, written only by media with
        # finite bandwidth (repro.net.realistic); empty on the ideal path.
        self.link_busy: Dict[int, int] = {}
        self.forked_from: Optional[int] = None
        self.trace: Tuple[int, ...] = ()  # log() outputs, for tests

    # -- forking -------------------------------------------------------------

    def fork(self) -> "ExecutionState":
        """A deep-enough copy sharing all immutable substructure."""
        twin = object.__new__(ExecutionState)
        twin.sid = next(_state_ids)
        twin.node = self.node
        twin.memory = list(self.memory)
        twin.pc = self.pc
        twin.call_stack = list(self.call_stack)
        twin.opstack = list(self.opstack)
        twin.constraints = self.constraints
        twin.status = self.status
        twin.error = self.error
        twin.steps = self.steps
        twin.sym_counters = dict(self.sym_counters)
        twin.symbolics = list(self.symbolics)
        twin.clock = self.clock
        # Event objects are immutable once constructed (only the queue
        # list mutates), so forks share them and copy the list alone.
        twin.events = list(self.events)
        twin.event_seq = self.event_seq
        twin.timer_generations = dict(self.timer_generations)
        twin.current_packet = self.current_packet
        twin.history = self.history
        twin.link_busy = dict(self.link_busy)
        twin.forked_from = self.sid
        twin.trace = self.trace
        return twin

    # -- path constraints ------------------------------------------------------

    def add_constraint(self, constraint: BoolExpr) -> None:
        self.constraints = self.constraints.extended(constraint)

    def fresh_symbol_name(self, tag: str) -> str:
        count = self.sym_counters.get(tag, 0)
        self.sym_counters[tag] = count + 1
        suffix = str(count) if count else ""
        return f"n{self.node}.{tag}{suffix}"

    # -- event queue -------------------------------------------------------------

    def push_event(self, time: int, kind: str, data, generation: int = 0) -> Event:
        event = Event(time, self.event_seq, kind, data, generation)
        self.event_seq += 1
        self.events.append(event)
        self.events.sort(key=Event.sort_key)
        return event

    def pop_event(self) -> Optional[Event]:
        if not self.events:
            return None
        return self.events.pop(0)

    def peek_event_time(self) -> Optional[int]:
        return self.events[0].time if self.events else None

    # -- bookkeeping ----------------------------------------------------------------

    def record_sent(self, packet_id: int, dest: int) -> None:
        self.history = self.history + (("tx", packet_id, dest),)

    def record_received(self, packet_id: int, src: int) -> None:
        self.history = self.history + (("rx", packet_id, src),)

    def is_active(self) -> bool:
        return self.status in (Status.IDLE, Status.RUNNING)

    def config_key(self) -> tuple:
        """Canonical configuration fingerprint.

        Two states are *duplicates* in the paper's sense iff their
        configurations (heap, stack, program counter, path constraints and
        communication history) coincide.  ``sid`` is deliberately excluded.
        Used by the non-duplication tests for SDS and by dscenario
        equivalence oracles.
        """
        return (
            self.node,
            self.pc,
            tuple(self.memory),
            tuple(self.call_stack),
            tuple(self.opstack),
            self.constraints,
            self.status,
            self.error,
            self.clock,
            tuple(event.config_key() for event in self.events),
            self.current_packet,
            self.history,
            tuple(sorted(self.link_busy.items())),
        )

    def memory_cells(self) -> int:
        return len(self.memory)

    def __repr__(self) -> str:
        return (
            f"State(sid={self.sid}, node={self.node}, status={self.status},"
            f" pc={self.pc}, t={self.clock}ms, |C|={len(self.constraints)})"
        )

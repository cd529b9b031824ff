"""Execution states for symbolic distributed execution.

An :class:`ExecutionState` is one symbolic execution path of one node: its
full VM configuration (memory, program position, operand/call stacks), its
path constraints, plus the node-level simulation context (virtual clock,
pending event queue, current packet).  In the paper's terms these are
exactly the objects that state-mapping algorithms fork, group into
dstates/dscenarios and deliver packets to.

Between events a state is a value: every field holds an immutable object
(memory, stacks, event queue and symbolics are tuples, the three maps
:class:`FrozenMap` instances), so :meth:`~ExecutionState.fork` copies
slots and shares everything, as KLEE shares a state's memory objects
copy-on-write.  Writers replace a field, never change it in place.  The
executor gives a running state private memory and stack lists for the
length of one event and freezes them when the event ends; a fork in the
middle of an event copies those lists.  A state fresh from the
constructor holds a private memory list until it is frozen (the engine
does so at boot).

The *communication history* is an immutable tuple too — the paper notes
it need not be stored; we keep it because the invariant checks in the
test-suite use it (dstates must be conflict-free).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple, Union

from ..expr import BoolExpr, BVExpr
from ..solver.constraints import EMPTY, ConstraintSet
from .errors import GuestError

__all__ = [
    "ExecutionState",
    "Event",
    "FrozenMap",
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


class FrozenMap(dict):
    """A dict that refuses every in-place write.

    Forks share their maps, so a writer assigns a new map built by
    :meth:`with_item`; an in-place write raises instead of silently
    changing a twin.
    """

    __slots__ = ()

    def _immutable(self, *args, **kwargs):
        raise TypeError("FrozenMap is immutable: assign with_item() instead")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def with_item(self, key, value) -> "FrozenMap":
        """A copy of this map with ``key`` set to ``value``."""
        items = dict(self)
        items[key] = value
        return FrozenMap(items)

    def __reduce__(self):
        # Unpickling must not go through the refused __setitem__.
        return (FrozenMap, (dict(self),))


_NO_ITEMS = FrozenMap()


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
    cancelled without removing heap entries.  An event never changes once
    queued, so forks share it.
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
        # A list until frozen: a tuple between events, a private list
        # while an event runs.
        self.memory: Sequence[CellValue] = [0] * memory_size
        self.pc: int = 0
        self.call_stack: Sequence[int] = ()
        self.opstack: Sequence[CellValue] = ()
        # The path condition: a persistent parent-sharing ConstraintSet.
        # Forks alias the same node; add_constraint appends a child node,
        # so all analysis memos (canonical form, partition, model) are
        # shared along the prefix chain.
        self.constraints: ConstraintSet = EMPTY
        self.status: str = Status.IDLE
        self.error: Optional[GuestError] = None
        self.steps: int = 0
        self.sym_counters: FrozenMap = _NO_ITEMS
        self.symbolics: Tuple[Tuple[str, int], ...] = ()  # (var name, width)
        # -- node-level simulation context --
        self.clock: int = 0
        self.events: Tuple[Event, ...] = ()  # sorted by sort_key
        self.event_seq: int = 0
        self.timer_generations: FrozenMap = _NO_ITEMS
        self.current_packet = None  # set while an on_recv handler runs
        self.history: tuple = ()  # communication history (packet log)
        # Per-egress-link busy-until times, written only by media with
        # finite bandwidth (repro.net.realistic); empty on the ideal path.
        self.link_busy: FrozenMap = _NO_ITEMS
        self.forked_from: Optional[int] = None
        self.trace: Tuple[int, ...] = ()  # log() outputs, for tests

    # -- forking -------------------------------------------------------------

    def fork(self) -> "ExecutionState":
        """A copy of every slot; only a running state's lists are copied.

        A tuple's full slice is the tuple itself and a list's is a copy,
        so an idle fork shares every field and allocates one object.
        """
        twin = object.__new__(ExecutionState)
        twin.sid = next(_state_ids)
        twin.node = self.node
        twin.memory = self.memory[:]
        twin.pc = self.pc
        twin.call_stack = self.call_stack[:]
        twin.opstack = self.opstack[:]
        twin.constraints = self.constraints
        twin.status = self.status
        twin.error = self.error
        twin.steps = self.steps
        twin.sym_counters = self.sym_counters
        twin.symbolics = self.symbolics
        twin.clock = self.clock
        twin.events = self.events
        twin.event_seq = self.event_seq
        twin.timer_generations = self.timer_generations
        twin.current_packet = self.current_packet
        twin.history = self.history
        twin.link_busy = self.link_busy
        twin.forked_from = self.sid
        twin.trace = self.trace
        return twin

    def freeze(self) -> None:
        """Make memory and stacks tuples, as they are between events."""
        self.memory = tuple(self.memory)
        self.call_stack = tuple(self.call_stack)
        self.opstack = tuple(self.opstack)

    # -- path constraints ------------------------------------------------------

    def add_constraint(self, constraint: BoolExpr) -> None:
        self.constraints = self.constraints.extended(constraint)

    def add_symbolic(self, name: str, width: int) -> None:
        self.symbolics = self.symbolics + ((name, width),)

    def fresh_symbol_name(self, tag: str) -> str:
        count = self.sym_counters.get(tag, 0)
        self.sym_counters = self.sym_counters.with_item(tag, count + 1)
        suffix = str(count) if count else ""
        return f"n{self.node}.{tag}{suffix}"

    # -- event queue -------------------------------------------------------------

    def push_event(self, time: int, kind: str, data, generation: int = 0) -> Event:
        event = Event(time, self.event_seq, kind, data, generation)
        self.event_seq += 1
        events = self.events
        # Insert after every event that sorts at or before it (the queue
        # is short, and a new event is usually the last).
        key = event.sort_key()
        at = len(events)
        while at and events[at - 1].sort_key() > key:
            at -= 1
        self.events = events[:at] + (event,) + events[at:]
        return event

    def pop_event(self) -> Optional[Event]:
        events = self.events
        if not events:
            return None
        self.events = events[1:]
        return events[0]

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

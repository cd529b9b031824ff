"""The node operating system (Contiki stand-in).

Contiki applications are event-driven processes: run-to-completion handlers
woken by timers and packet arrivals.  :class:`NodeOS` reproduces that model
as the syscall host between guest NSL code and the SDE engine:

- guest handlers: ``on_boot()``, ``on_timer(id)``, ``on_recv(src, len)``;
- timers via ``timer_set``/``timer_stop`` (etimer-like, one-shot, re-armed
  by the handler — Contiki idiom);
- communication via ``uc_send``/``bc_send`` (Rime-like primitives; the
  engine performs state mapping on each transmission);
- the packet being handled is exposed through ``recv_len``/``recv_src``/
  ``recv_byte``/``recv_copy`` while ``on_recv`` runs.

The OS is stateless per se — all per-node state lives in the execution
state, so forking a state forks "the OS" with it for free.

For event summaries (docs/VM.md, "Summaries") the OS names what a handler
reads through it (the packet being handled) and records and replays its
effectful calls: a send with the payload it read, a timer call with its
id and delay.
"""

from __future__ import annotations

from typing import List, Protocol

from ..vm.errors import ErrorKind
from ..vm.executor import SyscallHost
from ..vm.state import CellValue, Event, ExecutionState
from ..vm.syscalls import SyscallAbort

__all__ = ["NodeOS", "EngineServices", "HANDLER_BOOT", "HANDLER_TIMER", "HANDLER_RECV"]

HANDLER_BOOT = "on_boot"
HANDLER_TIMER = "on_timer"
HANDLER_RECV = "on_recv"


class EngineServices(Protocol):
    """What the OS needs from the SDE engine."""

    node_count: int

    def guest_unicast(
        self, state: ExecutionState, dest: int, payload: List[CellValue]
    ) -> None: ...

    def guest_broadcast(
        self, state: ExecutionState, payload: List[CellValue]
    ) -> None: ...


def _concrete(value: CellValue, what: str) -> int:
    if not isinstance(value, int):
        raise SyscallAbort(f"{what} must be concrete, got a symbolic value")
    return value


class NodeOS(SyscallHost):
    """Per-run OS instance shared by all states (it holds no node state)."""

    effects = frozenset(["timer_set", "timer_stop", "uc_send", "bc_send"])

    def __init__(self, engine: EngineServices) -> None:
        # The SDE engine passes a weakref.proxy of itself: the engine owns
        # this OS through its executor, and a strong reference back would
        # make every engine cyclic garbage once dropped.
        self._engine = engine

    # -- syscall dispatch -----------------------------------------------------

    def syscall(self, state: ExecutionState, name: str, args):
        handler = getattr(self, f"_sys_{name}", None)
        if handler is None:
            raise SyscallAbort(f"unknown syscall {name!r}")
        return handler(state, args)

    # -- event summaries ------------------------------------------------------

    def event_input(self, state: ExecutionState):
        # recv_* expose the packet's source and payload; node_count is
        # fixed per run.
        packet = state.current_packet
        if packet is None:
            return ()
        return (packet.src,) + packet.payload

    def resolve(self, state: ExecutionState, name: str, args) -> tuple:
        if name == "bc_send":
            return (name, tuple(self._read_buffer(state, args[0], args[1])))
        if name == "uc_send":
            payload = self._read_buffer(state, args[1], args[2])
            return (name, args[0], tuple(payload))
        return (name,) + tuple(args)  # timer_set(id, delay), timer_stop(id)

    def replay(self, state: ExecutionState, effects) -> None:
        engine = self._engine
        for effect in effects:
            name = effect[0]
            if name == "bc_send":
                engine.guest_broadcast(state, effect[1])
            elif name == "uc_send":
                engine.guest_unicast(state, effect[1], effect[2])
            else:
                self.syscall(state, name, effect[1:])

    # -- identity / time --------------------------------------------------------

    def _sys_node_id(self, state, args):
        return state.node

    def _sys_node_count(self, state, args):
        return self._engine.node_count

    def _sys_time(self, state, args):
        return state.clock

    # -- timers ------------------------------------------------------------------

    def _sys_timer_set(self, state, args):
        timer_id = _concrete(args[0], "timer id")
        delay = _concrete(args[1], "timer delay")
        if delay < 0 or delay > 0x7FFFFFFF:
            raise SyscallAbort(f"timer delay {delay} out of range")
        generation = state.timer_generations.get(timer_id, 0) + 1
        state.timer_generations = state.timer_generations.with_item(
            timer_id, generation
        )
        state.push_event(
            state.clock + delay, Event.TIMER, timer_id, generation
        )
        return 0

    def _sys_timer_stop(self, state, args):
        timer_id = _concrete(args[0], "timer id")
        # Bumping the generation invalidates any pending expiry event.
        generations = state.timer_generations
        state.timer_generations = generations.with_item(
            timer_id, generations.get(timer_id, 0) + 1
        )
        return 0

    @staticmethod
    def timer_event_is_live(state: ExecutionState, event: Event) -> bool:
        """Does this TIMER event still correspond to the armed timer?"""
        return state.timer_generations.get(event.data, 0) == event.generation

    # -- transmission ----------------------------------------------------------------

    def _read_buffer(self, state, address_cell, length_cell) -> List[CellValue]:
        address = _concrete(address_cell, "buffer address")
        length = _concrete(length_cell, "buffer length")
        if length < 0 or length > 128:
            raise SyscallAbort(f"payload length {length} out of range")
        if address + length > len(state.memory):
            raise SyscallAbort(
                "payload buffer outside memory", ErrorKind.OUT_OF_BOUNDS
            )
        return list(state.memory[address : address + length])

    def _sys_uc_send(self, state, args):
        dest = _concrete(args[0], "unicast destination")
        if dest < 0 or dest >= self._engine.node_count:
            raise SyscallAbort(f"unicast destination {dest} does not exist")
        payload = self._read_buffer(state, args[1], args[2])
        self._engine.guest_unicast(state, dest, payload)
        return 0

    def _sys_bc_send(self, state, args):
        payload = self._read_buffer(state, args[0], args[1])
        self._engine.guest_broadcast(state, payload)
        return 0

    # -- reception accessors -------------------------------------------------------------

    def _current_packet(self, state):
        packet = state.current_packet
        if packet is None:
            raise SyscallAbort("recv_* used outside an on_recv handler")
        return packet

    def _sys_recv_len(self, state, args):
        return len(self._current_packet(state))

    def _sys_recv_src(self, state, args):
        return self._current_packet(state).src

    def _sys_recv_byte(self, state, args):
        packet = self._current_packet(state)
        index = _concrete(args[0], "payload index")
        if index < 0 or index >= len(packet):
            raise SyscallAbort(
                f"recv_byte({index}) outside payload of {len(packet)}",
                ErrorKind.OUT_OF_BOUNDS,
            )
        return packet.payload[index]

    def _sys_recv_copy(self, state, args):
        packet = self._current_packet(state)
        address = _concrete(args[0], "buffer address")
        offset = _concrete(args[1], "payload offset")
        length = _concrete(args[2], "copy length")
        if offset < 0 or length < 0 or offset + length > len(packet):
            raise SyscallAbort(
                "recv_copy range outside payload", ErrorKind.OUT_OF_BOUNDS
            )
        if address + length > len(state.memory):
            raise SyscallAbort(
                "recv_copy target outside memory", ErrorKind.OUT_OF_BOUNDS
            )
        for position in range(length):
            state.memory[address + position] = packet.payload[offset + position]
        return length

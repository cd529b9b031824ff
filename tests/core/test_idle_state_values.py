"""Idle execution states are values: an idle fork shares every field.

Between events every field of an :class:`ExecutionState` holds an
immutable object, so :meth:`ExecutionState.fork` copies slots.  That is
only sound if nothing writes a field in place: each writer must replace
the field on the state it changes and leave every twin as it was.  These
tests fork a mid-run idle state, apply one writer to the twin, and check
the original's whole configuration (``config_key()`` plus the fields it
leaves out) is unchanged.
"""

import pickle

import pytest

from repro import build_engine
from repro.net.failures import SymbolicPacketDrop
from repro.net.link_failures import SymbolicLinkFailure
from repro.net.packet import Packet
from repro.net.realistic import RealisticMedium
from repro.oslib import NodeOS
from repro.vm import Executor
from repro.vm.state import Event, ExecutionState, FrozenMap, Status
from repro.workloads import line_scenario

SHARED_SLOTS = [
    slot
    for slot in ExecutionState.__slots__
    if slot not in ("sid", "forked_from", "__weakref__")
]


def _view(state):
    """Everything a writer could change, including what config_key omits."""
    return (
        state.config_key(),
        dict(state.sym_counters),
        state.symbolics,
        dict(state.timer_generations),
        state.event_seq,
        state.trace,
    )


@pytest.fixture
def engine():
    """A COB line run stopped between events, with timers armed."""
    engine = build_engine(line_scenario(3, drop_nodes=[1, 2]), "cob")
    engine.run_until(split_events=12)
    return engine


@pytest.fixture
def state(engine):
    idle = [
        s
        for s in engine.states.values()
        if s.status == Status.IDLE and s.timer_generations and s.events
    ]
    assert idle
    return idle[0]


def test_an_idle_fork_shares_every_field(state):
    twin = state.fork()
    for slot in SHARED_SLOTS:
        assert getattr(twin, slot) is getattr(state, slot), slot
    assert type(state.memory) is tuple


def test_in_place_writes_to_an_idle_state_raise(state):
    with pytest.raises(TypeError):
        state.memory[0] = 1
    for stack in (state.call_stack, state.opstack, state.events, state.symbolics):
        with pytest.raises(AttributeError):
            stack.append(0)
    for mapping in (state.sym_counters, state.timer_generations, state.link_busy):
        with pytest.raises(TypeError):
            mapping[0] = 1
        with pytest.raises(TypeError):
            mapping.update({0: 1})
        with pytest.raises(TypeError):
            mapping.setdefault(0, 1)
        with pytest.raises(TypeError):
            mapping.clear()


def test_frozen_map_round_trips_a_pickle():
    mapping = FrozenMap({"drop": 2}).with_item("dup", 1)
    clone = pickle.loads(pickle.dumps(mapping))
    assert type(clone) is FrozenMap
    assert clone == {"drop": 2, "dup": 1}
    with pytest.raises(TypeError):
        clone["drop"] = 3


def _timer_set(engine, twin):
    NodeOS(engine=None).syscall(twin, "timer_set", [7, 50])


def _timer_stop(engine, twin):
    timer_id = next(iter(twin.timer_generations))
    NodeOS(engine=None).syscall(twin, "timer_stop", [timer_id])


def _fresh_symbol_name(engine, twin):
    twin.fresh_symbol_name("drop")


def _push_event(engine, twin):
    twin.push_event(twin.clock + 5, Event.TIMER, 3, 1)


def _pop_event(engine, twin):
    twin.pop_event()


def _egress(engine, twin):
    medium = RealisticMedium(engine.topology, bandwidth_cells_per_ms=1)
    medium._egress(twin, link=1, size=4)


def _packet_to(twin):
    src = 0 if twin.node != 0 else 1
    return Packet(src, twin.node, (1, 2), twin.clock)


def _link_failure(engine, twin):
    packet = _packet_to(twin)
    model = SymbolicLinkFailure([(packet.src, packet.dest)])
    model.apply([(twin, 1, False)], packet)


def _failure_model_fork(engine, twin):
    SymbolicPacketDrop([twin.node]).apply([(twin, 1, False)], _packet_to(twin))


def _reboot(engine, twin):
    engine._reboot(twin)


class _Network:
    """Takes the sends of a handler run on a state the engine never saw."""

    def __init__(self, node_count):
        self.node_count = node_count

    def guest_broadcast(self, state, payload):
        pass

    def guest_unicast(self, state, dest, payload):
        pass


def _run_timer(engine, states):
    """Run one timer expiry on each of ``states`` with one executor, so
    every run after the first replays the first one's summary."""
    network = _Network(engine.topology.node_count)
    executor = Executor(engine.program, host=NodeOS(network))
    for state in states:
        executor.run_event(state, "on_timer", [next(iter(state.timer_generations))])
    return executor


def _handler_run(engine, twin):
    _run_timer(engine, [twin])


def _summary_replay(engine, twin):
    assert _run_timer(engine, [twin.fork(), twin]).summary_hits == 1


WRITERS = [
    _timer_set,
    _timer_stop,
    _fresh_symbol_name,
    _push_event,
    _pop_event,
    _egress,
    _link_failure,
    _failure_model_fork,
    _reboot,
    _handler_run,
    _summary_replay,
]


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__.strip("_"))
def test_a_writer_leaves_the_twin_unchanged(engine, state, writer):
    twin = state.fork()
    before = _view(state)
    writer(engine, twin)
    assert _view(twin) != before  # the writer did write
    assert _view(state) == before
    assert _is_value(twin)


def _is_value(state):
    """Every field of ``state`` is immutable, as between events."""
    tuples = (
        state.memory,
        state.call_stack,
        state.opstack,
        state.events,
        state.symbolics,
    )
    maps = (state.sym_counters, state.timer_generations, state.link_busy)
    return all(type(field) is tuple for field in tuples) and all(
        type(field) is FrozenMap for field in maps
    )

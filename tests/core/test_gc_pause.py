"""The cyclic collector and the engine (docs/VM.md, "Memory management").

- ``run_until`` and ``run`` pause automatic collection and restore the
  collector's previous state, also when an exception escapes the loop;
- exploration allocates no cyclic garbage;
- a finished COB or COW engine is freed by refcount alone: its states
  and their path conditions (a parent holds its interned children
  weakly), and its executor, whose dispatch table holds unbound
  handlers.  SDS keeps one cycle on purpose (binding <-> member list
  <-> dstate) and needs one collection;
- the executor's event summaries key symbolic input on its path
  condition, so the summary table holds path-condition nodes; they go
  with the executor;
- the reducer's template table lives and dies with its engine.
"""

import gc
import weakref

import pytest

from benchmarks.ladder.workloads import SYMBOLIC_FLOOD
from repro import build_engine
from repro.api import Scenario, Topology
from repro.core import MappingError
from repro.core.engine import gc_paused
from repro.solver import EMPTY, ConstraintSet
from repro.net.failures import (
    SymbolicDuplication,
    SymbolicNodeReboot,
    SymbolicPacketDrop,
)
from repro.workloads import election_scenario, flood_scenario, grid_scenario

SCENARIOS = {
    "flood": lambda: flood_scenario(3, rounds=1),
    "grid": lambda: grid_scenario(3, sim_seconds=3),
    "election": lambda: election_scenario(4),
    # Every reception branches on symbolic data: builds and queries path
    # conditions, so the interned ConstraintSet children are exercised.
    "symflood": lambda: Scenario(
        name="symbolic-flood-line3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.line(3),
        horizon_ms=300,
    ),
}
FAILURES = {
    "drop": SymbolicPacketDrop,
    "dup": SymbolicDuplication,
    "reboot": SymbolicNodeReboot,
}
ALGORITHMS = ("cob", "cow", "sds")


def build(algorithm, scenario="grid", failure="drop"):
    built = SCENARIOS[scenario]()
    models = (FAILURES[failure](built.topology.nodes()),)
    return build_engine(built, algorithm, failure_models=models)


@pytest.fixture
def collector():
    """Put the collector back the way the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector")
class TestPauseRestores:
    def test_nested_pause_restores_only_at_the_outermost_exit(self):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("entry", ["run", "run_until"])
    def test_collector_paused_inside_and_restored_after(self, entry, enabled):
        engine = build("sds")
        seen = []
        map_transmission = engine.mapper.map_transmission

        def observing(sender, dest_node):
            seen.append(gc.isenabled())
            return map_transmission(sender, dest_node)

        engine.mapper.map_transmission = observing
        if enabled:
            gc.enable()
        else:
            gc.disable()
        getattr(engine, entry)()
        assert seen and not any(seen)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("entry", ["run", "run_until"])
    def test_restored_when_an_exception_escapes(self, entry, enabled):
        engine = build("cow")

        def broken(sender, dest_node):
            raise MappingError("injected")

        engine.mapper.map_transmission = broken
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(MappingError, match="injected"):
            getattr(engine, entry)()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("failure", sorted(FAILURES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_exploration_allocates_no_cyclic_garbage(algorithm, scenario, failure):
    engine = build(algorithm, scenario, failure)
    gc.collect()
    report = engine.run()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert report.total_states > 0 and engine.states  # still alive
    assert found == 0


@pytest.mark.usefixtures("collector")
class TestTeardown:
    def _finished(self, algorithm, scenario="grid"):
        # Path-condition nodes are shared by every live holder in the
        # process: collect earlier tests' SDS cycles so none holds ours.
        gc.collect()
        engine = build(algorithm, scenario)
        report = engine.run()
        live = [s for s in engine.states.values() if s not in report.error_states]
        state = max(live, key=lambda s: len(s.constraints))  # first if none has one
        return engine, weakref.ref(state)

    @pytest.mark.parametrize("algorithm", ["cob", "cow"])
    def test_dropped_engine_frees_its_states_by_refcount(self, algorithm):
        engine, state = self._finished(algorithm)
        gc.disable()
        del engine
        assert state() is None

    @pytest.mark.parametrize("algorithm", ["cob", "cow"])
    def test_dropped_state_frees_its_path_condition_by_refcount(self, algorithm):
        engine, state = self._finished(algorithm, "symflood")
        constraints = weakref.ref(state().constraints)
        assert len(constraints()) > 0  # a non-root node, not EMPTY
        gc.disable()
        del engine
        assert state() is None
        assert constraints() is None

    def test_sds_virtual_layer_is_freed_by_one_collection(self):
        engine, state = self._finished("sds")
        gc.disable()
        del engine
        # The documented cycle: a binding and its member list, and the
        # list and the dstates holding it, point at each other.
        assert state() is not None
        gc.collect()
        assert state() is None

    @pytest.mark.parametrize("algorithm", ["cob", "cow"])
    def test_dropped_engine_leaves_no_cyclic_garbage(self, algorithm):
        engine, _ = self._finished(algorithm)
        executor = weakref.ref(engine.executor)
        gc.disable()
        del engine
        assert executor() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert found == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_summary_path_conditions_are_freed_by_one_collection(self, algorithm):
        engine, _ = self._finished(algorithm, "symflood")
        held = [
            weakref.ref(key[-1])
            for key in engine.executor._summaries
            if isinstance(key[-1], ConstraintSet) and key[-1] is not EMPTY
        ]
        assert held
        gc.disable()
        del engine
        if algorithm != "sds":  # SDS states sit in its virtual-layer cycle
            assert [ref for ref in held if ref() is not None] == []
        gc.collect()
        assert [ref for ref in held if ref() is not None] == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_reducer_template_table_is_freed_with_the_engine(self, algorithm):
        gc.collect()
        engine = build_engine(
            SCENARIOS["symflood"](), algorithm, symmetry=True, por=True
        )
        engine.run()
        table = engine.reducer._templates
        assert table.exprs and table.memories and table.groups
        table = weakref.ref(table)
        gc.disable()
        del engine
        assert table() is None

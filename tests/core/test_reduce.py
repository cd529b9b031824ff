"""Symmetry + partial-order reduction (``repro.core.reduce``).

Four layers:

- the automorphism machinery (group sizes for the stock topologies,
  orbits, closure, and generated graphs against networkx's VF2 matcher);
- the canonicalization property — ``canonicalize(permute(s)) ==
  canonicalize(s)`` for random reachable states under random
  automorphisms (hypothesis) — and the one-walk canonical form, built
  from the reducer's token templates, checked against an uncached
  per-permutation reference serializer;
- the static receive-handler certification that guards POR;
- the reducer wired into the engine: pruning/sleeping/waking counters,
  verdict preservation, the uncertified-handler self-disable, and
  composition with the parallel and distributed runners.
"""

import itertools
import pickle
from typing import List, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from repro.api import (
    DistributedRunner,
    Scenario,
    Topology,
    build_engine,
)
from repro.core import reduce
from repro.core.reduce import (
    MAX_AUTOMORPHISMS,
    StateReducer,
    _Canon,
    analyze_recv_handler,
    automorphisms,
    canonical_state_form,
    canonical_violations,
    delivery_independent,
    node_orbit,
    permute_state,
    state_fingerprint,
)
from repro.core.snapshot import EngineSnapshot
from repro.expr import add, bv, sub, ult, var
from repro.expr.ast import BoolConst, BVConst, BVVar
from repro.lang import compile_source
from repro.net.packet import Packet
from repro.vm.state import Event, ExecutionState

from benchmarks.ladder.workloads import runs_for

from ..conftest import budget
from ..net.graphs import reference_graph, topologies

#: Symbolic readings guarded by assertions: every reception forks on the
#: solver and one branch violates, so runs report real verdicts.
GUARDED = """
var seen = 0;

func on_boot() {
    timer_set(0, 40 + node_id() * 7);
}

func on_timer(id) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}

func on_recv(src, len) {
    var v = recv_byte(0);
    assert(v < 200, 7);
    seen = seen + 1;
}
"""


def _guard_scenario(topology, horizon_ms=300):
    return Scenario(
        name=f"guarded-{topology.name}",
        program=GUARDED,
        topology=topology,
        horizon_ms=horizon_ms,
    )


def _reference_group(topology, limit):
    """At most ``limit`` automorphisms from networkx's VF2 matcher."""
    graph = reference_graph(topology)
    mappings = itertools.islice(GraphMatcher(graph, graph).isomorphisms_iter(), limit)
    return {tuple(m[node] for node in topology.nodes()) for m in mappings}


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "topology,order",
        [
            (Topology.line(3), 2),  # reflection
            (Topology.line(5), 2),
            (Topology.full_mesh(3), 6),  # S_3
            (Topology.ring(4), 8),  # dihedral D_4
            (Topology.ring(5), 10),  # dihedral D_5
            (Topology.grid(2, 2), 8),  # 2x2 lattice == 4-ring
            (Topology.grid(3, 2), 4),  # horizontal x vertical flips
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_group_orders(self, topology, order):
        assert len(automorphisms(topology)) == order

    def test_identity_always_present(self):
        for topology in (Topology.line(4), Topology.star(4)):
            autos = automorphisms(topology)
            assert tuple(range(topology.node_count)) in autos

    def test_group_closed_under_composition(self):
        autos = automorphisms(Topology.ring(4))
        group = set(autos)
        for left in autos:
            for right in autos:
                composed = tuple(left[right[i]] for i in range(len(right)))
                assert composed in group

    def test_orbits(self):
        line = Topology.line(3)
        autos = automorphisms(line)
        # Ends reflect onto each other; the middle is fixed.
        assert node_orbit(0, autos) == node_orbit(2, autos) == 0
        assert node_orbit(1, autos) == 1
        ring = Topology.ring(5)
        ring_autos = automorphisms(ring)
        assert {node_orbit(n, ring_autos) for n in range(5)} == {0}

    def test_truncation_keeps_identity(self):
        mesh = Topology.full_mesh(4)
        autos = automorphisms(mesh, limit=3)
        assert len(autos) == 3
        assert tuple(range(4)) in autos

    def test_limit_is_part_of_the_cache_key(self):
        # The whole group first, then a truncated request of the same
        # graph: the second call must not return the cached whole group.
        mesh = Topology.full_mesh(4)
        assert len(automorphisms(mesh)) == 24
        assert len(automorphisms(mesh, limit=3)) == 3
        assert len(automorphisms(mesh)) == 24

    def test_large_grid_needs_no_recursion(self):
        # 1,600 nodes is past Python's recursion limit: one frame per
        # mapped node could not finish this search.
        autos = automorphisms(Topology.grid(40))
        assert len(autos) == 8
        assert tuple(range(1600)) in autos

    @settings(max_examples=budget(150), deadline=None)
    @given(topologies(), st.one_of(st.just(MAX_AUTOMORPHISMS), st.integers(1, 40)))
    def test_group_equals_networkx(self, topology, limit):
        """Below the cap the group is networkx ``GraphMatcher``'s; a
        truncated one is ``limit`` real automorphisms with the identity."""
        autos = automorphisms(topology, limit=limit)
        identity = tuple(range(topology.node_count))
        if len(autos) < limit:
            assert set(autos) == _reference_group(topology, limit)
            return
        assert len(autos) == limit
        assert identity in autos
        for perm in autos:
            assert sorted(perm) == list(identity)
            assert {
                (min(perm[a], perm[b]), max(perm[a], perm[b]))
                for a, b in topology.edges
            } == topology.edges


# ---------------------------------------------------------------------------
# Canonicalization invariance (the tentpole property test)
# ---------------------------------------------------------------------------

_TOPOLOGIES = [
    Topology.line(3),
    Topology.ring(4),
    Topology.grid(2, 2),
    Topology.grid(3, 2),
]
_STATE_CACHE = {}


def _reachable_states(index):
    """All states (any status) of a sequential GUARDED run, cached."""
    if index not in _STATE_CACHE:
        topology = _TOPOLOGIES[index]
        engine = build_engine(_guard_scenario(topology), "sds")
        engine.run()
        _STATE_CACHE[index] = (
            list(engine.states.values()),
            automorphisms(topology),
        )
    return _STATE_CACHE[index]


class TestCanonicalInvariance:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuted_state_has_same_canonical_form(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(_TOPOLOGIES) - 1)
        )
        states, autos = _reachable_states(index)
        state = states[
            data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        ]
        perm = autos[
            data.draw(st.integers(min_value=0, max_value=len(autos) - 1))
        ]
        assert canonical_state_form(
            permute_state(state, perm), autos
        ) == canonical_state_form(state, autos)

    def test_identity_permutation_is_noop_fingerprint(self):
        states, autos = _reachable_states(0)
        identity = tuple(range(3))
        for state in states[:10]:
            assert state_fingerprint(state, identity) == state_fingerprint(
                state
            )


# ---------------------------------------------------------------------------
# One serialization walk per canonical form
# ---------------------------------------------------------------------------

# The uncached walk: the reducer's template table must reproduce its
# tokens exactly.


def _serialize_expr(root, canon: _Canon, out: List) -> None:
    """Append a pre-order token stream for ``root`` (iterative: constraint
    chains from long loops exceed the recursion limit)."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, BVVar):
            out.append(("v", canon.rename(node.name), node.width))
            continue
        if isinstance(node, BVConst):
            out.append(("c", node.value, node.width))
            continue
        if isinstance(node, BoolConst):
            out.append(("b", node.value))
            continue
        out.append(
            (
                type(node).__name__,
                getattr(node, "op", None),
                getattr(node, "low", None),
                getattr(node, "signed", None),
            )
        )
        children = node.children()
        # Reversed so the stream stays in left-to-right pre-order.
        stack.extend(reversed(children))


def _serialize_cell(cell, canon: _Canon, out: List) -> None:
    if isinstance(cell, int):
        out.append(cell)
    else:
        out.append("<expr>")
        _serialize_expr(cell, canon, out)


def _live_variables(state: ExecutionState) -> Set:
    """Symbolic variables an idle state can still observe: those in guest
    memory plus those in pending packet payloads."""
    live: Set = set()
    for cell in state.memory:
        if not isinstance(cell, int):
            live.update(cell.variables())
    for event in state.events:
        if event.kind == Event.RECV:
            for cell in event.data.payload:
                if not isinstance(cell, int):
                    live.update(cell.variables())
    return live


def _reference_serialize_packet(packet, perm, canon, out):
    out.append(("pkt", perm[packet.src]))
    for cell in packet.payload:
        _serialize_cell(cell, canon, out)


def _reference_serialize_state(state, perm, canon):
    """The serialization under node relabelling ``perm``, written out in
    full for every permutation: the reference the one-walk form must
    equal token for token."""
    out = [("node", perm[state.node]), ("status", state.status)]
    out.append("mem")
    for cell in state.memory:
        _serialize_cell(cell, canon, out)
    out.append("events")
    for event in state.events:
        if event.kind == Event.RECV:
            out.append(("recv", event.time))
            _reference_serialize_packet(event.data, perm, canon, out)
        elif event.kind == Event.TIMER:
            live = event.generation == state.timer_generations.get(event.data, 0)
            out.append(("timer", event.time, event.data, live))
        else:
            out.append((event.kind, event.time))
    out.append("constraints")
    live = _live_variables(state)
    groups = []
    for conjuncts, variables in state.constraints.partition_groups():
        if live and not variables.isdisjoint(live):
            group_out = []
            group_canon = _Canon(canon)
            for conjunct in conjuncts:
                _serialize_expr(conjunct, group_canon, group_out)
            groups.append(tuple(group_out))
    out.extend(sorted(groups))
    return out


def _reference_form(state, perms, packet=None):
    """The minimum over ``perms`` of one full serialization each."""
    best = None
    for perm in perms:
        canon = _Canon()
        tokens = _reference_serialize_state(state, perm, canon)
        if packet is not None:
            _reference_serialize_packet(packet, perm, canon, tokens)
        candidate = tuple(tokens)
        if best is None or candidate < best:
            best = candidate
    return best


#: GUARDED with every node's timer at the same instant, so all nodes
#: broadcast together and states hold several pending receptions from
#: distinct sources — the case where the packet-source slots, not just
#: the node slot, decide the canonical relabelling.
SIMULTANEOUS = GUARDED.replace("40 + node_id() * 7", "40")

_WALK_TOPOLOGIES = [
    Topology.full_mesh(4),
    Topology.ring(4),
    Topology.grid(2, 2),
    Topology.line(3),
]
_INPUT_CACHE = {}


def _pending_sources(state):
    return {e.data.src for e in state.events if e.kind == Event.RECV}


def _reducer_inputs(index):
    """The states and packets a reduced SIMULTANEOUS run fingerprints.

    Returns ``(reducer, states, multi, packets)``: a fresh reducer for
    the topology, copies of every fingerprinted state, those among them
    with pending receptions from at least two sources, and every packet
    the run fingerprinted (delivered or pending)."""
    if index not in _INPUT_CACHE:
        topology = _WALK_TOPOLOGIES[index]
        captured = []
        original = StateReducer._fingerprint

        def capture(self, state, packet=None):
            captured.append((state.fork(), packet))
            return original(self, state, packet)

        StateReducer._fingerprint = capture
        try:
            build_engine(
                Scenario(
                    name=f"simultaneous-{topology.name}",
                    program=SIMULTANEOUS,
                    topology=topology,
                    horizon_ms=300,
                ),
                "sds",
                symmetry=True,
                por=True,
            ).run()
        finally:
            StateReducer._fingerprint = original
        states = [state for state, _ in captured]
        packets = [packet for _, packet in captured if packet is not None]
        for state in states:
            packets.extend(
                e.data for e in state.events if e.kind == Event.RECV
            )
        _INPUT_CACHE[index] = (
            StateReducer(topology, compile_source(SIMULTANEOUS)),
            states,
            [state for state in states if len(_pending_sources(state)) >= 2],
            packets,
        )
    return _INPUT_CACHE[index]


class TestOneWalkCanonicalForm:
    def test_multi_source_states_are_drawn(self):
        _, _, multi, packets = _reducer_inputs(0)
        assert len(multi) >= 5 and packets

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_per_permutation_reference(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(_WALK_TOPOLOGIES) - 1)
        )
        reducer, states, multi, packets = _reducer_inputs(index)
        pool = multi if multi and data.draw(st.booleans()) else states
        state = pool[data.draw(st.integers(0, len(pool) - 1))]
        packet = packets[data.draw(st.integers(0, len(packets) - 1))]
        stabilizer = reducer._stabilizers[state.node]

        walks = []
        walk = reduce._serialize_state

        def counted(*args):
            walks.append(args)
            return walk(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduce, "_serialize_state", counted)
            fingerprint = reducer._fingerprint(state)
            assert len(walks) == 1
            delivery_key = reducer._delivery_key(state, packet)
            assert len(walks) == 2
            canonical = canonical_state_form(state, reducer.autos)
            assert len(walks) == 3
            identity = state_fingerprint(state)
            assert len(walks) == 4

        assert fingerprint == _reference_form(state, stabilizer)
        assert delivery_key == _reference_form(state, stabilizer, packet)
        assert canonical == _reference_form(state, reducer.autos)
        node_count = len(reducer.autos[0])
        assert identity == _reference_form(state, [tuple(range(node_count))])


    def test_template_table_equals_the_walk_on_crafted_states(self):
        """Shapes the protocol runs above never make: expressions over
        several variables, a live group with a variable seen nowhere else,
        and one memory tuple and path condition both with and without a
        pending reception that makes another group live."""
        x, y, z, w = (var(name, 8) for name in ("n1.x", "n2.y", "n3.z", "n0.w"))
        idle = ExecutionState(0, 3)
        idle.memory = (3, add(y, x), x)
        for constraint in (ult(x, w), ult(z, bv(9, 8)), ult(y, bv(5, 8))):
            idle.add_constraint(constraint)
        receiving = idle.fork()
        receiving.push_event(10, Event.RECV, Packet(1, 0, (7, add(z, w)), 0))
        packet = Packet(2, 0, (sub(w, z),), 0)
        reducer = StateReducer(Topology.ring(4), compile_source(GUARDED))
        stabilizer = reducer._stabilizers[0]
        for state in (idle, receiving, idle, receiving):  # cold, then warm
            assert reducer._fingerprint(state) == _reference_form(
                state, stabilizer
            )
            assert reducer._delivery_key(state, packet) == _reference_form(
                state, stabilizer, packet
            )


# ---------------------------------------------------------------------------
# Static receive-handler certification (the POR guard)
# ---------------------------------------------------------------------------


def _analyze(recv_body):
    source = """
var total = 0;

func on_recv(src, len) {
%s
}
""" % recv_body
    return analyze_recv_handler(compile_source(source))


class TestHandlerAnalysis:
    def test_no_handler_certifies(self):
        ok, reason = analyze_recv_handler(
            compile_source("var x = 0;\nfunc on_boot() { x = 1; }\n")
        )
        assert ok and reason == "no receive handler"

    def test_commuting_increment_certifies(self):
        ok, reason = _analyze("    total = total + 1;")
        assert ok, reason
        ok, reason = _analyze("    var v = recv_byte(0);\n    total += 1;")
        assert ok, reason

    def test_guarded_workload_certifies(self):
        ok, reason = analyze_recv_handler(compile_source(GUARDED))
        assert ok, reason

    def test_overwriting_global_rejects(self):
        ok, reason = _analyze("    total = recv_byte(0);")
        assert not ok
        assert "non-commutative" in reason

    def test_send_in_handler_rejects(self):
        # Rejected for the indexed payload store before the send syscall
        # is even reached — either reason keeps POR off.
        ok, reason = _analyze(
            "    var buf[1];\n    buf[0] = 1;\n    bc_send(buf, 1);"
        )
        assert not ok

    def test_timer_in_handler_rejects(self):
        ok, reason = _analyze("    timer_set(0, 10);")
        assert not ok
        assert "impure syscall" in reason

    def test_call_rejects(self):
        source = """
var total = 0;
func helper() { total += 1; }
func on_recv(src, len) { helper(); }
"""
        ok, reason = analyze_recv_handler(compile_source(source))
        assert not ok
        assert "call" in reason


class TestDeliveryIndependence:
    def test_same_source_is_dependent(self):
        a = Packet(src=0, dest=1, payload=(1,), sent_at=10)
        b = Packet(src=0, dest=2, payload=(2,), sent_at=10)
        assert not delivery_independent(a, b)

    def test_concrete_disjoint_sources_are_independent(self):
        a = Packet(src=0, dest=2, payload=(1,), sent_at=10)
        b = Packet(src=1, dest=2, payload=(2,), sent_at=10)
        assert delivery_independent(a, b)

    def test_shared_symbolic_variable_is_dependent(self):
        reading = var("n0.reading0", 8)
        a = Packet(src=0, dest=2, payload=(reading,), sent_at=10)
        b = Packet(
            src=1, dest=2, payload=(add(reading, bv(1, 8)),), sent_at=20
        )
        assert not delivery_independent(a, b)

    def test_distinct_symbolic_variables_are_independent(self):
        a = Packet(src=0, dest=2, payload=(var("n0.r0", 8),), sent_at=10)
        b = Packet(src=1, dest=2, payload=(var("n1.r0", 8),), sent_at=10)
        assert delivery_independent(a, b)


# ---------------------------------------------------------------------------
# The reducer wired into the engine
# ---------------------------------------------------------------------------


class TestReducerInEngine:
    def test_grid_guard_prunes_sleeps_and_wakes(self):
        topology = Topology.grid(2, 2)
        off = build_engine(_guard_scenario(topology, 400), "sds").run()
        on = build_engine(
            _guard_scenario(topology, 400), "sds", symmetry=True, por=True
        ).run()
        assert on.total_states < off.total_states
        counters = on.metrics["counters"]
        assert counters["reduce.pruned"] >= 1
        assert counters["reduce.slept_twins"] >= 1
        assert counters["reduce.woken"] >= 1
        assert counters["reduce.disabled"] == 0
        assert canonical_violations(on, topology) == canonical_violations(
            off, topology
        )

    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_verdicts_preserved_across_algorithms(self, algorithm):
        topology = Topology.ring(4)
        off = build_engine(_guard_scenario(topology), algorithm).run()
        on = build_engine(
            _guard_scenario(topology), algorithm, symmetry=True, por=True
        ).run()
        assert canonical_violations(off, topology)  # the gate is not vacuous
        assert canonical_violations(on, topology) == canonical_violations(
            off, topology
        )
        assert on.total_states <= off.total_states

    def test_uncertified_handler_self_disables(self):
        # Rebroadcasting inside on_recv is not POR-safe (a parked state
        # would suppress its sends), so the reducer must switch itself
        # off and change nothing.
        relay = """
var fwd = 0;

func on_boot() {
    if (node_id() == 0) { timer_set(0, 50); }
}

func on_timer(id) {
    var buf[1];
    buf[0] = symbolic("x", 8);
    bc_send(buf, 1);
}

func on_recv(src, len) {
    if (fwd < 1) {
        var buf[1];
        buf[0] = recv_byte(0);
        bc_send(buf, 1);
    }
    fwd += 1;
}
"""

        def scenario():
            return Scenario(
                name="relay-line",
                program=relay,
                topology=Topology.line(3),
                horizon_ms=200,
            )

        off = build_engine(scenario(), "sds").run()
        on = build_engine(
            scenario(), "sds", symmetry=True, por=True
        ).run()
        counters = on.metrics["counters"]
        assert counters["reduce.disabled"] == 1
        assert counters["reduce.pruned"] == 0
        assert counters["reduce.slept_twins"] == 0
        assert on.total_states == off.total_states
        assert on.group_count == off.group_count
        assert on.events_executed == off.events_executed

    def test_reduced_flood_counters_are_pinned(self):
        """The ladder's reduced-flood run: every fingerprint, delivery key
        and so every park, sleep and wake decision shows up here."""
        (run,) = runs_for("reduced-flood", 7)
        report = run.execute(run.scenario())
        assert (report.total_states, report.group_count) == (4002, 48)
        counters = report.metrics["counters"]
        assert {
            key[len("reduce."):]: value
            for key, value in counters.items()
            if key.startswith("reduce.")
        } == {
            "fingerprints": 4346,
            "pruned": 936,
            "slept_twins": 67,
            "slept_events": 4482,
            "woken": 67,
            "disabled": 0,
            "orbits": 217,
        }

    def test_reduced_flood_fingerprints_equal_the_reference_walk(self):
        """Every fingerprint and delivery key of a whole reduced-flood
        run, taken from the reducer's warm template table, equals the
        uncached per-permutation walk of the same state at that moment."""
        audited = []
        original = StateReducer._fingerprint

        def audit(self, state, packet=None):
            fingerprint = original(self, state, packet)
            reference = _reference_form(
                state, self._stabilizers[state.node], packet
            )
            assert fingerprint == reference
            audited.append(packet is not None)
            return fingerprint

        (run,) = runs_for("reduced-flood", 7)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StateReducer, "_fingerprint", audit)
            report = run.execute(run.scenario())
        assert (len(audited), sum(audited)) == (4346, 3126)  # 3126 with a packet
        assert (report.total_states, report.events_executed) == (4002, 4672)
        counters = report.metrics["counters"]
        assert (
            counters["reduce.fingerprints"],
            counters["reduce.pruned"],
            counters["reduce.orbits"],
            counters["reduce.slept_twins"],
            counters["reduce.woken"],
            counters["reduce.slept_events"],
        ) == (4346, 936, 217, 67, 67, 4482)

    def test_restored_reducer_starts_with_an_empty_table(self):
        engine = build_engine(
            _guard_scenario(Topology.ring(4)), "sds", symmetry=True, por=True
        )
        engine.run_until(12)
        assert engine.reducer._templates.memories
        snapshot = EngineSnapshot.capture(engine, with_counters=True)
        restored = pickle.loads(pickle.dumps(snapshot)).restore()
        table = restored.reducer._templates
        assert not (table.exprs or table.memories or table.groups)

    def test_reduction_off_exposes_no_counters(self):
        report = build_engine(
            _guard_scenario(Topology.line(3)), "sds"
        ).run()
        assert not any(
            key.startswith("reduce.")
            for key in report.metrics["counters"]
        )

    def test_composes_with_parallel_runner(self):
        topology = Topology.ring(4)
        sequential = build_engine(
            _guard_scenario(topology), "sds", symmetry=True, por=True
        ).run()
        parallel = DistributedRunner(
            _guard_scenario(topology),
            "sds",
            workers=2,
            partition_depth=18,  # the events run before 30% of the horizon
            steal=False,
            symmetry=True,
            por=True,
        ).run()
        assert parallel.total_states == sequential.total_states
        assert canonical_violations(
            parallel, topology
        ) == canonical_violations(sequential, topology)
        merged = parallel.metrics["counters"]
        assert merged["reduce.slept_twins"] >= 1

    def test_reduction_runs_inside_a_worker(self):
        """A cut six events in: the prefix has slept no twin yet, so every
        slept twin of the merged run was slept by a worker's reducer."""
        topology = Topology.ring(4)
        sequential = build_engine(
            _guard_scenario(topology), "sds", symmetry=True, por=True
        ).run()
        prefix = build_engine(
            _guard_scenario(topology), "sds", symmetry=True, por=True
        )
        prefix.run_until(6)
        distributed = DistributedRunner(
            _guard_scenario(topology),
            "sds",
            workers=2,
            partition_depth=6,
            steal=False,
            symmetry=True,
            por=True,
        ).run()
        assert distributed.jobs_dispatched >= 1
        assert distributed.events_executed > distributed.prefix_events == 6
        assert distributed.total_states == sequential.total_states
        assert canonical_violations(
            distributed, topology
        ) == canonical_violations(sequential, topology)
        slept = distributed.metrics["counters"]["reduce.slept_twins"]
        assert slept >= 1
        assert prefix.reducer.slept_twins.value == 0

    def test_composes_with_distributed_runner(self):
        topology = Topology.ring(4)
        off = build_engine(_guard_scenario(topology), "sds").run()
        distributed = DistributedRunner(
            _guard_scenario(topology),
            "sds",
            workers=2,
            probe_events=2,
            symmetry=True,
            por=True,
        ).run()
        assert canonical_violations(
            distributed, topology
        ) == canonical_violations(off, topology)
        assert distributed.total_states < off.total_states
        assert distributed.metrics["counters"]["reduce.slept_twins"] >= 1

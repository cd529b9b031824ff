"""ConstraintSet: structural sharing, hash-consing, memoized analysis,
identity, pickling, and the no-per-query-materialization guarantee."""

import gc
import itertools
import pickle
import tracemalloc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import add, bv, eq, evaluate, ne, ult, var
from repro.solver import EMPTY, ConstraintSet, Model, Solver, as_constraint_set

X = var("x")
Y = var("y")


class TestStructuralSharing:
    def test_child_shares_parent_node(self):
        parent = EMPTY.extended(ult(X, bv(10)))
        child = parent.extended(ult(Y, bv(5)))
        assert child.parent is parent
        assert len(parent) == 1 and len(child) == 2
        # Forks extend, never copy: the parent is untouched.
        assert list(parent) == [ult(X, bv(10))]

    def test_raw_is_memoized_and_prefix_shared(self):
        parent = EMPTY.extended(ult(X, bv(10)))
        child = parent.extended(ult(Y, bv(5)))
        assert child.raw() is child.raw()
        assert child.raw()[:1] == parent.raw()

    def test_iteration_indexing_membership(self):
        a, b = ult(X, bv(9)), ult(Y, bv(9))
        cs = EMPTY.extended(a).extended(b)
        assert list(cs) == [a, b]
        assert cs[0] is a and cs[1] is b
        assert a in cs and ne(X, bv(0)) not in cs
        assert bool(cs) and not bool(EMPTY)

    def test_as_constraint_set_passthrough_and_adapter(self):
        cs = EMPTY.extended(eq(X, bv(1)))
        assert as_constraint_set(cs) is cs
        adapted = as_constraint_set([eq(X, bv(1))])
        assert isinstance(adapted, ConstraintSet) and adapted == cs


class TestHashConsing:
    def test_extending_twice_with_one_conjunct_returns_one_node(self):
        parent = EMPTY.extended(ult(X, bv(10)))
        child = parent.extended(ult(Y, bv(5)))
        assert parent.extended(ult(Y, bv(5))) is child
        assert parent.extended(ult(Y, bv(6))) is not child

    def test_unreferenced_child_is_freed_by_refcount(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            parent = EMPTY.extended(ult(X, bv(11)))
            child = weakref.ref(parent.extended(ult(Y, bv(3))))
            assert child() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_child_table_never_keeps_a_child_alive(self):
        parent = EMPTY.extended(ult(X, bv(12)))
        held = parent.extended(eq(Y, bv(1)))
        dropped = weakref.ref(parent.extended(eq(Y, bv(2))))
        grandchild = weakref.ref(held.extended(ult(X, bv(4))))
        assert dropped() is None and grandchild() is None
        assert parent.extended(eq(Y, bv(1))) is held
        # A dead child's entry leaves its parent's table with it.
        assert list(parent._children) == [eq(Y, bv(1))]
        assert not held._children
        del held
        assert not parent._children


class TestIdentity:
    def test_content_equality_with_tuple_and_set(self):
        a = ult(X, bv(10))
        cs = EMPTY.extended(a)
        assert cs == (a,)
        assert cs == EMPTY.extended(a)
        assert hash(cs) == hash(EMPTY.extended(a))

    def test_distinct_content_differs(self):
        assert EMPTY.extended(eq(X, bv(1))) != EMPTY.extended(eq(X, bv(2)))
        assert EMPTY.extended(eq(X, bv(1))) != EMPTY


class TestPickleTransport:
    def test_round_trip_preserves_content_and_rebuilds_memos(self):
        cs = EMPTY.extended(eq(X, bv(5))).extended(ult(Y, bv(9)))
        cs.seed_model(Model({"x": 5, "y": 0}))
        clone = pickle.loads(pickle.dumps(cs))
        assert clone == cs and hash(clone) == hash(cs)
        # Memos are per-process: the seeded model does not travel (the
        # zero-default model propagated from EMPTY fails eq(x,5), so the
        # rebuilt chain carries none).
        assert clone.cached_model() is None
        hit, _ = clone.cached_verdict(eq(X, bv(5)))
        assert not hit


class TestModelMemo:
    def test_zero_default_model_propagates_from_empty(self):
        # EMPTY's pristine empty model (every variable defaults to 0)
        # rides down any chain it satisfies — a fork starts at tier 0
        # without ever having queried the solver.
        cs = EMPTY.extended(ult(X, bv(10)))
        model = cs.cached_model()
        assert model is not None and model["x"] == 0

    def test_seed_model_first_writer_wins(self):
        # eq(x, 5) rejects the zero-default model, so the node starts bare.
        cs = EMPTY.extended(eq(X, bv(5)))
        assert cs.cached_model() is None
        first, second = Model({"x": 5}), Model({"x": 5, "y": 9})
        cs.seed_model(first)
        cs.seed_model(second)
        # Stability is what keeps one arm of every branch pair free.
        assert cs.cached_model() is first

    def test_extended_propagates_satisfying_model(self):
        cs = EMPTY.extended(eq(X, bv(3)))
        cs.seed_model(Model({"x": 3}))
        child = cs.extended(ult(X, bv(5)))
        assert child.cached_model() is cs.cached_model()

    def test_extended_drops_violating_model(self):
        cs = EMPTY.extended(eq(X, bv(7)))
        cs.seed_model(Model({"x": 7}))
        child = cs.extended(ult(X, bv(5)))
        assert child.cached_model() is None


class TestVerdictMemo:
    def test_memo_round_trip(self):
        cs = EMPTY.extended(ult(X, bv(10)))
        sat_extra, unsat_extra = eq(X, bv(3)), eq(X, bv(200))
        assert cs.cached_verdict(sat_extra) == (False, None)
        model = Model({"x": 3})
        cs.memo_verdict(sat_extra, model)
        cs.memo_verdict(unsat_extra, None)
        assert cs.cached_verdict(sat_extra) == (True, model)
        assert cs.cached_verdict(unsat_extra) == (True, None)

    def test_solver_answers_repeat_queries_from_the_memo(self):
        solver = Solver()
        cs = as_constraint_set([ult(X, bv(10))])
        impossible = eq(X, bv(200))
        assert not solver.may_be_true(cs, impossible)
        before = solver.verdict_shortcuts.value
        assert not solver.may_be_true(cs, impossible)
        assert solver.verdict_shortcuts.value == before + 1
        # The semantic counters never notice the shortcut.
        assert solver.queries.value == 2 and solver.unsat_results.value == 2

    def test_empty_singleton_never_memoizes(self):
        solver = Solver()
        condition = eq(var("fresh_empty_probe"), bv(1))
        solver.may_be_true(EMPTY, condition)
        solver.may_be_true(EMPTY, condition)
        assert solver.verdict_shortcuts.value == 0
        assert EMPTY.cached_verdict(condition) == (False, None)


class TestAllocationRegression:
    def test_repeat_query_cost_does_not_scale_with_path_length(self):
        """A repeated query must not re-materialize the path condition.

        The seed solver built ``list(constraints) + [condition]`` and
        re-partitioned on *every* query — O(n) allocations even for a
        question it had already answered.  With the memoized pipeline a
        repeat is a node-local verdict lookup, so a 20x longer raw chain
        must cost the same handful of bytes.
        """

        def warmed_repeat_peak(n):
            solver = Solver()
            cs = EMPTY
            for i in range(n):
                cs = cs.extended(ult(X, bv(100_000 + i)))
            # eq(x, 77) defeats the propagated zero-default model, so the
            # cold query runs the full pipeline and memoizes its verdict.
            probe = eq(X, bv(77))
            solver.may_be_true(cs, probe)
            tracemalloc.start()
            solver.may_be_true(cs, probe)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small = warmed_repeat_peak(100)
        large = warmed_repeat_peak(2000)
        # Constant-factor slack only — any O(n) walk fails by orders of
        # magnitude (the absolute term absorbs allocator jitter on what
        # are sub-kilobyte numbers).
        assert large < small * 3 + 2048, (small, large)


# 3-bit variables keep brute force over every assignment cheap.
X3 = var("x3", 3)
Y3 = var("y3", 3)
Z3 = var("z3", 3)

#: Conjunct shapes, by how they relate to the equalities on x3/y3.
_CHAIN_BUILDERS = {
    "equality": [lambda c: eq(X3, bv(c, 3)), lambda c: eq(Y3, bv(c, 3))],
    "shared": [
        lambda c: ult(X3, bv(c, 3)),
        lambda c: ne(Y3, bv(c, 3)),
        lambda c: ult(add(X3, Y3), bv(c, 3)),
        lambda c: eq(add(X3, Z3), bv(c, 3)),
    ],
    "disjoint": [lambda c: ult(Z3, bv(c, 3)), lambda c: ne(Z3, bv(c, 3))],
}


@st.composite
def _chains(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    chain = []
    for _ in range(length):
        kind = draw(st.sampled_from(sorted(_CHAIN_BUILDERS)))
        builder = draw(st.sampled_from(_CHAIN_BUILDERS[kind]))
        chain.append(builder(draw(st.integers(min_value=0, max_value=7))))
    return chain


def _satisfiable_prefixes(chain):
    """Brute force: which prefix lengths of ``chain`` have a model."""
    sat = [False] * (len(chain) + 1)
    for x, y, z in itertools.product(range(8), repeat=3):
        env = {"x3": x, "y3": y, "z3": z}
        held = 0
        while held < len(chain) and evaluate(chain[held], env):
            held += 1
        for length in range(held + 1):
            sat[length] = True
    return sat


class TestDeltaCanonicalization:
    """An equality-introducing conjunct re-simplifies only the inherited
    conjuncts that share its variables (the delta path); verdicts must
    still match brute force over the raw chain."""

    def test_delta_leaves_disjoint_conjuncts_untouched(self):
        solver = Solver()
        disjoint = ult(Z3, bv(3, 3))
        cs = (
            EMPTY.extended(ult(X3, bv(5, 3)))
            .extended(disjoint)
            .extended(ult(add(X3, Y3), bv(6, 3)))
            .extended(eq(X3, bv(2, 3)))
        )
        model = solver.check(cs)
        assert model is not None and model.satisfies(cs.raw())
        assert solver.simplify_delta.value == 1
        assert disjoint in cs.canonical()

    @settings(max_examples=150, deadline=None)
    @given(_chains())
    def test_verdicts_match_brute_force(self, chain):
        solver = Solver()
        expected = _satisfiable_prefixes(chain)
        node = EMPTY
        for length, conjunct in enumerate(chain, start=1):
            node = node.extended(conjunct)
            model = solver.check(node)
            assert (model is not None) == expected[length], node.raw()
            if model is not None:
                assert model.satisfies(node.raw())


# A 64-bit variable whose constants 0 and 2**61 - 1 hash alike (CPython
# hashes ints modulo 2**61 - 1), so the conjunct pairs below differ but
# collide in hash: a child table keyed by anything but the interned
# conjunct itself hands back the wrong child.
W64 = var("w", 64)
_COLLIDING = 2**61 - 1

#: The alphabet of the generated trees.
_TREE_CONJUNCTS = (
    eq(X3, bv(2, 3)),
    ult(X3, bv(5, 3)),
    eq(Y3, bv(3, 3)),
    ne(Y3, bv(3, 3)),
    ult(add(X3, Y3), bv(4, 3)),
    eq(W64, bv(0, 64)),
    eq(W64, bv(_COLLIDING, 64)),
    ne(W64, bv(0, 64)),
    ne(W64, bv(_COLLIDING, 64)),
    ult(W64, bv(_COLLIDING, 64)),
)


def _truth_masks():
    """Per assignment, the bit set of alphabet conjuncts it satisfies.

    ``w`` only meets 0 and 2**61 - 1, so one value from each region
    (below, at and above them) decides every conjunct on it.
    """
    masks = []
    for x, y, w in itertools.product(
        range(8), range(8), (0, 1, _COLLIDING, _COLLIDING + 1)
    ):
        env = {"x3": x, "y3": y, "w": w}
        masks.append(
            sum(
                1 << index
                for index, conjunct in enumerate(_TREE_CONJUNCTS)
                if evaluate(conjunct, env)
            )
        )
    return masks


_TRUTH = _truth_masks()


def _brute_sat(chain, refuted=None):
    """Brute force: does some assignment satisfy every conjunct of
    ``chain`` (alphabet indices) and, if given, falsify ``refuted``?"""
    need = 0
    for index in chain:
        need |= 1 << index
    veto = 0 if refuted is None else 1 << refuted
    return any(mask & need == need and not mask & veto for mask in _TRUTH)


@st.composite
def _trees(draw):
    """Chains of alphabet indices, each extending an earlier chain, so
    prefixes are shared and some chains repeat outright."""
    chains = [()]
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        base = draw(st.sampled_from(chains))
        index = draw(st.integers(min_value=0, max_value=len(_TREE_CONJUNCTS) - 1))
        chains.append(base + (index,))
    return chains[1:]


class TestSharedNodes:
    """Hash-consed nodes are shared by every chain that builds them, and
    with them every memo: verdicts on them must still match brute force."""

    @settings(max_examples=150, deadline=None)
    @given(
        _trees(),
        st.integers(min_value=0, max_value=len(_TREE_CONJUNCTS) - 1),
    )
    def test_verdicts_on_shared_nodes_match_brute_force(self, chains, probe):
        solver = Solver()
        condition = _TREE_CONJUNCTS[probe]
        nodes = {}  # keeps every node alive, so later chains share them
        for chain in chains:
            node = EMPTY
            for index in chain:
                node = node.extended(_TREE_CONJUNCTS[index])
            assert nodes.setdefault(chain, node) is node
            assert node.raw() == tuple(_TREE_CONJUNCTS[i] for i in chain)
            model = solver.check(node)
            assert (model is not None) == _brute_sat(chain), node.raw()
            if model is not None:
                assert model.satisfies(node.raw())
            assert solver.branch_feasibility(node, condition) == (
                _brute_sat(chain + (probe,)),
                _brute_sat(chain, refuted=probe),
            ), (node.raw(), condition)

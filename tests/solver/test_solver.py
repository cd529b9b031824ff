"""End-to-end solver tests: satisfiability decisions, models, entailment,
plus the brute-force hypothesis oracle over small domains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import (
    add,
    bv,
    bvand,
    bvxor,
    eq,
    evaluate,
    mul,
    ne,
    not_,
    or_,
    sle,
    slt,
    sub,
    ule,
    ult,
    var,
    zext,
)
from repro.obs import MetricsRegistry
from repro.solver import Model, Solver, UnsatisfiableError

X = var("x")
Y = var("y")
Z = var("z")


@pytest.fixture
def solver():
    return Solver()


class TestBasicQueries:
    def test_empty_query_is_sat(self, solver):
        model = solver.check([])
        assert model is not None and len(model) == 0

    def test_simple_equality(self, solver):
        model = solver.check([eq(X, bv(42))])
        assert model["x"] == 42

    def test_contradiction(self, solver):
        assert solver.check([eq(X, bv(1)), eq(X, bv(2))]) is None

    def test_range_constraints(self, solver):
        model = solver.check([ult(X, bv(50)), ult(bv(40), X)])
        assert 41 <= model["x"] <= 49

    def test_figure1_paths(self, solver):
        """The four paths of the paper's Figure 1 are all satisfiable and
        yield values matching the respective path conditions."""
        x_eq_0 = eq(X, bv(0))
        x_lt_50 = slt(X, bv(50))
        x_gt_10 = slt(bv(10), X)
        # Path 1: x == 0
        m1 = solver.check([x_eq_0])
        assert m1["x"] == 0
        # Path 2: x != 0 && x < 50 && x > 10
        m2 = solver.check([not_(x_eq_0), x_lt_50, x_gt_10])
        assert 10 < m2["x"] < 50
        # Path 3: x != 0 && x < 50 && x <= 10
        m3 = solver.check([not_(x_eq_0), x_lt_50, not_(x_gt_10)])
        v3 = m3["x"]
        sv3 = v3 if v3 < 2**31 else v3 - 2**32
        assert sv3 != 0 and sv3 <= 10
        # Path 4: x >= 50
        m4 = solver.check([not_(x_lt_50)])
        v4 = m4["x"]
        sv4 = v4 if v4 < 2**31 else v4 - 2**32
        assert sv4 >= 50

    def test_signed_constraints(self, solver):
        model = solver.check([slt(X, bv(0))])
        assert model["x"] >= 2**31  # negative as unsigned

    def test_linear_arithmetic(self, solver):
        # x + y == 10, x == 2*y  ->  y could be e.g. 3.33 -- over integers
        # pick x=10-y and x=2y => 3y=10: unsat over exact integers? No:
        # 3y==10 has no integer solution in [0..], but wrapping makes some
        # huge y work modulo 2^32 only if 3y = 10 mod 2^32 -- y exists since
        # gcd(3, 2^32)=1.  Verify the solver finds it or times out cleanly.
        model = solver.check(
            [eq(add(X, Y), bv(10)), eq(X, mul(Y, bv(2))), ult(Y, bv(100))]
        )
        assert model is None  # no small solution below 100

    def test_byte_arithmetic(self, solver):
        b = var("pkt0", 8)
        model = solver.check([eq(add(b, bv(1, 8)), bv(0, 8))])
        assert model["pkt0"] == 255

    def test_model_satisfies(self, solver):
        constraints = [ult(X, bv(100)), ne(X, bv(0)), ule(bv(90), X)]
        model = solver.check(constraints)
        assert model.satisfies(constraints)

    def test_get_model_raises_on_unsat(self, solver):
        with pytest.raises(UnsatisfiableError):
            solver.get_model([eq(X, bv(1)), ne(X, bv(1))])

    def test_disjunction(self, solver):
        model = solver.check([or_(eq(X, bv(3)), eq(X, bv(7))), ne(X, bv(3))])
        assert model["x"] == 7

    def test_xor_inversion(self, solver):
        model = solver.check([eq(bvxor(X, bv(0xFF)), bv(0x0F))])
        assert model["x"] == 0xF0

    def test_bit_masking(self, solver):
        model = solver.check([eq(bvand(X, bv(0xFF)), bv(0xAB)), ult(X, bv(256))])
        assert model["x"] == 0xAB

    def test_widening(self, solver):
        b = var("drop", 1)
        model = solver.check([eq(zext(b, 32), bv(1))])
        assert model["drop"] == 1


class TestEntailment:
    def test_must_be_true(self, solver):
        constraints = [eq(X, bv(5))]
        assert solver.must_be_true(constraints, ult(X, bv(10)))
        assert not solver.must_be_true(constraints, ult(X, bv(5)))

    def test_may_be_true(self, solver):
        constraints = [ult(X, bv(10))]
        assert solver.may_be_true(constraints, eq(X, bv(3)))
        assert not solver.may_be_true(constraints, eq(X, bv(30)))

    def test_both_branches_feasible(self, solver):
        # The canonical fork check: under x != 0, both (x < 50) and
        # (x >= 50) are possible.
        constraints = [ne(X, bv(0))]
        cond = ult(X, bv(50))
        assert solver.may_be_true(constraints, cond)
        assert solver.may_be_true(constraints, not_(cond))


class TestIndependence:
    def test_independent_groups_merge(self, solver):
        model = solver.check([eq(X, bv(1)), eq(Y, bv(2)), eq(Z, bv(3))])
        assert (model["x"], model["y"], model["z"]) == (1, 2, 3)

    def test_unsat_in_one_group_kills_query(self, solver):
        assert (
            solver.check([eq(X, bv(1)), eq(Y, bv(2)), ne(Y, bv(2))]) is None
        )

    def test_transitive_dependency(self, solver):
        model = solver.check(
            [eq(X, Y), eq(Y, Z), eq(Z, bv(9))]
        )
        assert model["x"] == model["y"] == model["z"] == 9


def _cache_counters(solver) -> dict:
    """The solver's ``solver.cache.*`` counters, read as an engine does."""
    registry = MetricsRegistry()
    solver.attach_observability(None, registry)
    prefix = "solver.cache."
    return {
        name[len(prefix):]: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


class TestCaching:
    def test_exact_cache_hit(self):
        solver = Solver()
        constraints = [eq(X, bv(5)), ult(Y, bv(3))]
        solver.check(constraints)
        before = _cache_counters(solver)
        solver.check(constraints)
        after = _cache_counters(solver)
        assert after["hit.exact"] > before["hit.exact"]

    def test_model_reuse_on_superset(self):
        solver = Solver()
        m1 = solver.check([ult(X, bv(10))])
        # The new conjunct is satisfied by the old model (models prefer
        # small values, so x==0 works for both queries).
        solver.check([ult(X, bv(10)), ult(X, bv(50))])
        stats = _cache_counters(solver)
        assert stats["hit.exact"] + stats["hit.model"] >= 1
        assert m1 is not None

    def test_cache_disabled(self):
        solver = Solver(use_cache=False)
        assert solver.check([eq(X, bv(5))])["x"] == 5
        assert _cache_counters(solver) == {}

    def test_unsat_cached(self):
        solver = Solver()
        # Shaped so canonicalization cannot prove UNSAT analytically (the
        # left sides are arithmetic, not bare variables) — the query must
        # reach the backend once and the cache thereafter.
        query = [eq(add(X, bv(1)), bv(0)), eq(add(X, bv(2)), bv(0))]
        assert solver.check(query) is None
        assert solver.check(query) is None
        assert _cache_counters(solver)["hit.exact"] >= 1


class TestModel:
    def test_restricted_to(self):
        model = Model({"x": 1, "y": 2})
        restricted = model.restricted_to([X])
        assert "x" in restricted and "y" not in restricted

    def test_merge(self):
        merged = Model({"x": 1}).merged_with(Model({"y": 2}))
        assert merged["x"] == 1 and merged["y"] == 2

    def test_satisfies_defaults_missing_to_zero(self):
        model = Model({})
        assert model.satisfies([eq(X, bv(0))])
        assert not model.satisfies([eq(X, bv(1))])

    def test_equality_and_hash(self):
        assert Model({"x": 1}) == Model({"x": 1})
        assert hash(Model({"x": 1})) == hash(Model({"x": 1}))
        assert Model({"x": 1}) != Model({"x": 2})


# ---------------------------------------------------------------------------
# Brute-force oracle over tiny widths: solver decision == enumeration.
# ---------------------------------------------------------------------------

_A4 = var("a4", 4)
_B4 = var("b4", 4)

_atom_builders = [
    lambda c: eq(_A4, bv(c, 4)),
    lambda c: ne(_A4, bv(c, 4)),
    lambda c: ult(_A4, bv(c, 4)),
    lambda c: ule(bv(c, 4), _B4),
    lambda c: slt(_A4, bv(c, 4)),
    lambda c: sle(_B4, bv(c, 4)),
    lambda c: eq(add(_A4, _B4), bv(c, 4)),
    lambda c: ult(sub(_A4, _B4), bv(c, 4)),
    lambda c: eq(bvand(_A4, bv(0b101, 4)), bv(c % 6, 4)),
    lambda c: ne(bvxor(_A4, _B4), bv(c, 4)),
    lambda c: ult(mul(_A4, bv(3, 4)), bv(c, 4)),
]


@st.composite
def _random_query(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    atoms = []
    for _ in range(n):
        builder = draw(st.sampled_from(_atom_builders))
        c = draw(st.integers(min_value=0, max_value=15))
        atom = builder(c)
        if draw(st.booleans()):
            atom = not_(atom)
        atoms.append(atom)
    if draw(st.booleans()) and len(atoms) >= 2:
        atoms = [or_(atoms[0], atoms[1])] + atoms[2:]
    return atoms


class TestBruteForceOracle:
    @settings(max_examples=300, deadline=None)
    @given(_random_query())
    def test_matches_enumeration(self, constraints):
        solver = Solver(use_cache=False)
        model = solver.check(constraints)
        brute_sat = any(
            all(evaluate(c, {"a4": a, "b4": b}) for c in constraints)
            for a in range(16)
            for b in range(16)
        )
        if brute_sat:
            assert model is not None, f"solver said unsat, brute force found sat: {constraints}"
            assert model.satisfies(constraints)
        else:
            assert model is None, f"solver said sat for unsat query: {constraints}"

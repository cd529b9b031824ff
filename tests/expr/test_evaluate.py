"""Concrete evaluator tests, including the hypothesis oracle that smart
constructors never change an expression's meaning."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expr import (
    BV_BINARY_OPS,
    BV_UNARY_OPS,
    CMP_OPS,
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    BVBinary,
    BVConcat,
    BVConst,
    BVExtend,
    BVExtract,
    BVIte,
    BVUnary,
    BVVar,
    Cmp,
    EvalError,
    add,
    ashr,
    bv,
    bvand,
    bvnot,
    bvor,
    bvxor,
    concat,
    eq,
    evaluate,
    extract,
    ite,
    lshr,
    mask,
    mul,
    ne,
    neg,
    sdiv,
    sext,
    shl,
    sle,
    slt,
    srem,
    sub,
    to_signed,
    udiv,
    ule,
    ult,
    urem,
    var,
    zext,
)
from repro.expr.evaluate import plan_of
from repro.solver import Model

from ..conftest import budget

X = var("x")
Y = var("y")


class TestBasicEvaluation:
    def test_const(self):
        assert evaluate(bv(42), {}) == 42

    def test_var(self):
        assert evaluate(X, {"x": 7}) == 7

    def test_var_value_masked(self):
        assert evaluate(var("b", 8), {"b": 0x1FF}) == 0xFF

    def test_missing_var_raises(self):
        with pytest.raises(EvalError):
            evaluate(X, {})

    def test_arith(self):
        env = {"x": 10, "y": 3}
        assert evaluate(add(X, Y), env) == 13
        assert evaluate(sub(X, Y), env) == 7
        assert evaluate(mul(X, Y), env) == 30
        assert evaluate(udiv(X, Y), env) == 3
        assert evaluate(urem(X, Y), env) == 1

    def test_wrapping(self):
        env = {"x": 0xFFFFFFFF, "y": 1}
        assert evaluate(add(X, Y), env) == 0
        assert evaluate(sub(bv(0), Y), env) == 0xFFFFFFFF

    def test_division_by_zero_smt_semantics(self):
        env = {"x": 10, "y": 0}
        assert evaluate(udiv(X, Y), env) == mask(32)
        assert evaluate(urem(X, Y), env) == 10
        assert evaluate(sdiv(X, Y), env) == mask(32)
        assert evaluate(srem(X, Y), env) == 10

    def test_comparisons(self):
        env = {"x": 5, "y": 0xFFFFFFFF}
        assert evaluate(ult(X, Y), env) is True
        assert evaluate(slt(Y, X), env) is True  # -1 <s 5
        assert evaluate(eq(X, bv(5)), env) is True
        assert evaluate(ne(X, bv(5)), env) is False

    def test_ite(self):
        e = ite(ult(X, bv(10)), bv(1), bv(2))
        assert evaluate(e, {"x": 3}) == 1
        assert evaluate(e, {"x": 30}) == 2

    def test_extract_concat_extend(self):
        b = var("b", 8)
        assert evaluate(zext(b, 32), {"b": 0xFF}) == 0xFF
        assert evaluate(sext(b, 32), {"b": 0xFF}) == 0xFFFFFFFF
        assert evaluate(concat(b, var("c", 8)), {"b": 0xAB, "c": 0xCD}) == 0xABCD
        assert evaluate(extract(X, 8, 8), {"x": 0xABCD}) == 0xAB

    def test_deep_chain_no_recursion_error(self):
        expr = X
        for _ in range(5000):
            expr = bvxor(add(expr, bv(1)), bv(3))
        assert isinstance(evaluate(expr, {"x": 1}), int)


# ---------------------------------------------------------------------------
# Property: builders are semantics-preserving.
# ---------------------------------------------------------------------------

_val8 = st.integers(min_value=0, max_value=255)
_val32 = st.integers(min_value=0, max_value=mask(32))

_BINARY_FNS = [add, sub, mul, udiv, urem, sdiv, srem, bvand, bvor, bvxor]
_SHIFT_FNS = [shl, lshr, ashr]
_CMP_FNS = [eq, ne, ult, ule, slt, sle]


def _reference_binary(fn, a, b, w):
    """Direct Python reference semantics for each operator."""
    m = mask(w)
    if fn is add:
        return (a + b) & m
    if fn is sub:
        return (a - b) & m
    if fn is mul:
        return (a * b) & m
    if fn is udiv:
        return m if b == 0 else a // b
    if fn is urem:
        return a if b == 0 else a % b
    if fn is sdiv:
        sa, sb = to_signed(a, w), to_signed(b, w)
        if sb == 0:
            return m
        q = abs(sa) // abs(sb)
        return (-q if (sa < 0) != (sb < 0) else q) & m
    if fn is srem:
        sa, sb = to_signed(a, w), to_signed(b, w)
        if sb == 0:
            return a
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & m
    if fn is bvand:
        return a & b
    if fn is bvor:
        return a | b
    if fn is bvxor:
        return a ^ b
    raise AssertionError(fn)


class TestBuilderSoundness:
    @settings(max_examples=300)
    @given(
        st.sampled_from(_BINARY_FNS),
        _val32,
        _val32,
        st.booleans(),
        st.booleans(),
    )
    def test_binary_ops_match_reference(self, fn, a, b, sym_a, sym_b):
        # Build with a mix of symbolic/concrete operands so both the folding
        # and non-folding constructor paths are exercised.
        ea = X if sym_a else bv(a)
        eb = Y if sym_b else bv(b)
        result = evaluate(fn(ea, eb), {"x": a, "y": b})
        assert result == _reference_binary(fn, a, b, 32)

    @settings(max_examples=200)
    @given(
        st.sampled_from(_SHIFT_FNS),
        _val32,
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    )
    def test_shifts_match_reference(self, fn, a, amount, sym_a):
        ea = X if sym_a else bv(a)
        result = evaluate(fn(ea, bv(amount)), {"x": a})
        if fn is shl:
            expected = 0 if amount >= 32 else (a << amount) & mask(32)
        elif fn is lshr:
            expected = 0 if amount >= 32 else a >> amount
        else:
            expected = (to_signed(a, 32) >> min(amount, 31)) & mask(32)
        assert result == expected

    @settings(max_examples=300)
    @given(st.sampled_from(_CMP_FNS), _val32, _val32, st.booleans())
    def test_comparisons_match_reference(self, fn, a, b, sym_a):
        ea = X if sym_a else bv(a)
        result = evaluate(fn(ea, bv(b)), {"x": a})
        sa, sb = to_signed(a, 32), to_signed(b, 32)
        expected = {
            eq: a == b,
            ne: a != b,
            ult: a < b,
            ule: a <= b,
            slt: sa < sb,
            sle: sa <= sb,
        }[fn]
        assert result == expected

    @settings(max_examples=200)
    @given(_val8)
    def test_extend_roundtrip(self, value):
        b = var("b", 8)
        env = {"b": value}
        assert evaluate(extract(zext(b, 32), 0, 8), env) == value
        widened = evaluate(sext(b, 32), env)
        assert to_signed(widened, 32) == to_signed(value, 8)

    @settings(max_examples=200)
    @given(_val32)
    def test_unary_ops(self, value):
        env = {"x": value}
        assert evaluate(neg(X), env) == (-value) & mask(32)
        assert evaluate(bvnot(X), env) == (~value) & mask(32)

    @settings(max_examples=100)
    @given(_val8, _val8)
    def test_concat_extract_inverse(self, hi, lo):
        h, l = var("h", 8), var("l", 8)
        joined = concat(h, l)
        env = {"h": hi, "l": lo}
        assert evaluate(extract(joined, 8, 8), env) == hi
        assert evaluate(extract(joined, 0, 8), env) == lo


# ---------------------------------------------------------------------------
# Property: the memoized evaluation plan equals a direct recursive walk.
# ---------------------------------------------------------------------------

_P, _Q, _R = var("p", 8), var("q", 8), var("r", 8)
_BINARY_BY_OP = {fn.__name__: fn for fn in _BINARY_FNS}


def _reference(expr, env):
    """Evaluate by recursion over the tree (no plan, no sharing)."""
    if isinstance(expr, (BVConst, BoolConst)):
        return expr.value
    if isinstance(expr, BVVar):
        return env[expr.name] & mask(expr.width)
    if isinstance(expr, BVBinary):
        a, b, w = _reference(expr.left, env), _reference(expr.right, env), expr.width
        if expr.op == "shl":
            return 0 if b >= w else (a << b) & mask(w)
        if expr.op == "lshr":
            return 0 if b >= w else a >> b
        if expr.op == "ashr":
            return (to_signed(a, w) >> min(b, w - 1)) & mask(w)
        return _reference_binary(_BINARY_BY_OP[expr.op], a, b, w)
    if isinstance(expr, Cmp):
        a, b = _reference(expr.left, env), _reference(expr.right, env)
        w = expr.left.width
        sa, sb = to_signed(a, w), to_signed(b, w)
        return {
            "eq": a == b,
            "ne": a != b,
            "ult": a < b,
            "ule": a <= b,
            "slt": sa < sb,
            "sle": sa <= sb,
        }[expr.op]
    if isinstance(expr, BVUnary):
        a = _reference(expr.operand, env)
        return (-a if expr.op == "neg" else ~a) & mask(expr.width)
    if isinstance(expr, BVIte):
        if _reference(expr.cond, env):
            return _reference(expr.then, env)
        return _reference(expr.orelse, env)
    if isinstance(expr, BVExtract):
        return (_reference(expr.operand, env) >> expr.low) & mask(expr.width)
    if isinstance(expr, BVExtend):
        a = _reference(expr.operand, env)
        return to_signed(a, expr.operand.width) & mask(expr.width) if expr.signed else a
    if isinstance(expr, BVConcat):
        low = expr.low_part
        return (_reference(expr.high, env) << low.width) | _reference(low, env)
    if isinstance(expr, BoolNot):
        return not _reference(expr.operand, env)
    if isinstance(expr, BoolAnd):
        return all(_reference(op, env) for op in expr.operands)
    if isinstance(expr, BoolOr):
        return any(_reference(op, env) for op in expr.operands)
    raise AssertionError(type(expr))


# Raw node constructors, not the folding builders: every node kind (all
# operators, extend, extract, concat, ite, n-ary and/or) reaches the plan.
_BV_LEAVES = st.one_of(st.sampled_from([_P, _Q, _R]), _val8.map(lambda v: bv(v, 8)))


def _cmp_of(children):
    return st.builds(Cmp, st.sampled_from(CMP_OPS), children, children)


def _bv_nodes(children):
    nibble = st.builds(BVExtract, children, st.integers(0, 4), st.just(4))
    return st.one_of(
        st.builds(BVBinary, st.sampled_from(BV_BINARY_OPS), children, children),
        st.builds(BVUnary, st.sampled_from(BV_UNARY_OPS), children),
        st.builds(BVExtend, nibble, st.just(8), st.booleans()),
        st.builds(BVConcat, nibble, nibble),
        st.builds(BVIte, _cmp_of(children), children, children),
    )


_BV_EXPRS = st.recursive(_BV_LEAVES, _bv_nodes, max_leaves=10)


def _bool_nodes(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(BoolNot, children),
        st.builds(BoolAnd, operands),
        st.builds(BoolOr, operands),
    )


_BOOL_EXPRS = st.recursive(
    st.one_of(_cmp_of(_BV_EXPRS), st.booleans().map(BoolConst)),
    _bool_nodes,
    max_leaves=4,
)
_FULL_ENV = st.fixed_dictionaries({"p": _val8, "q": _val8, "r": _val8})
PROPERTY = settings(
    max_examples=budget(100),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestEvaluationPlan:
    @PROPERTY
    @given(st.one_of(_BV_EXPRS, _BOOL_EXPRS), _FULL_ENV, _FULL_ENV)
    def test_plan_matches_reference(self, expr, env, other_env):
        # The second call runs the plan memoized by the first.
        assert evaluate(expr, env) == _reference(expr, env)
        assert evaluate(expr, other_env) == _reference(expr, other_env)

    @PROPERTY
    @given(_BOOL_EXPRS, st.dictionaries(st.sampled_from("pqr"), _val8))
    def test_model_satisfies_with_zero_completion(self, expr, partial):
        completed = {v.name: 0 for v in expr.variables()}
        completed.update(partial)
        expected = bool(evaluate(expr, completed))
        assert Model(partial).satisfies([expr]) is expected

    def test_missing_var_raises_after_plan_is_memoized(self):
        expr = ult(add(X, Y), bv(9))
        assert evaluate(expr, {"x": 1, "y": 2}) is True
        with pytest.raises(EvalError, match="'y'"):
            evaluate(expr, {"x": 1})

    def test_shared_dag_evaluates_once_per_node(self):
        # Each level uses the previous one twice: 2**k root-to-leaf paths,
        # 3k + 1 distinct nodes, one plan step per node.  (Never let such
        # an expression reach an assertion message: its repr is a tree.)
        k = 64
        expr, expected = X, 3
        for level in range(k):
            expr = BVBinary("bvxor", BVBinary("add", expr, expr), bv(level))
            expected = ((expected + expected) & mask(32)) ^ level
        steps, nodes = len(plan_of(expr)), expr.size()
        assert steps == nodes == 3 * k + 1
        value = evaluate(expr, {"x": 3})
        assert value == expected

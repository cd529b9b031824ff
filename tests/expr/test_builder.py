"""Unit tests for smart-constructor folding and rewrites."""

from repro.expr import ast as ast_module
from repro.expr import (
    BVConst,
    Cmp,
    add,
    and_,
    ashr,
    bv,
    bvand,
    bvnot,
    bvor,
    bvxor,
    clear_intern_cache,
    concat,
    eq,
    extract,
    false,
    implies,
    ite,
    lshr,
    mul,
    ne,
    neg,
    not_,
    or_,
    sdiv,
    sext,
    sge,
    sgt,
    shl,
    sle,
    slt,
    srem,
    sub,
    true,
    truncate,
    udiv,
    uge,
    ugt,
    ule,
    ult,
    urem,
    var,
    zext,
)

X = var("x")
Y = var("y")


class TestArithmeticFolding:
    def test_add_consts(self):
        assert add(bv(2), bv(3)) is bv(5)

    def test_add_wraps(self):
        assert add(bv(0xFFFFFFFF), bv(1)) is bv(0)

    def test_add_zero_identity(self):
        assert add(X, bv(0)) is X
        assert add(bv(0), X) is X

    def test_add_reassociates_constants(self):
        e = add(add(X, bv(3)), bv(4))
        assert e is add(X, bv(7))

    def test_sub_consts(self):
        assert sub(bv(5), bv(3)) is bv(2)
        assert sub(bv(0), bv(1)) is bv(0xFFFFFFFF)

    def test_sub_self_is_zero(self):
        assert sub(X, X) is bv(0)

    def test_sub_becomes_add_of_negated_const(self):
        e = sub(add(X, bv(10)), bv(4))
        assert e is add(X, bv(6))

    def test_mul_consts_and_identities(self):
        assert mul(bv(6), bv(7)) is bv(42)
        assert mul(X, bv(1)) is X
        assert mul(X, bv(0)) is bv(0)
        assert mul(bv(1), X) is X

    def test_udiv(self):
        assert udiv(bv(10), bv(3)) is bv(3)
        assert udiv(X, bv(1)) is X
        # SMT-LIB: division by zero yields all-ones
        assert udiv(bv(10), bv(0)) is bv(0xFFFFFFFF)

    def test_urem(self):
        assert urem(bv(10), bv(3)) is bv(1)
        assert urem(X, bv(1)) is bv(0)
        assert urem(X, bv(0)) is X

    def test_sdiv_truncates_toward_zero(self):
        minus7 = bv(-7)
        assert sdiv(minus7, bv(2)) is bv(-3)
        assert sdiv(bv(7), bv(-2)) is bv(-3)

    def test_srem_sign_follows_dividend(self):
        assert srem(bv(-7), bv(2)) is bv(-1)
        assert srem(bv(7), bv(-2)) is bv(1)

    def test_neg(self):
        assert neg(bv(5)) is bv(-5)
        assert neg(neg(X)) is X


class TestBitwiseFolding:
    def test_and(self):
        assert bvand(bv(0b1100), bv(0b1010)) is bv(0b1000)
        assert bvand(X, bv(0)) is bv(0)
        assert bvand(X, bv(0xFFFFFFFF)) is X
        assert bvand(X, X) is X

    def test_or(self):
        assert bvor(bv(0b1100), bv(0b1010)) is bv(0b1110)
        assert bvor(X, bv(0)) is X
        assert bvor(X, bv(0xFFFFFFFF)) is bv(0xFFFFFFFF)
        assert bvor(X, X) is X

    def test_xor(self):
        assert bvxor(bv(0b1100), bv(0b1010)) is bv(0b0110)
        assert bvxor(X, bv(0)) is X
        assert bvxor(X, X) is bv(0)

    def test_not(self):
        assert bvnot(bv(0)) is bv(0xFFFFFFFF)
        assert bvnot(bvnot(X)) is X

    def test_shifts_const(self):
        assert shl(bv(1), bv(4)) is bv(16)
        assert lshr(bv(16), bv(4)) is bv(1)
        assert shl(X, bv(0)) is X
        assert lshr(X, bv(0)) is X

    def test_shift_overflow_is_zero(self):
        assert shl(X, bv(32)) is bv(0)
        assert lshr(X, bv(99)) is bv(0)

    def test_ashr_sign_fills(self):
        assert ashr(bv(-8), bv(1)) is bv(-4)
        assert ashr(bv(-1), bv(31)) is bv(-1)
        assert ashr(bv(-1), bv(999)) is bv(-1)


class TestStructureFolding:
    def test_ite_const_cond(self):
        assert ite(true(), X, Y) is X
        assert ite(false(), X, Y) is Y

    def test_ite_same_branches(self):
        assert ite(eq(X, bv(0)), Y, Y) is Y

    def test_extract_full_is_identity(self):
        assert extract(X, 0, 32) is X

    def test_extract_const(self):
        assert extract(bv(0xABCD, 32), 8, 8) is bv(0xAB, 8)
        assert extract(bv(0xABCD, 32), 0, 8) is bv(0xCD, 8)

    def test_extract_of_extract(self):
        inner = extract(X, 8, 16)
        assert extract(inner, 4, 8) is extract(X, 12, 8)

    def test_extract_through_zext(self):
        small = var("b", 8)
        widened = zext(small, 32)
        assert extract(widened, 0, 8) is small
        assert extract(widened, 16, 8) is bv(0, 8)

    def test_zext_sext_of_const(self):
        assert zext(bv(0xFF, 8), 32) is bv(0xFF, 32)
        assert sext(bv(0xFF, 8), 32) is bv(0xFFFFFFFF, 32)

    def test_zext_collapses(self):
        small = var("b", 8)
        assert zext(zext(small, 16), 32) is zext(small, 32)

    def test_concat_consts(self):
        assert concat(bv(0xAB, 8), bv(0xCD, 8)) is bv(0xABCD, 16)

    def test_concat_zero_high_is_zext(self):
        small = var("b", 8)
        assert concat(bv(0, 8), small) is zext(small, 16)

    def test_truncate(self):
        assert truncate(bv(0x1FF, 32), 8) is bv(0xFF, 8)
        b = var("b", 8)
        assert truncate(b, 8) is b


class TestComparisonFolding:
    def test_const_comparisons(self):
        assert eq(bv(1), bv(1)) is true()
        assert ne(bv(1), bv(1)) is false()
        assert ult(bv(1), bv(2)) is true()
        assert ule(bv(2), bv(2)) is true()

    def test_signed_comparisons_fold(self):
        assert slt(bv(-1), bv(0)) is true()
        assert ult(bv(-1), bv(0)) is false()  # 0xFFFFFFFF >u 0
        assert sle(bv(-128, 8), bv(127, 8)) is true()

    def test_same_operand(self):
        assert eq(X, X) is true()
        assert ne(X, X) is false()
        assert ult(X, X) is false()
        assert ule(X, X) is true()

    def test_reversed_forms(self):
        assert ugt(X, Y) is ult(Y, X)
        assert uge(X, Y) is ule(Y, X)
        assert sgt(X, Y) is slt(Y, X)
        assert sge(X, Y) is sle(Y, X)

    def test_eq_canonicalizes_const_right(self):
        e = eq(bv(5), X)
        assert isinstance(e, Cmp)
        assert isinstance(e.right, BVConst)


class TestBooleanConnectives:
    def test_and_identities(self):
        p = eq(X, bv(0))
        assert and_() is true()
        assert and_(p) is p
        assert and_(p, true()) is p
        assert and_(p, false()) is false()
        assert and_(p, p) is p

    def test_and_flattens(self):
        p, q, r = eq(X, bv(0)), eq(Y, bv(1)), ult(X, Y)
        assert and_(and_(p, q), r) is and_(p, q, r)

    def test_and_detects_complement(self):
        p = eq(X, bv(0))
        assert and_(p, not_(p)) is false()

    def test_or_identities(self):
        p = eq(X, bv(0))
        assert or_() is false()
        assert or_(p) is p
        assert or_(p, false()) is p
        assert or_(p, true()) is true()
        assert or_(p, not_(p)) is true()

    def test_not_cancels(self):
        p = ult(X, Y)
        assert not_(not_(p)) is p

    def test_not_of_cmp_is_memoized_both_ways(self):
        p = ult(X, bv(77))
        negation = not_(p)
        assert negation is ule(bv(77), X)
        assert p._negation is negation and negation._negation is p
        assert not_(negation) is p

    def test_not_memo_never_links_two_intern_tables(self, monkeypatch):
        # Keep the process's table: other tests hold interned constants.
        saved = dict(ast_module._INTERN)
        monkeypatch.setattr(ast_module, "_INTERN_HITS", ast_module._INTERN_HITS)
        monkeypatch.setattr(ast_module, "_INTERN_MISSES", ast_module._INTERN_MISSES)
        try:
            memoized = ult(X, bv(78))
            negation = not_(memoized)
            unmemoized = ult(X, bv(79))
            clear_intern_cache()
            # an old node's memo still points to an old node
            assert not_(memoized) is negation
            # an old node without one gets none into the new table
            fresh = not_(unmemoized)
            assert fresh.op == "ule" and fresh.is_interned()
            assert not unmemoized.is_interned()
            assert unmemoized._negation is None and fresh._negation is None
            assert not_(fresh) is not unmemoized
            assert not_(not_(fresh)) is fresh
        finally:
            ast_module._INTERN.clear()
            ast_module._INTERN.update(saved)

    def test_not_of_cmp_stays_positive(self):
        # Negations of comparisons canonicalize into swapped comparisons,
        # so path constraints never contain BoolNot over Cmp.
        assert not_(eq(X, bv(3))) is ne(X, bv(3))
        assert not_(ult(X, Y)) is ule(Y, X)
        assert not_(sle(X, Y)) is slt(Y, X)

    def test_implies(self):
        p, q = eq(X, bv(0)), eq(Y, bv(0))
        assert implies(p, q) is or_(not_(p), q)
        assert implies(true(), q) is q
        assert implies(false(), q) is true()

    def test_and_is_order_insensitive(self):
        p, q = eq(X, bv(0)), ult(Y, bv(9))
        assert and_(p, q) is and_(q, p)

"""Smart constructors for expressions.

These are the only functions the rest of the system uses to build
expressions.  They constant-fold eagerly, apply cheap local algebraic
rewrites, and keep boolean connectives in a canonical n-ary form so that
path constraints stay small.  Aggressive folding matters: in the SDE
workloads most operands are concrete (only failure decisions and selected
packet bytes are symbolic), so the vast majority of guest arithmetic reduces
to plain integers and never reaches the solver.
"""

from __future__ import annotations

from typing import Iterable, Union

from .ast import (
    BVBinary,
    BVConcat,
    BVConst,
    BVExpr,
    BVExtend,
    BVExtract,
    BVIte,
    BVUnary,
    BVVar,
    BoolAnd,
    BoolConst,
    BoolExpr,
    BoolNot,
    BoolOr,
    Cmp,
    mask,
    to_signed,
)

__all__ = [
    "bv",
    "var",
    "add",
    "sub",
    "mul",
    "udiv",
    "urem",
    "sdiv",
    "srem",
    "bvand",
    "bvor",
    "bvxor",
    "shl",
    "lshr",
    "ashr",
    "neg",
    "bvnot",
    "ite",
    "extract",
    "zext",
    "sext",
    "concat",
    "truncate",
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "sgt",
    "sge",
    "true",
    "false",
    "bool_const",
    "not_",
    "and_",
    "or_",
    "implies",
    "as_bv",
]

TRUE = BoolConst(True)
FALSE = BoolConst(False)


def true() -> BoolConst:
    return TRUE


def false() -> BoolConst:
    return FALSE


def bool_const(value: bool) -> BoolConst:
    return TRUE if value else FALSE


def bv(value: int, width: int = 32) -> BVConst:
    """A constant bitvector (value is truncated to ``width`` bits)."""
    return BVConst(value, width)


def var(name: str, width: int = 32) -> BVVar:
    """A fresh-or-interned symbolic variable."""
    return BVVar(name, width)


def as_bv(value: Union[int, BVExpr], width: int = 32) -> BVExpr:
    """Coerce a Python int to a constant; pass expressions through."""
    if isinstance(value, int):
        return BVConst(value, width)
    return value


def _both_const(a: BVExpr, b: BVExpr) -> bool:
    return isinstance(a, BVConst) and isinstance(b, BVConst)


def _check_widths(a: BVExpr, b: BVExpr) -> None:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        return BVConst(a.value + b.value, w)
    # Canonical order: constant on the right.
    if isinstance(a, BVConst):
        a, b = b, a
    if isinstance(b, BVConst) and b.value == 0:
        return a
    # (x + c1) + c2  ->  x + (c1+c2)
    if (
        isinstance(b, BVConst)
        and isinstance(a, BVBinary)
        and a.op == "add"
        and isinstance(a.right, BVConst)
    ):
        return add(a.left, BVConst(a.right.value + b.value, w))
    return BVBinary("add", a, b)


def sub(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        return BVConst(a.value - b.value, w)
    if isinstance(b, BVConst):
        if b.value == 0:
            return a
        # x - c  ->  x + (-c): reuse add's reassociation rules.
        return add(a, BVConst(-b.value, w))
    if a is b:
        return BVConst(0, w)
    return BVBinary("sub", a, b)


def mul(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        return BVConst(a.value * b.value, w)
    if isinstance(a, BVConst):
        a, b = b, a
    if isinstance(b, BVConst):
        if b.value == 0:
            return BVConst(0, w)
        if b.value == 1:
            return a
    return BVBinary("mul", a, b)


def udiv(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if isinstance(b, BVConst) and b.value == 0:
        # Division by zero is trapped by the VM before building the
        # expression; for the algebra we define x /u 0 = all-ones (SMT-LIB).
        return BVConst(mask(w), w)
    if _both_const(a, b):
        return BVConst(a.value // b.value, w)
    if isinstance(b, BVConst) and b.value == 1:
        return a
    return BVBinary("udiv", a, b)


def urem(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if isinstance(b, BVConst) and b.value == 0:
        return a  # SMT-LIB: x %u 0 = x
    if _both_const(a, b):
        return BVConst(a.value % b.value, w)
    if isinstance(b, BVConst) and b.value == 1:
        return BVConst(0, w)
    return BVBinary("urem", a, b)


def sdiv(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        bs = to_signed(b.value, w)
        if bs == 0:
            return BVConst(mask(w), w)
        as_ = to_signed(a.value, w)
        # C-style truncation toward zero.
        q = abs(as_) // abs(bs)
        if (as_ < 0) != (bs < 0):
            q = -q
        return BVConst(q, w)
    if isinstance(b, BVConst) and to_signed(b.value, w) == 1:
        return a
    return BVBinary("sdiv", a, b)


def srem(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        bs = to_signed(b.value, w)
        if bs == 0:
            return a
        as_ = to_signed(a.value, w)
        r = abs(as_) % abs(bs)
        if as_ < 0:
            r = -r
        return BVConst(r, w)
    return BVBinary("srem", a, b)


def neg(a: BVExpr) -> BVExpr:
    if isinstance(a, BVConst):
        return BVConst(-a.value, a.width)
    if isinstance(a, BVUnary) and a.op == "neg":
        return a.operand
    return BVUnary("neg", a)


# ---------------------------------------------------------------------------
# Bitwise and shifts
# ---------------------------------------------------------------------------


def bvand(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        return BVConst(a.value & b.value, w)
    if isinstance(a, BVConst):
        a, b = b, a
    if isinstance(b, BVConst):
        if b.value == 0:
            return BVConst(0, w)
        if b.value == mask(w):
            return a
    if a is b:
        return a
    return BVBinary("bvand", a, b)


def bvor(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if _both_const(a, b):
        return BVConst(a.value | b.value, w)
    if isinstance(a, BVConst):
        a, b = b, a
    if isinstance(b, BVConst):
        if b.value == 0:
            return a
        if b.value == mask(w):
            return BVConst(mask(w), w)
    if a is b:
        return a
    return BVBinary("bvor", a, b)


def bvxor(a: BVExpr, b: BVExpr) -> BVExpr:
    """XOR with full AC canonicalization.

    XOR trees are flattened, constants folded, and repeated operands
    cancelled pairwise (x ^ x = 0), then rebuilt as a left-leaning chain
    over hash-sorted operands with any constant last.  This makes
    algebraically equal XOR combinations *structurally* equal — e.g.
    ``(a^d)^(b^d)`` interns to the same node as ``a^b`` — which both keeps
    path constraints small and lets the solver discharge XOR identities
    without search.
    """
    _check_widths(a, b)
    w = a.width
    constant = 0
    counts: dict = {}
    stack = [a, b]
    while stack:
        term = stack.pop()
        if isinstance(term, BVBinary) and term.op == "bvxor":
            stack.append(term.left)
            stack.append(term.right)
        elif isinstance(term, BVConst):
            constant ^= term.value
        else:
            counts[term] = counts.get(term, 0) + 1
    remaining = [term for term, count in counts.items() if count % 2]
    remaining.sort(key=lambda e: e._hash)
    if not remaining:
        return BVConst(constant, w)
    expr = remaining[0]
    for term in remaining[1:]:
        expr = BVBinary("bvxor", expr, term)
    if constant:
        expr = BVBinary("bvxor", expr, BVConst(constant, w))
    return expr


def bvnot(a: BVExpr) -> BVExpr:
    if isinstance(a, BVConst):
        return BVConst(~a.value, a.width)
    if isinstance(a, BVUnary) and a.op == "bvnot":
        return a.operand
    return BVUnary("bvnot", a)


def shl(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if isinstance(b, BVConst):
        if b.value == 0:
            return a
        if b.value >= w:
            return BVConst(0, w)
        if isinstance(a, BVConst):
            return BVConst(a.value << b.value, w)
    return BVBinary("shl", a, b)


def lshr(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if isinstance(b, BVConst):
        if b.value == 0:
            return a
        if b.value >= w:
            return BVConst(0, w)
        if isinstance(a, BVConst):
            return BVConst(a.value >> b.value, w)
    return BVBinary("lshr", a, b)


def ashr(a: BVExpr, b: BVExpr) -> BVExpr:
    _check_widths(a, b)
    w = a.width
    if isinstance(b, BVConst):
        if b.value == 0:
            return a
        if isinstance(a, BVConst):
            shift = min(b.value, w - 1)
            return BVConst(to_signed(a.value, w) >> shift, w)
    return BVBinary("ashr", a, b)


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def ite(cond: BoolExpr, then: BVExpr, orelse: BVExpr) -> BVExpr:
    _check_widths(then, orelse)
    if isinstance(cond, BoolConst):
        return then if cond.value else orelse
    if then is orelse:
        return then
    return BVIte(cond, then, orelse)


def extract(a: BVExpr, low: int, width: int) -> BVExpr:
    if low < 0 or low + width > a.width:
        raise ValueError(f"extract [{low}:{low + width}) out of {a.width} bits")
    if low == 0 and width == a.width:
        return a
    if isinstance(a, BVConst):
        return BVConst(a.value >> low, width)
    if isinstance(a, BVExtract):
        return extract(a.operand, a.low + low, width)
    if isinstance(a, BVExtend) and not a.signed and low + width <= a.operand.width:
        return extract(a.operand, low, width)
    if isinstance(a, BVExtend) and not a.signed and low >= a.operand.width:
        return BVConst(0, width)
    if isinstance(a, BVConcat):
        lw = a.low_part.width
        if low + width <= lw:
            return extract(a.low_part, low, width)
        if low >= lw:
            return extract(a.high, low - lw, width)
    return BVExtract(a, low, width)


def zext(a: BVExpr, width: int) -> BVExpr:
    if width < a.width:
        raise ValueError(f"zext narrows {a.width} -> {width}")
    if width == a.width:
        return a
    if isinstance(a, BVConst):
        return BVConst(a.value, width)
    if isinstance(a, BVExtend) and not a.signed:
        return zext(a.operand, width)
    return BVExtend(a, width, signed=False)


def sext(a: BVExpr, width: int) -> BVExpr:
    if width < a.width:
        raise ValueError(f"sext narrows {a.width} -> {width}")
    if width == a.width:
        return a
    if isinstance(a, BVConst):
        return BVConst(to_signed(a.value, a.width), width)
    return BVExtend(a, width, signed=True)


def concat(high: BVExpr, low: BVExpr) -> BVExpr:
    if isinstance(high, BVConst) and isinstance(low, BVConst):
        return BVConst((high.value << low.width) | low.value, high.width + low.width)
    if isinstance(high, BVConst) and high.value == 0:
        return zext(low, high.width + low.width)
    return BVConcat(high, low)


def truncate(a: BVExpr, width: int) -> BVExpr:
    """Narrow to the low ``width`` bits (no-op when already narrower-or-equal)."""
    if width >= a.width:
        return a
    return extract(a, 0, width)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

_CMP_FOLD = {
    "eq": lambda a, b, w: a == b,
    "ne": lambda a, b, w: a != b,
    "ult": lambda a, b, w: a < b,
    "ule": lambda a, b, w: a <= b,
    "slt": lambda a, b, w: to_signed(a, w) < to_signed(b, w),
    "sle": lambda a, b, w: to_signed(a, w) <= to_signed(b, w),
}

def _cmp(op: str, a: BVExpr, b: BVExpr) -> BoolExpr:
    _check_widths(a, b)
    if _both_const(a, b):
        return bool_const(_CMP_FOLD[op](a.value, b.value, a.width))
    if a is b:
        return bool_const(op in ("eq", "ule", "sle"))
    # Keep equalities canonical: constant on the right.
    if op in ("eq", "ne") and isinstance(a, BVConst):
        a, b = b, a
    # Comparisons against booleanized values recover the boolean: the VM
    # materializes comparison results as ite(c, 1, 0), and the subsequent
    # branch tests that cell against zero.  Folding here keeps path
    # constraints in terms of the original condition c.
    if op in ("eq", "ne") and isinstance(b, BVConst):
        folded = _cmp_of_ite(op, a, b)
        if folded is not None:
            return folded
    return Cmp(op, a, b)


def _cmp_of_ite(op: str, a: BVExpr, b: BVConst):
    if not isinstance(a, BVIte):
        return None
    then, orelse = a.then, a.orelse
    if not (isinstance(then, BVConst) and isinstance(orelse, BVConst)):
        return None
    then_matches = then.value == b.value
    orelse_matches = orelse.value == b.value
    if op == "ne":
        then_matches, orelse_matches = not then_matches, not orelse_matches
    if then_matches and orelse_matches:
        return TRUE
    if then_matches:
        return a.cond
    if orelse_matches:
        return not_(a.cond)
    return FALSE


def eq(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("eq", a, b)


def ne(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("ne", a, b)


def ult(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("ult", a, b)


def ule(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("ule", a, b)


def ugt(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("ult", b, a)


def uge(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("ule", b, a)


def slt(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("slt", a, b)


def sle(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("sle", a, b)


def sgt(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("slt", b, a)


def sge(a: BVExpr, b: BVExpr) -> BoolExpr:
    return _cmp("sle", b, a)


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


# not(a < b) == b <= a, not(a <= b) == b < a: negation stays in CMP_OPS by
# swapping operands, so path constraints never contain negated comparisons.
_CMP_NEG = {
    "eq": ("ne", False),
    "ne": ("eq", False),
    "ult": ("ule", True),
    "ule": ("ult", True),
    "slt": ("sle", True),
    "sle": ("slt", True),
}


def not_(a: BoolExpr) -> BoolExpr:
    if isinstance(a, BoolConst):
        return bool_const(not a.value)
    if isinstance(a, BoolNot):
        return a.operand
    if isinstance(a, Cmp):
        negation = a._negation
        if negation is None:
            op, swap = _CMP_NEG[a.op]
            left, right = (a.right, a.left) if swap else (a.left, a.right)
            negation = Cmp(op, left, right)
            # A node from before clear_intern_cache() keeps no memo, so
            # no memo links the old table to the new one.
            if a.is_interned():
                a._negation = negation
                negation._negation = a
        return negation
    return BoolNot(a)


def _flatten(cls, operands: Iterable[BoolExpr]):
    for op in operands:
        if isinstance(op, cls):
            yield from op.operands
        else:
            yield op


def and_(*operands: BoolExpr) -> BoolExpr:
    flat = []
    seen = set()
    for op in _flatten(BoolAnd, operands):
        if isinstance(op, BoolConst):
            if not op.value:
                return FALSE
            continue
        if op not in seen:
            seen.add(op)
            flat.append(op)
    for op in flat:
        if not_(op) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda e: e._hash)
    return BoolAnd(tuple(flat))


def or_(*operands: BoolExpr) -> BoolExpr:
    flat = []
    seen = set()
    for op in _flatten(BoolOr, operands):
        if isinstance(op, BoolConst):
            if op.value:
                return TRUE
            continue
        if op not in seen:
            seen.add(op)
            flat.append(op)
    for op in flat:
        if not_(op) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda e: e._hash)
    return BoolOr(tuple(flat))


def implies(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return or_(not_(a), b)

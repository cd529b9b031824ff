"""Concrete evaluation of expressions under a variable assignment.

Used for three things: checking candidate models in the solver, replaying
generated test cases, and as the ground-truth oracle in property-based tests
(a simplification is correct iff it evaluates identically for all tested
assignments).

An expression is evaluated by running its *plan*: the distinct nodes of
its DAG in post-order, each compiled once into a step that reads its
children's values by position.  The plan is built iteratively (guest
programs build expression chains deeper than Python's recursion limit),
visits a shared subexpression once, and is memoized in the interned
root node's ``_plan`` slot, so it lives exactly as long as the node.
Re-evaluating a node under another assignment — the solver's model
checks and brute-force search do this constantly — runs the plan
without walking the DAG again.
"""

from __future__ import annotations

from operator import not_
from typing import Callable, Dict, Mapping, Tuple, Union

from .ast import (
    BVBinary,
    BVConcat,
    BVConst,
    BVExtend,
    BVExtract,
    BVIte,
    BVUnary,
    BVVar,
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    Cmp,
    Expr,
    mask,
    to_signed,
)

__all__ = ["evaluate", "plan_of", "EvalError"]


class EvalError(Exception):
    """Raised when an expression references an unassigned variable."""


def _sdiv(a: int, b: int, w: int) -> int:
    as_, bs = to_signed(a, w), to_signed(b, w)
    if bs == 0:
        return mask(w)
    q = abs(as_) // abs(bs)
    if (as_ < 0) != (bs < 0):
        q = -q
    return q & mask(w)


def _srem(a: int, b: int, w: int) -> int:
    as_, bs = to_signed(a, w), to_signed(b, w)
    if bs == 0:
        return a
    r = abs(as_) % abs(bs)
    if as_ < 0:
        r = -r
    return r & mask(w)


# Operator -> factory of its concrete function at one width ``w`` (mask
# ``m``); a plan step calls that function with its operands' values.
_OPS = {
    "add": lambda w, m: lambda a, b: (a + b) & m,
    "sub": lambda w, m: lambda a, b: (a - b) & m,
    "mul": lambda w, m: lambda a, b: (a * b) & m,
    "udiv": lambda w, m: lambda a, b: m if b == 0 else a // b,
    "urem": lambda w, m: lambda a, b: a if b == 0 else a % b,
    "sdiv": lambda w, m: lambda a, b: _sdiv(a, b, w),
    "srem": lambda w, m: lambda a, b: _srem(a, b, w),
    "bvand": lambda w, m: lambda a, b: a & b,
    "bvor": lambda w, m: lambda a, b: a | b,
    "bvxor": lambda w, m: lambda a, b: a ^ b,
    "shl": lambda w, m: lambda a, b: 0 if b >= w else (a << b) & m,
    "lshr": lambda w, m: lambda a, b: 0 if b >= w else a >> b,
    "ashr": lambda w, m: lambda a, b: (to_signed(a, w) >> min(b, w - 1)) & m,
    "eq": lambda w, m: lambda a, b: a == b,
    "ne": lambda w, m: lambda a, b: a != b,
    "ult": lambda w, m: lambda a, b: a < b,
    "ule": lambda w, m: lambda a, b: a <= b,
    "slt": lambda w, m: lambda a, b: to_signed(a, w) < to_signed(b, w),
    "sle": lambda w, m: lambda a, b: to_signed(a, w) <= to_signed(b, w),
    "neg": lambda w, m: lambda a: (-a) & m,
    "bvnot": lambda w, m: lambda a: (~a) & m,
    # In place of ``w``: the low bit, the source width, the low part's width.
    "extract": lambda low, m: lambda a: (a >> low) & m,
    "sext": lambda from_width, m: lambda a: to_signed(a, from_width) & m,
    "concat": lambda low_width, m: lambda a, b: (a << low_width) | b,
}

#: (kind, parameter, width) -> concrete function, shared by every plan.
_FUNCTIONS: Dict[tuple, Callable] = {}


def _function(kind: str, parameter: int, width: int) -> Callable:
    key = (kind, parameter, width)
    fn = _FUNCTIONS.get(key)
    if fn is None:
        fn = _FUNCTIONS[key] = _OPS[kind](parameter, mask(width))
    return fn


def _identity(a):
    return a


# Step opcodes.  A step is ``(code, a, b, c)``; ``i``/``j``/``k`` below
# are positions of earlier steps, i.e. of the node's children.
_CONST = 0  # (_CONST, value, -, -)
_VAR = 1  # (_VAR, name, mask, -)
_APPLY1 = 2  # (_APPLY1, fn, i, -)
_APPLY2 = 3  # (_APPLY2, fn, i, j)
_ITE = 4  # (_ITE, i, j, k)
_ALL = 5  # (_ALL, (i, ...), -, -)
_ANY = 6  # (_ANY, (i, ...), -, -)

Step = Tuple[int, object, object, object]


def _step(node: Expr, at: Dict[int, int]) -> Step:
    """Compile one node; ``at`` maps its children's ids to positions."""
    if isinstance(node, Cmp):
        fn = _function(node.op, node.left.width, node.left.width)
        return (_APPLY2, fn, at[id(node.left)], at[id(node.right)])
    if isinstance(node, BVBinary):
        fn = _function(node.op, node.width, node.width)
        return (_APPLY2, fn, at[id(node.left)], at[id(node.right)])
    if isinstance(node, BVConst):
        return (_CONST, node.value, None, None)
    if isinstance(node, BVVar):
        return (_VAR, node.name, mask(node.width), None)
    if isinstance(node, BVUnary):
        fn = _function(node.op, node.width, node.width)
        return (_APPLY1, fn, at[id(node.operand)], None)
    if isinstance(node, BVIte):
        return (_ITE, at[id(node.cond)], at[id(node.then)], at[id(node.orelse)])
    if isinstance(node, BVExtract):
        fn = _function("extract", node.low, node.width)
        return (_APPLY1, fn, at[id(node.operand)], None)
    if isinstance(node, BVExtend):
        if node.signed:
            fn = _function("sext", node.operand.width, node.width)
        else:
            fn = _identity
        return (_APPLY1, fn, at[id(node.operand)], None)
    if isinstance(node, BVConcat):
        fn = _function("concat", node.low_part.width, node.width)
        return (_APPLY2, fn, at[id(node.high)], at[id(node.low_part)])
    if isinstance(node, BoolConst):
        return (_CONST, node.value, None, None)
    if isinstance(node, BoolNot):
        return (_APPLY1, not_, at[id(node.operand)], None)
    if isinstance(node, BoolAnd):
        return (_ALL, tuple(at[id(op)] for op in node.operands), None, None)
    if isinstance(node, BoolOr):
        return (_ANY, tuple(at[id(op)] for op in node.operands), None, None)
    raise TypeError(f"unknown expression node {type(node).__name__}")


def plan_of(expr: Expr) -> Tuple[Step, ...]:
    """The evaluation plan of ``expr``: one step per distinct DAG node,
    children before parents, the root last.  Built once per node."""
    try:
        return expr._plan
    except AttributeError:
        pass
    at: Dict[int, int] = {}
    steps = []
    stack = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in at:
            continue
        if not ready:
            stack.append((node, True))
            for child in node.children():
                if id(child) not in at:
                    stack.append((child, False))
            continue
        at[id(node)] = len(steps)
        steps.append(_step(node, at))
    plan = expr._plan = tuple(steps)
    return plan


def evaluate(expr: Expr, env: Mapping[str, int]) -> Union[int, bool]:
    """Evaluate ``expr`` under ``env`` (variable name -> unsigned value).

    Returns an unsigned int for bitvector expressions and a bool for
    boolean expressions.  A variable ``env`` does not map raises
    :class:`EvalError`, unless ``env[name]`` supplies a default (a
    :class:`~repro.solver.model.Model` reads unassigned variables as 0).
    Every node is evaluated; nothing short-circuits.
    """
    values: list = []
    push = values.append
    try:
        for code, a, b, c in plan_of(expr):
            if code == _APPLY2:
                push(a(values[b], values[c]))
            elif code == _VAR:
                push(env[a] & b)
            elif code == _CONST:
                push(a)
            elif code == _APPLY1:
                push(a(values[b]))
            elif code == _ITE:
                push(values[b] if values[a] else values[c])
            elif code == _ALL:
                push(all([values[i] for i in a]))
            else:
                push(any([values[i] for i in a]))
    except KeyError as unassigned:
        raise EvalError(f"unassigned variable {unassigned.args[0]!r}") from None
    return values[-1]

"""Expression DAG for symbolic values.

Symbolic values in the SDE virtual machine are fixed-width unsigned
bitvectors (with two's-complement interpretations where a signed operation
demands it) and booleans.  Expressions are immutable, structurally hashed and
*interned*: building the same expression twice yields the same object, which
keeps forked execution states cheap to copy and makes structural equality an
identity check.

Interning is per-process, so every node class defines ``__reduce__`` to
rebuild through its constructor on unpickling.  A pickled expression
shipped to a worker process (see :mod:`repro.core.distributed`) re-enters the
worker's own interning table, keeping the identity-equality invariant sound
across process boundaries.

The classes here are deliberately dumb containers.  All smart behaviour
(constant folding, algebraic simplification) lives in
:mod:`repro.expr.builder`, which is the only sanctioned way to construct
expressions in the rest of the code base.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

__all__ = [
    "Expr",
    "BVExpr",
    "BoolExpr",
    "BVConst",
    "BVVar",
    "BVUnary",
    "BVBinary",
    "BVIte",
    "BVExtract",
    "BVExtend",
    "BVConcat",
    "BoolConst",
    "BoolNot",
    "BoolAnd",
    "BoolOr",
    "Cmp",
    "mask",
    "to_signed",
    "to_unsigned",
    "intern_stats",
    "clear_intern_cache",
    "BV_UNARY_OPS",
    "BV_BINARY_OPS",
    "CMP_OPS",
]


def mask(width: int) -> int:
    """Bitmask of ``width`` one-bits, i.e. the maximal unsigned value."""
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Reinterpret an unsigned ``width``-bit value as two's complement."""
    sign_bit = 1 << (width - 1)
    return (value & mask(width)) - ((value & sign_bit) << 1)


def to_unsigned(value: int, width: int) -> int:
    """Truncate a Python int to its unsigned ``width``-bit representation."""
    return value & mask(width)


#: Unary bitvector operators: name -> concrete semantics.
BV_UNARY_OPS = ("neg", "bvnot")

#: Binary bitvector operators.
BV_BINARY_OPS = (
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
)

#: Comparison operators producing booleans.
CMP_OPS = ("eq", "ne", "ult", "ule", "slt", "sle")


_INTERN: Dict[tuple, "Expr"] = {}
_INTERN_HITS = 0
_INTERN_MISSES = 0


def _interned(key: tuple, factory) -> "Expr":
    global _INTERN_HITS, _INTERN_MISSES
    found = _INTERN.get(key)
    if found is not None:
        _INTERN_HITS += 1
        return found
    _INTERN_MISSES += 1
    node = factory()
    _INTERN[key] = node
    return node


def intern_stats() -> Tuple[int, int, int]:
    """Return ``(cache_size, hits, misses)`` of the interning table."""
    return len(_INTERN), _INTERN_HITS, _INTERN_MISSES


def clear_intern_cache() -> None:
    """Drop the interning table (mainly for tests measuring memory)."""
    global _INTERN_HITS, _INTERN_MISSES
    _INTERN.clear()
    _INTERN_HITS = 0
    _INTERN_MISSES = 0


class Expr:
    """Base class of all expression nodes."""

    # ``_vars`` and ``_plan`` (see :mod:`repro.expr.evaluate`) are memos,
    # filled on first use.
    __slots__ = ("_hash", "_vars", "_plan")

    #: Distinguishes the boolean sort from the bitvector sort.
    is_bool = False

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def is_const(self) -> bool:
        return False

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Interning guarantees structural equality == identity.
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def variables(self) -> frozenset:
        """The set of :class:`BVVar` nodes occurring in this expression.

        Memoized per node (nodes are interned and immutable, so the set
        never changes); subgraphs with a memo are not re-walked.
        """
        cached = getattr(self, "_vars", None)
        if cached is not None:
            return cached
        out = set()
        stack = [self]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            child_cached = getattr(node, "_vars", None)
            if child_cached is not None:
                out.update(child_cached)
            elif isinstance(node, BVVar):
                out.add(node)
            else:
                stack.extend(node.children())
        result = frozenset(out)
        self._vars = result
        return result

    def walk(self) -> Iterator["Expr"]:
        """Yield every distinct node of the DAG exactly once (pre-order)."""
        stack = [self]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children())

    def size(self) -> int:
        """Number of distinct DAG nodes; a proxy for storage cost."""
        return sum(1 for _ in self.walk())


class BVExpr(Expr):
    """A bitvector-sorted expression of some fixed ``width``."""

    __slots__ = ("width",)


class BoolExpr(Expr):
    """A boolean-sorted expression."""

    __slots__ = ()
    is_bool = True


class BVConst(BVExpr):
    """An unsigned constant of a given width."""

    __slots__ = ("value",)

    def __new__(cls, value: int, width: int) -> "BVConst":
        value = value & mask(width)
        key = ("c", value, width)

        def build() -> "BVConst":
            node = object.__new__(cls)
            node.value = value
            node.width = width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def is_const(self) -> bool:
        return True

    def signed(self) -> int:
        return to_signed(self.value, self.width)

    def __reduce__(self):
        return (BVConst, (self.value, self.width))

    def __repr__(self) -> str:
        return f"{self.value}#{self.width}"


class BVVar(BVExpr):
    """A named symbolic input of a given width.

    Variable names are globally unique identifiers; the engine derives them
    from (node id, input source, sequence number), e.g. ``n7.drop0``.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str, width: int) -> "BVVar":
        key = ("v", name, width)

        def build() -> "BVVar":
            node = object.__new__(cls)
            node.name = name
            node.width = width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def __reduce__(self):
        return (BVVar, (self.name, self.width))

    def __repr__(self) -> str:
        return f"{self.name}#{self.width}"


class BVUnary(BVExpr):
    """``neg`` (two's-complement negation) or ``bvnot`` (bitwise not)."""

    __slots__ = ("op", "operand")

    def __new__(cls, op: str, operand: BVExpr) -> "BVUnary":
        key = ("u", op, operand)

        def build() -> "BVUnary":
            node = object.__new__(cls)
            node.op = op
            node.operand = operand
            node.width = operand.width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __reduce__(self):
        return (BVUnary, (self.op, self.operand))

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


class BVBinary(BVExpr):
    """A binary arithmetic/bitwise/shift operator (see BV_BINARY_OPS)."""

    __slots__ = ("op", "left", "right")

    def __new__(cls, op: str, left: BVExpr, right: BVExpr) -> "BVBinary":
        key = ("b", op, left, right)

        def build() -> "BVBinary":
            node = object.__new__(cls)
            node.op = op
            node.left = left
            node.right = right
            node.width = left.width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __reduce__(self):
        return (BVBinary, (self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.op} {self.left!r} {self.right!r})"


class BVIte(BVExpr):
    """If-then-else over bitvectors."""

    __slots__ = ("cond", "then", "orelse")

    def __new__(cls, cond: BoolExpr, then: BVExpr, orelse: BVExpr) -> "BVIte":
        key = ("ite", cond, then, orelse)

        def build() -> "BVIte":
            node = object.__new__(cls)
            node.cond = cond
            node.then = then
            node.orelse = orelse
            node.width = then.width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)

    def __reduce__(self):
        return (BVIte, (self.cond, self.then, self.orelse))

    def __repr__(self) -> str:
        return f"(ite {self.cond!r} {self.then!r} {self.orelse!r})"


class BVExtract(BVExpr):
    """Bit slice ``[low : low+width)`` of a wider vector."""

    __slots__ = ("operand", "low")

    def __new__(cls, operand: BVExpr, low: int, width: int) -> "BVExtract":
        key = ("x", operand, low, width)

        def build() -> "BVExtract":
            node = object.__new__(cls)
            node.operand = operand
            node.low = low
            node.width = width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __reduce__(self):
        return (BVExtract, (self.operand, self.low, self.width))

    def __repr__(self) -> str:
        hi = self.low + self.width - 1
        return f"({self.operand!r}[{hi}:{self.low}])"


class BVExtend(BVExpr):
    """Zero- or sign-extension to a wider vector (``signed`` selects which)."""

    __slots__ = ("operand", "signed")

    def __new__(cls, operand: BVExpr, width: int, signed: bool) -> "BVExtend":
        key = ("e", operand, width, signed)

        def build() -> "BVExtend":
            node = object.__new__(cls)
            node.operand = operand
            node.width = width
            node.signed = signed
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __reduce__(self):
        return (BVExtend, (self.operand, self.width, self.signed))

    def __repr__(self) -> str:
        kind = "sext" if self.signed else "zext"
        return f"({kind} {self.operand!r} -> {self.width})"


class BVConcat(BVExpr):
    """Concatenation; ``high`` occupies the most significant bits."""

    __slots__ = ("high", "low_part")

    def __new__(cls, high: BVExpr, low_part: BVExpr) -> "BVConcat":
        key = ("cc", high, low_part)

        def build() -> "BVConcat":
            node = object.__new__(cls)
            node.high = high
            node.low_part = low_part
            node.width = high.width + low_part.width
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.high, self.low_part)

    def __reduce__(self):
        return (BVConcat, (self.high, self.low_part))

    def __repr__(self) -> str:
        return f"(concat {self.high!r} {self.low_part!r})"


class BoolConst(BoolExpr):
    """``true`` or ``false``."""

    __slots__ = ("value",)

    def __new__(cls, value: bool) -> "BoolConst":
        key = ("bc", bool(value))

        def build() -> "BoolConst":
            node = object.__new__(cls)
            node.value = bool(value)
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def is_const(self) -> bool:
        return True

    def __reduce__(self):
        return (BoolConst, (self.value,))

    def __repr__(self) -> str:
        return "true" if self.value else "false"


class BoolNot(BoolExpr):
    __slots__ = ("operand",)

    def __new__(cls, operand: BoolExpr) -> "BoolNot":
        key = ("not", operand)

        def build() -> "BoolNot":
            node = object.__new__(cls)
            node.operand = operand
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __reduce__(self):
        return (BoolNot, (self.operand,))

    def __repr__(self) -> str:
        return f"(not {self.operand!r})"


class BoolAnd(BoolExpr):
    """N-ary conjunction with a canonical (sorted, deduplicated) child tuple."""

    __slots__ = ("operands",)

    def __new__(cls, operands: Tuple[BoolExpr, ...]) -> "BoolAnd":
        key = ("and", operands)

        def build() -> "BoolAnd":
            node = object.__new__(cls)
            node.operands = operands
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def __reduce__(self):
        return (BoolAnd, (self.operands,))

    def __repr__(self) -> str:
        inner = " ".join(repr(o) for o in self.operands)
        return f"(and {inner})"


class BoolOr(BoolExpr):
    """N-ary disjunction with a canonical child tuple."""

    __slots__ = ("operands",)

    def __new__(cls, operands: Tuple[BoolExpr, ...]) -> "BoolOr":
        key = ("or", operands)

        def build() -> "BoolOr":
            node = object.__new__(cls)
            node.operands = operands
            node._hash = hash(key)
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def __reduce__(self):
        return (BoolOr, (self.operands,))

    def __repr__(self) -> str:
        inner = " ".join(repr(o) for o in self.operands)
        return f"(or {inner})"


class Cmp(BoolExpr):
    """A comparison of two equal-width bitvectors (see CMP_OPS).

    ``_negation`` memoizes :func:`repro.expr.builder.not_`: once set, two
    nodes name each other, and both are from the same interning table.
    """

    __slots__ = ("op", "left", "right", "_negation")

    def __new__(cls, op: str, left: BVExpr, right: BVExpr) -> "Cmp":
        key = ("cmp", op, left, right)

        def build() -> "Cmp":
            node = object.__new__(cls)
            node.op = op
            node.left = left
            node.right = right
            node._hash = hash(key)
            node._negation = None
            return node

        return _interned(key, build)  # type: ignore[return-value]

    def is_interned(self) -> bool:
        """Is this node still the table's, i.e. built since the last
        :func:`clear_intern_cache`?"""
        return _INTERN.get(("cmp", self.op, self.left, self.right)) is self

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.op} {self.left!r} {self.right!r})"

    def __reduce__(self):
        return (Cmp, (self.op, self.left, self.right))

"""Persistent, parent-sharing path conditions (``ConstraintSet``).

Every fork in the symbolic VM used to copy the parent's constraint tuple
and every solver query re-normalized and re-partitioned the whole list
from scratch.  A :class:`ConstraintSet` is instead a cons cell — parent
pointer plus one appended conjunct — so a fork shares the entire prefix
with its parent and, crucially, shares the parent's *memoized analysis*:

- :meth:`canonical` — the simplified conjunct tuple (see
  :mod:`repro.solver.simplify`), extended incrementally: the new
  conjunct is rewritten under the parent's equality environment, then
  either folds away, contradicts (UNSAT without any search), appends,
  or — when it introduces a new implied equality — triggers one full
  re-simplification of the inherited canonical form;
- :meth:`partition_groups` — the independence partition of the
  canonical form, maintained by merging the appended conjunct into the
  variable-sharing groups rather than re-running union-find;
- a cached :class:`~repro.solver.model.Model` satisfying the whole set,
  propagated from parent to child at :meth:`extended` time whenever the
  parent's model already satisfies the new conjunct (this is what makes
  one arm of every branch-feasibility pair free).

Nodes are hash-consed: :meth:`ConstraintSet.extended` returns the
parent's live child for the same (interned) conjunct instead of a copy,
so states whose path conditions were built by the same extensions hold
one node and share every memo above, verdicts included.  A parent holds
its children weakly and a child holds its parent strongly, with no
cycle between them: a node dies by refcount as soon as no state or
descendant holds it.  :func:`_restore` (unpickling) and
:func:`as_constraint_set` build fresh chains that are not looked up.

Identity: two sets are equal iff their *raw* conjunct tuples are equal
(expressions are interned, so this is cheap), which keeps cross-run
duplicate detection (``config_key`` / ``logical_state_config``) working
exactly as it did for plain tuples.  Pickling flattens to the raw tuple;
memos are per-process and rebuilt lazily after transport.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..expr.ast import BoolAnd, BoolConst, BoolExpr, BVVar
from ..expr.builder import not_
from .model import Model
from .simplify import simplify_conjuncts, substitute

__all__ = ["ConstraintSet", "EMPTY", "as_constraint_set"]

# Sentinel distinct from None: a memoized canonical form of None means
# "provably unsatisfiable", so "not computed yet" needs its own marker.
_UNSET = object()

#: ``(conjuncts, variables)`` — one independence group of the canonical form.
Group = Tuple[Tuple[BoolExpr, ...], FrozenSet[BVVar]]


class ConstraintSet:
    """One node of a persistent path condition (see module docstring).

    Build instances with :data:`EMPTY` ``.extended(conjunct)`` or
    :func:`as_constraint_set`; the constructor is internal.  The public
    surface mimics the tuple the VM used to store: iteration, ``len``,
    ``in``, indexing and content-based equality/hash all speak the *raw*
    (as-added) conjuncts, while the solver consumes the memoized
    canonical views.
    """

    __slots__ = (
        "parent",
        "conjunct",
        "_size",
        "_raw",
        "_canonical",
        "_eqs",
        "_digest",
        "_groups",
        "_appended",
        "_model",
        "_verdicts",
        "_hash",
        "_children",
        "__weakref__",
    )

    def __init__(
        self, parent: Optional["ConstraintSet"], conjunct: Optional[BoolExpr]
    ) -> None:
        self.parent = parent
        self.conjunct = conjunct
        if parent is None:  # the empty root
            self._size = 0
            self._raw: Optional[Tuple[BoolExpr, ...]] = ()
            self._canonical = ()
            self._eqs: Optional[Dict[object, object]] = {}
            self._digest: Optional[FrozenSet[BoolExpr]] = frozenset()
            self._groups: Optional[List[Group]] = []
        else:
            self._size = parent._size + 1
            self._raw = None
            self._canonical = _UNSET
            self._eqs = None
            self._digest = None
            self._groups = None
        self._appended: Optional[BoolExpr] = None
        self._model: Optional[Model] = None
        self._verdicts: Optional[Dict[object, Optional[Model]]] = None
        self._hash: Optional[int] = None
        self._children: Optional[Dict[BoolExpr, _ChildRef]] = None

    # -- construction --------------------------------------------------------

    def extended(self, conjunct: BoolExpr) -> "ConstraintSet":
        """The set plus one conjunct: this node's live child for the
        (interned) ``conjunct`` if there is one, else a new child that
        inherits a still-valid model.

        Equal path conditions forked off one node are therefore one
        object and share every memo below.  The parent holds its
        children weakly, so a child lives exactly as long as some state
        (or descendant) refers to it.  The satisfaction check memoizes
        per-conjunct verdicts on the model: sibling forks re-test the
        same conjunct against the same inherited model.
        """
        children = self._children
        if children is None:
            children = self._children = {}
        else:
            ref = children.get(conjunct)
            if ref is not None:
                child = ref()
                if child is not None:
                    return child
        child = ConstraintSet(self, conjunct)
        model = self._model
        if model is not None and model.satisfies((conjunct,)):
            child._model = model
        children[conjunct] = _ChildRef(child, self, conjunct)
        return child

    # -- tuple-compatible raw view -------------------------------------------

    def raw(self) -> Tuple[BoolExpr, ...]:
        """The as-added conjuncts, oldest first (memoized per node)."""
        raw = self._raw
        if raw is None:
            pending: List[ConstraintSet] = []
            node = self
            while node._raw is None:
                pending.append(node)
                node = node.parent
            raw = node._raw
            for entry in reversed(pending):
                raw = raw + (entry.conjunct,)
                entry._raw = raw
            return self._raw
        return raw

    def __iter__(self) -> Iterator[BoolExpr]:
        return iter(self.raw())

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, item: object) -> bool:
        return item in self.raw()

    def __getitem__(self, index):
        return self.raw()[index]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, ConstraintSet):
            return self._size == other._size and self.raw() == other.raw()
        if isinstance(other, tuple):
            return self.raw() == other
        return NotImplemented

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self.raw())
        return value

    def __repr__(self) -> str:
        return f"ConstraintSet({self._size} conjuncts)"

    def __reduce__(self):
        # Flatten: memos and parent links are per-process; the receiving
        # side re-interns the expressions and rebuilds analysis lazily.
        return (_restore, (self.raw(),))

    # -- memoized model -------------------------------------------------------

    def cached_model(self) -> Optional[Model]:
        """A model known to satisfy this whole set, if one is memoized."""
        return self._model

    def seed_model(self, model: Model) -> None:
        """Memoize a model the solver proved satisfies this set.

        First writer wins: any memoized model already satisfies the whole
        set, and keeping it stable is what makes branch pairs cheap — the
        model decides one arm of every pair, so that arm stays a shortcut
        across all future queries *and* propagates to the children forked
        along it.  Overwriting with the latest solve's model would make
        the free arm flap between queries and strand forked children
        without a model.
        """
        if self._model is None:
            self._model = model

    # -- memoized query verdicts ----------------------------------------------

    def cached_verdict(
        self, extra: Optional[BoolExpr]
    ) -> Tuple[bool, Optional[Model]]:
        """``(hit, result)`` of a memoized solve of *this set plus extra*.

        Symbolic execution re-issues identical queries constantly: forked
        siblings share the ConstraintSet node and probe the same branch
        conditions, and indexed-access scans ask the same equalities per
        delivery.  Interned expressions make ``extra`` a perfect dict key,
        so the whole pipeline collapses to one lookup on a repeat.  The
        result is a model for SAT (the same model every time — verdicts
        are never recomputed) or ``None`` for UNSAT.
        """
        verdicts = self._verdicts
        if verdicts is None or extra not in verdicts:
            return False, None
        return True, verdicts[extra]

    def memo_verdict(
        self, extra: Optional[BoolExpr], result: Optional[Model]
    ) -> None:
        """Memoize a solve outcome for :meth:`cached_verdict`."""
        if self._verdicts is None:
            self._verdicts = {}
        self._verdicts[extra] = result

    # -- canonical view -------------------------------------------------------

    def canonical(self, stats=None) -> Optional[Tuple[BoolExpr, ...]]:
        """The simplified conjunct tuple; ``None`` = provably UNSAT.

        Computed once per node by extending the parent's canonical form
        (see module docstring); ``stats`` is an optional owner of the
        ``simplify_*`` counters (the :class:`~repro.solver.core.Solver`).

        When the new conjunct introduces an implied equality, only the
        inherited conjuncts sharing variables with it are re-simplified
        (the loop-increment-reuse path) — a delta against the parent's
        memoized form instead of a full rerun.
        Sound because the rewrite rules are variable-local: conjuncts
        disjoint from the equality are fixpoints of the substitution,
        so the partial form is equisatisfiable with the full one (a
        cross-group contradiction is still found by the backend after
        the shared-variable groups merge).
        """
        if self._canonical is not _UNSET:
            return self._canonical
        pending: List[ConstraintSet] = []
        node = self
        while node._canonical is _UNSET:
            pending.append(node)
            node = node.parent
        for entry in reversed(pending):
            entry._extend_canonical(stats)
        return self._canonical

    def _extend_canonical(self, stats) -> None:
        parent = self.parent
        base = parent._canonical
        if base is None:  # already UNSAT: stays UNSAT
            self._canonical = None
            self._eqs = None
            self._digest = frozenset()
            return
        if stats is not None:
            stats.simplify_runs.value += 1
        eqs = parent._eqs
        conjunct = self.conjunct
        if eqs:
            conjunct = substitute(conjunct, eqs)
        if isinstance(conjunct, BoolConst):
            if conjunct.value:
                self._adopt_parent_canonical()
            else:
                self._mark_unsat(stats)
            return
        if not isinstance(conjunct, BoolAnd):
            digest = parent.digest()
            if conjunct in digest:
                self._adopt_parent_canonical()
                return
            if not_(conjunct) in digest:
                self._mark_unsat(stats)
                return
            if _introduces_equality(conjunct, eqs):
                self._resimplify_delta(base, conjunct, stats)
                return
            # Plain append: canonical grows by exactly this conjunct.
            self._canonical = base + (conjunct,)
            self._eqs = eqs
            self._digest = digest | {conjunct}
            self._appended = conjunct
            return
        # The substituted conjunct flattened into several: fall back to a
        # full simplification of the combined tuple.
        self._resimplify(base + conjunct.operands, stats)

    def _adopt_parent_canonical(self) -> None:
        parent = self.parent
        self._canonical = parent._canonical
        self._eqs = parent._eqs
        self._digest = parent._digest
        self._groups = parent._groups  # identical canonical ⇒ same groups

    def _mark_unsat(self, stats) -> None:
        self._canonical = None
        self._eqs = None
        self._digest = frozenset()
        self._groups = []
        if stats is not None:
            stats.simplify_contradictions.value += 1

    def _resimplify(self, conjuncts: Tuple[BoolExpr, ...], stats) -> None:
        simplified = simplify_conjuncts(conjuncts)
        if stats is not None:
            stats.simplify_resimplify.value += 1
            if simplified is not None:
                removed = len(conjuncts) - len(simplified)
                if removed > 0:
                    stats.simplify_removed.value += removed
        if simplified is None:
            self._mark_unsat(stats)
            return
        self._canonical = simplified
        self._eqs = _equality_env(simplified)
        self._digest = frozenset(simplified)

    def _resimplify_delta(
        self, base: Tuple[BoolExpr, ...], conjunct: BoolExpr, stats
    ) -> None:
        """Re-simplify only the conjuncts sharing variables with the new
        equality; everything else is carried over verbatim (see
        :meth:`canonical` for the soundness argument)."""
        variables = conjunct.variables()
        touched: List[BoolExpr] = []
        untouched: List[BoolExpr] = []
        for prior in base:
            if prior.variables() & variables:
                touched.append(prior)
            else:
                untouched.append(prior)
        touched.append(conjunct)
        simplified = simplify_conjuncts(tuple(touched))
        if stats is not None:
            stats.simplify_delta.value += 1
            if simplified is not None:
                removed = len(touched) - len(simplified)
                if removed > 0:
                    stats.simplify_removed.value += removed
        if simplified is None:
            self._mark_unsat(stats)
            return
        combined = tuple(untouched) + simplified
        self._canonical = combined
        self._eqs = _equality_env(combined)
        self._digest = frozenset(combined)

    def digest(self) -> FrozenSet[BoolExpr]:
        """Canonical conjuncts as a set (empty when UNSAT)."""
        if self._digest is None:
            self.canonical()
            if self._digest is None:
                self._digest = (
                    frozenset()
                    if self._canonical is None
                    else frozenset(self._canonical)
                )
        return self._digest

    def equality_env(self):
        """The implied-equality substitution of the canonical form."""
        self.canonical()
        return self._eqs

    # -- independence partition ----------------------------------------------

    def partition_groups(self, stats=None) -> List[Group]:
        """Independence groups of the canonical form (memoized).

        Groups are immutable ``(conjuncts, variables)`` pairs, safe to
        share between parent and child nodes.  An empty canonical form
        (or UNSAT) yields no groups.
        """
        if self._groups is not None:
            return self._groups
        canonical = self.canonical(stats)
        if canonical is None or not canonical:
            self._groups = []
            return self._groups
        parent = self.parent
        if (
            self._appended is not None
            and parent is not None
            and parent._groups is not None
        ):
            self._groups = merge_into_groups(parent._groups, self._appended)
        else:
            self._groups = groups_of(canonical)
        return self._groups


def _introduces_equality(conjunct: BoolExpr, eqs) -> bool:
    from .simplify import _var_eq_const

    pair = _var_eq_const(conjunct)
    if pair is None:
        return False
    variable, _ = pair
    return not eqs or variable not in eqs


def _equality_env(conjuncts: Tuple[BoolExpr, ...]):
    from .simplify import _var_eq_const

    env = {}
    for conjunct in conjuncts:
        pair = _var_eq_const(conjunct)
        if pair is not None:
            env[pair[0]] = pair[1]
    return env


def groups_of(conjuncts: Tuple[BoolExpr, ...]) -> List[Group]:
    """Independence partition as immutable groups (union-find order)."""
    from .independence import partition

    return [
        (tuple(group), variables)
        for group, variables in partition(list(conjuncts))
    ]


def merge_into_groups(groups: List[Group], conjunct: BoolExpr) -> List[Group]:
    """A new partition with ``conjunct`` merged into its variable peers.

    Groups that share no variable with ``conjunct`` are reused as-is (and
    keep their memoized cache keys warm); all sharing groups collapse
    into one, at the position of the first of them.
    """
    variables = conjunct.variables()
    if not variables:
        return list(groups) + [((conjunct,), frozenset())]
    merged: List[Group] = []
    absorbed: List[Group] = []
    slot = -1
    for group in groups:
        if group[1] & variables:
            if slot < 0:
                slot = len(merged)
                merged.append(group)  # placeholder, replaced below
            absorbed.append(group)
        else:
            merged.append(group)
    if slot < 0:
        return list(groups) + [((conjunct,), variables)]
    combined_conjuncts: Tuple[BoolExpr, ...] = ()
    combined_variables: FrozenSet[BVVar] = variables
    for group in absorbed:
        combined_conjuncts += group[0]
        combined_variables |= group[1]
    merged[slot] = (combined_conjuncts + (conjunct,), combined_variables)
    return merged


class _ChildRef(weakref.ref):
    """A parent's weak entry for one child; the child's death removes it.

    The entry reaches its parent through a weak reference, so the child
    table holds no strong edge back up the chain: parent, table, entry
    and child form no cycle, and every node dies by refcount.
    """

    __slots__ = ("parent", "conjunct")

    def __new__(cls, child, parent, conjunct):
        return super().__new__(cls, child, _forget)

    def __init__(self, child, parent, conjunct):
        super().__init__(child, _forget)
        self.parent = weakref.ref(parent)
        self.conjunct = conjunct


def _forget(entry: _ChildRef) -> None:
    parent = entry.parent()
    if parent is not None:
        children = parent._children
        if children.get(entry.conjunct) is entry:
            del children[entry.conjunct]


def _restore(raw: Tuple[BoolExpr, ...]) -> "ConstraintSet":
    node = EMPTY
    for conjunct in raw:
        node = ConstraintSet(node, conjunct)
    return node


#: The shared root: no conjuncts, trivially satisfied by the empty model.
EMPTY = ConstraintSet(None, None)
EMPTY._model = Model({})


def as_constraint_set(constraints) -> ConstraintSet:
    """Adapt the solver-API input: a ConstraintSet passes through,
    any other iterable of boolean expressions is folded into a fresh
    chain off :data:`EMPTY` (no model propagation — ad-hoc queries pay
    for their own analysis)."""
    if isinstance(constraints, ConstraintSet):
        return constraints
    node = EMPTY
    for conjunct in constraints:
        node = ConstraintSet(node, conjunct)
    return node

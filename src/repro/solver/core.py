"""The solver facade used by the virtual machine and test-case generator.

:class:`Solver` decides satisfiability of a *path condition plus one
optional extra conjunct* — the shape of every query symbolic execution
issues.  The public entry points (:meth:`check`, :meth:`may_be_true`,
:meth:`must_be_true`, :meth:`branch_feasibility`) all take the path
condition as a :class:`~repro.solver.constraints.ConstraintSet`; any
other iterable of boolean expressions is accepted through one adapter
(:func:`~repro.solver.constraints.as_constraint_set`) and pays for its
own analysis.  Pipeline per query, cheapest tier first:

0. **model shortcut** — the ConstraintSet's memoized model is evaluated
   on the extra conjunct; success answers SAT with zero solving (this is
   what makes one arm of every branch-feasibility pair free);
1. **canonicalization** — the memoized canonical form
   (:mod:`repro.solver.simplify`) is extended by the substituted extra
   conjunct; constant folds and digest contradictions answer here;
2. **independence partition** — the memoized variable-sharing groups,
   with the extra conjunct merged in (:mod:`repro.solver.independence`);
3. **per group** — the tiered :class:`~repro.solver.cache.SolverCache`
   (exact / UNSAT-subset / model-reuse), then propagation + search.

Accounting contract: ``queries``, ``sat_results`` and ``unsat_results``
are *semantic* and deterministic — independent of worker count, memo
state, cache contents and checkpoint/resume (``branch_feasibility``
always counts exactly two queries, even when one arm is answered for
free).  Everything cache- or memo-dependent (``backend.*``,
``shortcuts.*``, ``simplify.*`` and the ``solver.cache.*`` stats) is
volatile by design and excluded from determinism comparisons.  An event
summary's replay asks nothing: :meth:`Solver.replay_branches` moves the
semantic counters, the query-size histogram and the ``solve`` entry
count by its recorded :class:`BranchTotals`, and no volatile counter.

The procedure is sound and complete for the expression language of
:mod:`repro.expr`; a per-query node budget guards against adversarial
blow-ups and raises rather than silently mis-answering.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..expr import BoolAnd, BoolConst, BoolExpr, not_
from ..obs.metrics import Counter, Histogram, Timer
from .cache import SolverCache
from .constraints import (
    ConstraintSet,
    as_constraint_set,
    groups_of,
    merge_into_groups,
)
from .model import Model
from .search import SearchBudgetExceeded, search
from .simplify import simplify_conjuncts, substitute

__all__ = [
    "BranchTotals",
    "Solver",
    "SolverError",
    "UnsatisfiableError",
    "SearchBudgetExceeded",
]


class SolverError(Exception):
    """Base class for solver failures."""


class UnsatisfiableError(SolverError):
    """A model was requested for an unsatisfiable constraint set."""


class BranchTotals:
    """What a recorded run of :meth:`Solver.branch_feasibility` calls adds
    to the semantic counters, computed once from its ``(depth, answer)``
    pairs: ``depth`` is how many conjuncts the call's path condition had
    gained since the run began, ``answer`` the ``(may hold, may not
    hold)`` pair.  ``depths`` holds ``(depth, calls)`` pairs."""

    __slots__ = ("calls", "sat", "unsat", "depths")

    def __init__(self, pairs) -> None:
        calls = sat = 0
        depths = {}
        for depth, (may_hold, may_not_hold) in pairs:
            calls += 1
            sat += may_hold + may_not_hold
            depths[depth] = depths.get(depth, 0) + 1
        self.calls = calls
        self.sat = sat
        self.unsat = 2 * calls - sat
        self.depths = tuple(sorted(depths.items()))


class Solver:
    """Satisfiability oracle with memoized normalization and tiered caching.

    A single instance is shared by all execution states of an SDE run (the
    cache thrives on the cross-state query overlap that forking produces).

    Loop-increment reuse is part of the pipeline: when a symbolic loop
    body re-executes along the same control path, its iterations extend
    the path condition with structurally repeating conjuncts.  Models
    memoize per-conjunct verdicts, so tier 0 and the cache's model-reuse
    scan evaluate each (model, conjunct) pair once, and an iteration's
    extension is canonicalized as a delta against the parent's memoized
    form instead of a full re-simplification.
    """

    def __init__(self, use_cache: bool = True, max_nodes: int = 200_000) -> None:
        self._cache = SolverCache() if use_cache else None
        self._max_nodes = max_nodes
        # Deterministic, semantic counters (see module docstring).
        self.queries = Counter("solver.queries")
        self.sat_results = Counter("solver.sat_results")
        self.unsat_results = Counter("solver.unsat_results")
        # Volatile work counters: how much the backend actually did.
        #: _solve_group calls (the bench gate metric)
        self.backend_groups = Counter("solver.backend.groups")
        #: cache-missing search() runs
        self.backend_searches = Counter("solver.backend.searches")
        self.model_shortcuts = Counter("solver.shortcuts.model")  # tier 0
        #: memoized per-node query verdicts
        self.verdict_shortcuts = Counter("solver.shortcuts.verdict")
        # Canonicalization work, counted by ConstraintSet.canonical.
        self.simplify_runs = Counter("solver.simplify.runs")
        self.simplify_resimplify = Counter("solver.simplify.resimplify")
        self.simplify_delta = Counter("solver.simplify.delta")
        self.simplify_removed = Counter("solver.simplify.removed")
        self.simplify_contradictions = Counter("solver.simplify.contradictions")
        #: query-size distribution, part of the run's metrics snapshot.
        #: Sizes are the *raw* conjunct counts (pre-simplification), so the
        #: histogram is identical whatever the memo/cache state.
        self.conjunct_histogram = Histogram("solver.query.conjuncts")
        # Phase timers: ``solve`` wraps whole queries, ``solve.search``
        # only the backend search calls, so ``solve - solve.search`` is
        # the overhead of (and the time saved by) the optimization tiers.
        self.solve_timer = Timer("solve")
        self.search_timer = Timer("solve.search")
        self.handles = (
            self.queries,
            self.sat_results,
            self.unsat_results,
            self.backend_groups,
            self.backend_searches,
            self.model_shortcuts,
            self.verdict_shortcuts,
            self.simplify_runs,
            self.simplify_resimplify,
            self.simplify_delta,
            self.simplify_removed,
            self.simplify_contradictions,
            self.conjunct_histogram,
            self.solve_timer,
            self.search_timer,
        )
        # Observability wiring (attach_observability); None = off.
        self.trace = None

    def attach_observability(self, trace, metrics=None) -> None:
        """Adopt an engine's trace emitter; the engine's ``metrics``
        registry adopts the solver's and the cache's counters and timers.
        """
        if metrics is not None:
            metrics.adopt(self)
            if self._cache is not None:
                metrics.adopt(self._cache)
        self.trace = trace

    # -- public API ---------------------------------------------------------

    def check(self, constraints) -> Optional[Model]:
        """Return a satisfying :class:`Model`, or None if unsatisfiable.

        ``constraints``: a :class:`ConstraintSet` (preferred — its memoized
        canonical form, partition and model are reused) or any iterable of
        boolean expressions.  Variables not mentioned are unconstrained;
        models omit them (consumers default omitted inputs to zero).
        """
        cset = as_constraint_set(constraints)
        with self.solve_timer:
            return self._check(cset)

    def is_satisfiable(self, constraints) -> bool:
        return self.check(constraints) is not None

    def may_be_true(self, constraints, condition: BoolExpr) -> bool:
        """Can ``condition`` hold under ``constraints``?

        One query; the condition rides along as the extra conjunct — the
        path condition is never re-materialized (no per-query O(n) list
        building).
        """
        cset = as_constraint_set(constraints)
        with self.solve_timer:
            return self._check(cset, condition) is not None

    def must_be_true(self, constraints, condition: BoolExpr) -> bool:
        """Does ``constraints`` entail ``condition``?  One query."""
        cset = as_constraint_set(constraints)
        negated = not_(condition)
        with self.solve_timer:
            return self._check(cset, negated) is None

    def branch_feasibility(
        self, constraints, condition: BoolExpr
    ) -> Tuple[bool, bool]:
        """``(may_be_true, may_be_false)`` of ``condition`` — the branch pair.

        Replaces the executor's back-to-back may/must calls.  Always
        accounts exactly two queries, but whenever the ConstraintSet
        carries a memoized model, that model decides one of the two arms
        (every total assignment satisfies ``condition`` or its negation),
        so at most one arm reaches the backend.
        """
        cset = as_constraint_set(constraints)
        with self.solve_timer:
            return self._branch_feasibility(cset, condition)

    def _branch_feasibility(
        self, cset: ConstraintSet, condition: BoolExpr
    ) -> Tuple[bool, bool]:
        may_true = self._check(cset, condition) is not None
        may_false = self._check(cset, not_(condition)) is not None
        return may_true, may_false

    def replay_branches(self, totals: BranchTotals, path_length: int) -> None:
        """Account recorded branch pairs without asking them again.

        The semantic counters move as :meth:`branch_feasibility` on each
        pair would move them, for a run that began on a path condition
        of ``path_length`` conjuncts: two queries, the recorded SAT and
        UNSAT verdicts, two histogram entries of the query size and one
        ``solve`` entry per pair.  Volatile counters and memos stay.
        """
        calls = totals.calls
        self.queries.value += 2 * calls
        self.sat_results.value += totals.sat
        self.unsat_results.value += totals.unsat
        observe = self.conjunct_histogram.observe
        for depth, count in totals.depths:
            observe(path_length + depth + 1, 2 * count)
        self.solve_timer.count += calls

    def emit_branch(self, path_length: int, answer: Tuple[bool, bool]) -> None:
        """The two ``solver.query`` events of a recorded branch pair on a
        path condition of ``path_length`` conjuncts (tracing only)."""
        for feasible in answer:
            self._emit_query(path_length + 1, "sat" if feasible else "unsat")

    def get_model(self, constraints) -> Model:
        model = self.check(constraints)
        if model is None:
            raise UnsatisfiableError("no model exists")
        return model

    def iter_models(self, constraints, limit: Optional[int] = None):
        """Yield distinct models of ``constraints`` (all of them if finite).

        Classic blocking-clause enumeration: after each model, a disjunct
        requiring some constrained variable to differ is appended.
        Variables the constraints do not mention are left out (they would
        make the model space astronomically large and aren't meaningful).
        Used for exhaustive failure-pattern enumeration in reports.
        """
        from ..expr import bv as _bv
        from ..expr import ne as _ne
        from ..expr import or_ as _or

        base = as_constraint_set(constraints)
        variables = sorted(
            {v for c in base for v in c.variables()},
            key=lambda v: v.name,
        )
        node = base
        produced = 0
        while limit is None or produced < limit:
            model = self.check(node)
            if model is None:
                return
            yield model.restricted_to(variables)
            produced += 1
            if not variables:
                return  # ground constraints: exactly one (empty) model
            node = node.extended(
                _or(
                    *(
                        _ne(v, _bv(model.get(v.name, 0), v.width))
                        for v in variables
                    )
                )
            )

    # -- the query pipeline --------------------------------------------------

    def _check(
        self, cset: ConstraintSet, extra: Optional[BoolExpr] = None
    ) -> Optional[Model]:
        self.queries.value += 1
        size = len(cset) + (0 if extra is None else 1)
        self.conjunct_histogram.observe(size)

        memoizable = len(cset) > 0
        model = cset.cached_model()
        if model is not None and (extra is None or model.satisfies((extra,))):
            self.model_shortcuts.value += 1
            self.sat_results.value += 1
            self._emit_query(size, "sat")
            return model
        if memoizable:
            # Forked siblings share the ConstraintSet node and probe the
            # same branch conditions, so identical (node, extra) queries
            # repeat constantly; a memoized verdict answers them without
            # re-running normalization or the backend.  SAT/UNSAT is
            # semantic, so the deterministic counters stay deterministic.
            hit, cached = cset.cached_verdict(extra)
            if hit:
                self.verdict_shortcuts.value += 1
                if cached is None:
                    self.unsat_results.value += 1
                    self._emit_query(size, "unsat")
                else:
                    self.sat_results.value += 1
                    self._emit_query(size, "sat")
                return cached

        conjuncts, groups = self._normalized(cset, extra)
        if conjuncts is None:
            self.unsat_results.value += 1
            self._emit_query(size, "unsat")
            if memoizable:
                cset.memo_verdict(extra, None)
            return None

        merged = Model({})
        for group, group_vars in groups:
            result = self._solve_group(group, group_vars)
            if result is None:
                self.unsat_results.value += 1
                self._emit_query(size, "unsat")
                if memoizable:
                    cset.memo_verdict(extra, None)
                return None
            merged = merged.merged_with(result)
        self.sat_results.value += 1
        self._emit_query(size, "sat")
        if memoizable:
            # `merged` satisfies canonical(cset) ∧ extra ⊨ cset, so memoize
            # it on the node: later queries against the same path condition
            # start at tier 0.  The shared EMPTY root keeps its pristine
            # empty model (it is a module singleton).
            cset.seed_model(merged)
            cset.memo_verdict(extra, merged)
        return merged

    def _normalized(self, cset: ConstraintSet, extra: Optional[BoolExpr]):
        """``(conjuncts, groups)`` to solve, or ``(None, None)`` = UNSAT."""
        base = cset.canonical(self)
        if base is None:
            return None, None
        if extra is None:
            return base, cset.partition_groups(self)

        eqs = cset.equality_env()
        conjunct = substitute(extra, eqs) if eqs else extra
        if isinstance(conjunct, BoolConst):
            if conjunct.value:
                return base, cset.partition_groups(self)
            return None, None
        if isinstance(conjunct, BoolAnd):
            # The extra conjunct flattened into several: one full pass.
            self.simplify_resimplify.value += 1
            simplified = simplify_conjuncts(base + conjunct.operands)
            if simplified is None:
                return None, None
            return simplified, groups_of(simplified)
        digest = cset.digest()
        if conjunct in digest:
            return base, cset.partition_groups(self)
        if not_(conjunct) in digest:
            return None, None
        return (
            base + (conjunct,),
            merge_into_groups(cset.partition_groups(self), conjunct),
        )

    def _emit_query(self, conjuncts: int, result: str) -> None:
        if self.trace is not None:
            self.trace.emit(
                "solver.query", conjuncts=conjuncts, result=result
            )

    def _solve_group(self, group, group_vars: frozenset) -> Optional[Model]:
        self.backend_groups.value += 1
        key = None
        if self._cache is not None:
            key = SolverCache.key(group)
            hit, cached = self._cache.lookup(key, group_vars)
            if hit:
                if self.trace is not None:
                    # Outcome is cache-state dependent, hence a volatile
                    # field; the *count* of lookups is deterministic.
                    self.trace.emit(
                        "solver.cache", outcome=self._cache.last_outcome
                    )
                return cached
        if self.trace is not None:
            self.trace.emit(
                "solver.cache",
                outcome="miss" if self._cache is not None else "disabled",
            )
        self.backend_searches.value += 1
        with self.search_timer:
            result = search(list(group), group_vars, max_nodes=self._max_nodes)
        if self._cache is not None:
            self._cache.store(key, result)
        return result

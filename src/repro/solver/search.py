"""Complete backtracking search over finite variable domains.

The decision procedure: interval propagation narrows domains; when
propagation reaches a fixpoint without deciding the query, the search splits
the smallest unresolved domain (enumerating it when small, bisecting
otherwise) and recurses.  Because propagation is sound and splitting strictly
shrinks domains, the procedure is complete: it returns a model iff the
conjunction is satisfiable.

Branching order is deterministic and biased toward small values, so
generated test cases come out minimal-ish and stable across runs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from ..expr import BoolExpr, BVVar, Interval, evaluate
from .model import Model
from .propagate import Infeasible, propagate

__all__ = ["search", "SearchBudgetExceeded", "ENUMERATION_LIMIT"]

#: Domains at most this large are enumerated exhaustively instead of bisected.
ENUMERATION_LIMIT = 32

#: When the *product* of all remaining domain sizes is at most this, the
#: search switches to direct concrete evaluation of every assignment.  This
#: is the fast path for bit-level constraints (checksums, flag masks) where
#: interval propagation has no grip: evaluating the expression DAG a few
#: hundred times beats interval-bisecting it.
BRUTE_FORCE_LIMIT = 2048


class SearchBudgetExceeded(Exception):
    """The search exceeded its node budget without deciding the query."""


def search(
    constraints: Sequence[BoolExpr],
    variables: frozenset,
    max_nodes: int = 200_000,
) -> Optional[Model]:
    """Find a model of ``constraints`` over ``variables`` or prove None exists.

    ``variables`` must cover every variable occurring in ``constraints``.
    Raises :class:`SearchBudgetExceeded` if ``max_nodes`` split nodes were
    expanded without an answer (never observed in the SDE workloads; the
    budget is a safety net against adversarial guest programs).
    """
    domains: Dict[BVVar, Interval] = {
        v: Interval.top(v.width) for v in variables
    }
    budget = [max_nodes]
    try:
        propagate(constraints, domains)
    except Infeasible:
        return None
    return _solve(list(constraints), domains, budget)


def _solve(
    constraints: List[BoolExpr],
    domains: Dict[BVVar, Interval],
    budget: List[int],
) -> Optional[Model]:
    budget[0] -= 1
    if budget[0] < 0:
        raise SearchBudgetExceeded()

    unresolved = [v for v, d in domains.items() if not d.is_singleton()]
    if not unresolved:
        env = {v.name: d.lo for v, d in domains.items()}
        for constraint in constraints:
            if not evaluate(constraint, env):
                return None
        return Model(env)

    space = 1
    for variable in unresolved:
        space *= domains[variable].size()
        if space > BRUTE_FORCE_LIMIT:
            break
    if space <= BRUTE_FORCE_LIMIT:
        return _brute_force(constraints, domains, unresolved, budget)

    # Split the variable with the smallest domain; ties broken by name for
    # determinism.
    variable = min(unresolved, key=lambda v: (domains[v].size(), v.name))
    domain = domains[variable]

    if domain.size() <= ENUMERATION_LIMIT:
        candidates = [
            Interval.of(value) for value in range(domain.lo, domain.hi + 1)
        ]
    else:
        mid = (domain.lo + domain.hi) // 2
        candidates = [
            Interval(domain.lo, mid),
            Interval(mid + 1, domain.hi),
        ]

    for candidate in candidates:
        child = dict(domains)
        child[variable] = candidate
        try:
            propagate(constraints, child)
        except Infeasible:
            continue
        result = _solve(constraints, child, budget)
        if result is not None:
            return result
    return None


def _brute_force(
    constraints: List[BoolExpr],
    domains: Dict[BVVar, Interval],
    unresolved: List[BVVar],
    budget: List[int],
) -> Optional[Model]:
    """Concretely evaluate every assignment of a small residual space.

    Deterministic order (variables by name, values ascending) keeps models
    stable across runs.  The budget is charged per assignment so adversarial
    queries still terminate with SearchBudgetExceeded.  A flat loop, not a
    recursive closure: a self-referencing closure is cyclic garbage on
    every call (docs/VM.md, "Memory management").
    """
    unresolved = sorted(unresolved, key=lambda v: v.name)
    env = {v.name: d.lo for v, d in domains.items() if d.is_singleton()}
    names = [variable.name for variable in unresolved]
    ranges = [
        range(domains[variable].lo, domains[variable].hi + 1)
        for variable in unresolved
    ]
    # product() advances the last variable fastest: the same order as
    # nesting one loop per variable, first variable outermost.
    for values in itertools.product(*ranges):
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded()
        env.update(zip(names, values))
        for constraint in constraints:
            if not evaluate(constraint, env):
                break
        else:
            return Model(env)
    return None

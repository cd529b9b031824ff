"""Solver internals: independence partitioning, cache, search budget,
propagation details."""

import gc
from collections import OrderedDict

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.expr import Interval, add, bv, bvand, eq, mul, ne, ule, ult, var
from repro.obs import MetricsRegistry
from repro.solver import (
    Infeasible,
    Model,
    SearchBudgetExceeded,
    Solver,
    SolverCache,
    group_for,
    partition,
    propagate,
    search,
)

from ..conftest import budget

A, B, C, D = (var(n) for n in "abcd")

#: The cache's counters, as metric names without the ``solver.cache.``
#: prefix.
CACHE_COUNTERS = (
    "hit.exact",
    "hit.cex",
    "hit.model",
    "miss",
    "stores",
    "model_scan_steps",
    "subset_scan_steps",
)


def _cache_counters(cache) -> dict:
    """The cache's counters by short name, read through a registry."""
    registry = MetricsRegistry()
    registry.adopt(cache)
    return {
        name[len("solver.cache."):]: value
        for name, value in registry.snapshot()["counters"].items()
    }


class TestPartition:
    def test_disjoint_constraints_split(self):
        groups = partition([eq(A, bv(1)), eq(B, bv(2))])
        assert len(groups) == 2

    def test_shared_variable_joins(self):
        groups = partition([eq(A, bv(1)), ult(A, B), eq(C, bv(3))])
        assert len(groups) == 2
        sizes = sorted(len(g[0]) for g in groups)
        assert sizes == [1, 2]

    def test_transitive_chain_joins_all(self):
        groups = partition([ult(A, B), ult(B, C), ult(C, D)])
        assert len(groups) == 1
        assert len(groups[0][1]) == 4

    def test_ground_constraints_isolated(self):
        from repro.expr import true

        groups = partition([true(), eq(A, bv(1))])
        ground = [g for g in groups if not g[1]]
        assert len(ground) == 1

    def test_group_order_preserved(self):
        constraints = [ult(A, B), eq(A, bv(1)), ule(B, bv(9))]
        groups = partition(constraints)
        assert groups[0][0] == constraints  # same group, input order

    def test_group_for_selects_transitively(self):
        constraints = [ult(A, B), eq(B, C), eq(D, bv(7))]
        selected = group_for([A], constraints)
        assert ult(A, B) in selected
        assert eq(B, C) in selected
        assert eq(D, bv(7)) not in selected

    def test_group_for_unrelated_empty(self):
        assert group_for([D], [eq(A, bv(1))]) == []


class TestCacheDirect:
    def test_exact_hit(self):
        cache = SolverCache()
        key = SolverCache.key([eq(A, bv(1))])
        cache.store(key, Model({"a": 1}))
        hit, result = cache.lookup(key)
        assert hit and result["a"] == 1
        assert cache.exact_hits.value == 1

    def test_unsat_entry(self):
        cache = SolverCache()
        key = SolverCache.key([eq(A, bv(1)), ne(A, bv(1))])
        cache.store(key, None)
        hit, result = cache.lookup(key)
        assert hit and result is None

    def test_model_reuse(self):
        cache = SolverCache()
        cache.store(SolverCache.key([ult(A, bv(10))]), Model({"a": 3}))
        hit, result = cache.lookup(SolverCache.key([ult(A, bv(100))]))
        assert hit and result["a"] == 3
        assert cache.model_reuse_hits.value == 1

    def test_miss(self):
        cache = SolverCache()
        hit, _ = cache.lookup(SolverCache.key([eq(A, bv(5))]))
        assert not hit
        assert cache.misses.value == 1

    def test_lru_eviction(self):
        cache = SolverCache(max_entries=2)
        keys = [SolverCache.key([eq(A, bv(i))]) for i in range(3)]
        for key in keys:
            cache.store(key, None)
        assert len(cache) == 2
        hit, _ = cache.lookup(keys[0])
        assert not hit  # evicted

    def test_clear(self):
        cache = SolverCache()
        cache.store(SolverCache.key([eq(A, bv(1))]), None)
        cache.clear()
        assert len(cache) == 0


class TestCacheTierAccounting:
    """Each tier answers its own shape of query and books its own counter
    (the ``solver.cache.hit.*`` metrics the snapshot exports)."""

    def test_cex_subset_proves_superset_unsat(self):
        cache = SolverCache()
        unsat_core = SolverCache.key([eq(A, bv(1)), eq(A, bv(2))])
        cache.store(unsat_core, None)
        superset = SolverCache.key([eq(A, bv(1)), eq(A, bv(2)), ult(B, bv(9))])
        hit, result = cache.lookup(superset, frozenset([A, B]))
        assert hit and result is None
        assert cache.cex_hits.value == 1 and cache.last_outcome == "cex"

    def test_each_tier_books_exactly_one_counter(self):
        cache = SolverCache()
        key = SolverCache.key([ult(A, bv(10))])
        cache.lookup(key, frozenset([A]))  # miss
        cache.store(key, Model({"a": 3}))
        cache.lookup(key, frozenset([A]))  # exact
        wider = SolverCache.key([ult(A, bv(100))])
        cache.lookup(wider, frozenset([A]))  # model reuse
        stats = _cache_counters(cache)
        assert stats["miss"] == 1
        assert stats["hit.exact"] == 1
        assert stats["hit.model"] == 1
        assert stats["hit.cex"] == 0
        assert stats["stores"] == 1

    def test_model_scan_skips_foreign_variable_models(self):
        # A model assigning variables outside the query must never be
        # reused — it would leak unconstrained assignments into merges.
        cache = SolverCache()
        cache.store(SolverCache.key([eq(B, bv(3))]), Model({"b": 3}))
        hit, _ = cache.lookup(SolverCache.key([ult(A, bv(10))]), frozenset([A]))
        assert not hit

    def test_restored_model_keeps_first_object_and_takes_new_key(self):
        cache = SolverCache()
        first = Model({"a": 0})
        cache.store(SolverCache.key([eq(A, bv(0))]), first)
        cache.store(SolverCache.key([eq(A, bv(1))]), Model({"a": 1}))
        # An equal model stored again (the cache trusts its key as given).
        cache.store(SolverCache.key([eq(A, bv(5))]), Model({"a": 0}))
        # It is now the newest, and answers as the first object.
        hit, model = cache.lookup(SolverCache.key([ult(A, bv(2))]), frozenset([A]))
        assert hit and model is first
        assert cache.model_scan_steps.value == 1
        # Under the new key a query extending it probes only its extras.
        extended = SolverCache.key([eq(A, bv(5)), ult(B, bv(1))])
        hit, model = cache.lookup(extended, frozenset([A, B]))
        assert hit and model is first
        assert cache.model_scan_steps.value == 2

    def test_stats_restore_round_trip(self):
        cache = SolverCache()
        cache.store(SolverCache.key([eq(A, bv(1)), eq(A, bv(2))]), None)
        cache.lookup(
            SolverCache.key([eq(A, bv(1)), eq(A, bv(2)), ult(B, bv(9))]),
            frozenset([A, B]),
        )
        registry = MetricsRegistry()
        registry.adopt(cache)
        snapshot = registry.snapshot()
        fresh = SolverCache()
        restored = MetricsRegistry()
        restored.adopt(fresh)
        restored.install(snapshot)
        assert restored.snapshot() == snapshot
        # The install reaches the fresh cache's own handles.
        assert _cache_counters(fresh) == _cache_counters(cache)
        assert fresh.cex_hits.value == 1


class _LinearCache:
    """Reference for :class:`SolverCache`: the same tiers, with tier 3 as
    one newest-first scan over every stored model that skips (without
    counting) the models assigning variables outside the query."""

    def __init__(self, **bounds):
        self.bounds = bounds
        self.exact = OrderedDict()
        self.models = []  # [model, its names, its key], oldest first
        self.unsat = OrderedDict()  # UNSAT key -> smallest variable name
        self.stats = dict.fromkeys(CACHE_COUNTERS, 0)

    def lookup(self, key, variables=None):
        if key in self.exact:
            self.exact.move_to_end(key)
            self.stats["hit.exact"] += 1
            return True, self.exact[key]
        names = None if variables is None else frozenset(v.name for v in variables)
        if names and self._unsat_subset(key, names):
            self.stats["hit.cex"] += 1
            return True, None
        evaluated = 0
        for model, model_names, stored in reversed(self.models):
            if evaluated >= self.bounds["max_model_scan"]:
                break
            if names is not None and not model_names <= names:
                continue
            evaluated += 1
            probe = key - stored if stored <= key else key
            if model.satisfies(probe):
                self.stats["model_scan_steps"] += evaluated
                self.stats["hit.model"] += 1
                return True, model
        self.stats["model_scan_steps"] += evaluated
        self.stats["miss"] += 1
        return False, None

    def _unsat_subset(self, key, names):
        scanned = 0
        for name in sorted(names):
            for candidate in reversed([k for k, r in self.unsat.items() if r == name]):
                scanned += 1
                if candidate <= key or scanned >= self.bounds["max_subset_scan"]:
                    self.stats["subset_scan_steps"] += scanned
                    return candidate <= key
        self.stats["subset_scan_steps"] += scanned
        return False

    def store(self, key, result):
        self.stats["stores"] += 1
        self.exact[key] = result
        self.exact.move_to_end(key)
        while len(self.exact) > self.bounds["max_entries"]:
            self.exact.popitem(last=False)
        if result is not None:
            for index, (model, _, _) in enumerate(self.models):
                if model == result:
                    # An equal model keeps its first object, moves to the
                    # newest end and takes the new key.
                    del self.models[index]
                    result = model
                    break
            self.models.append([result, frozenset(result), key])
            del self.models[: -self.bounds["max_models"]]
            return
        rep = min((v.name for c in key for v in c.variables()), default="")
        if rep and key not in self.unsat:
            self.unsat[key] = rep
            while len(self.unsat) > self.bounds["max_unsat_entries"]:
                self.unsat.popitem(last=False)


_CONJUNCTS = [
    ult(A, bv(4)),
    ult(A, bv(2)),
    eq(A, bv(1)),
    ne(A, bv(0)),
    ult(B, bv(3)),
    eq(B, bv(0)),
    ult(A, B),
    eq(bvand(add(A, C), bv(1)), bv(0)),
    ne(C, bv(2)),
    eq(D, bv(1)),
]
_KEYS = st.frozensets(st.sampled_from(_CONJUNCTS), min_size=1, max_size=3)
# Few variables and values, so equal models are stored again and models
# share variable sets often.
_ASSIGNMENTS = st.dictionaries(
    st.sampled_from("abcd"), st.integers(0, 1), max_size=2
)
_STORE = st.tuples(st.just("store"), _KEYS, st.one_of(st.none(), _ASSIGNMENTS))
_LOOKUP = st.tuples(
    st.just("lookup"),
    _KEYS,
    st.one_of(st.none(), st.frozensets(st.sampled_from([A, B, C, D]))),
)


class TestCacheMatchesLinearScan:
    """The entry/variable-set index answers exactly as the linear scan:
    same hit or miss, the same model object, identical statistics."""

    # No shrink phase: shrinking a failing sequence takes minutes, so a
    # failure is reported as generated.
    @settings(
        max_examples=budget(60),
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
    )
    @given(st.lists(st.one_of(_STORE, _LOOKUP), min_size=20, max_size=60))
    def test_operation_sequence(self, operations):
        bounds = dict(
            max_entries=6,
            max_models=4,
            max_model_scan=3,
            max_unsat_entries=3,
            max_subset_scan=2,
        )
        cache, reference = SolverCache(**bounds), _LinearCache(**bounds)
        for op, key, argument in operations:
            if op == "store":
                result = None if argument is None else Model(argument)
                cache.store(key, result)
                reference.store(key, result)
                continue
            # A query's variables cover its key's, as the solver passes them.
            variables = None
            if argument is not None:
                variables = argument | {v for c in key for v in c.variables()}
            hit, model = cache.lookup(key, variables)
            expected_hit, expected = reference.lookup(key, variables)
            assert hit == expected_hit
            assert model is expected
            assert _cache_counters(cache) == reference.stats


class TestSearchBudget:
    def test_budget_exceeded_raises(self):
        # A dense multiplicative constraint over full 32-bit domains with a
        # tiny budget cannot finish.
        constraints = [eq(mul(A, B), bv(0x12345678)), ult(bv(100), A)]
        variables = frozenset([A, B])
        with pytest.raises(SearchBudgetExceeded):
            search(constraints, variables, max_nodes=3)

    def test_generous_budget_succeeds(self):
        model = search([eq(add(A, B), bv(10)), ule(A, bv(4))],
                       frozenset([A, B]), max_nodes=100_000)
        assert model is not None
        assert (model["a"] + model["b"]) & 0xFFFFFFFF == 10


class TestBruteForce:
    """Small residual spaces are enumerated: variables by name, values
    ascending, the last variable fastest, one budget unit per assignment."""

    X, Y = var("x", 3), var("y", 3)

    def test_first_model_in_enumeration_order(self):
        odd_sum = [ne(bvand(add(self.X, self.Y), bv(1, 3)), bv(0, 3))]
        model = search(odd_sum, frozenset([self.X, self.Y]))
        assert (model["x"], model["y"]) == (0, 1)

    def test_budget_charged_once_per_assignment(self):
        # x*x + y*y is never 3 mod 8: all 64 assignments are evaluated,
        # plus the one split node that hands over to the enumeration.
        square_sum = [eq(add(mul(self.X, self.X), mul(self.Y, self.Y)), bv(3, 3))]
        variables = frozenset([self.X, self.Y])
        assert search(square_sum, variables, max_nodes=65) is None
        with pytest.raises(SearchBudgetExceeded):
            search(square_sum, variables, max_nodes=64)

    def test_enumeration_leaves_no_cyclic_garbage(self):
        square_sum = [eq(add(mul(self.X, self.X), mul(self.Y, self.Y)), bv(3, 3))]
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            search(square_sum, frozenset([self.X, self.Y]))
            gc.collect()
            assert gc.garbage == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


class TestPropagateDirect:
    def test_narrows_equality(self):
        domains = {A: Interval.top(32)}
        propagate([eq(A, bv(5))], domains)
        assert domains[A] == Interval.of(5)

    def test_narrows_chain(self):
        domains = {A: Interval.top(32), B: Interval.top(32)}
        propagate([ult(A, bv(10)), ult(B, A)], domains)
        assert domains[A].hi <= 9
        assert domains[B].hi <= 8

    def test_infeasible_raises(self):
        domains = {A: Interval(0, 3)}
        with pytest.raises(Infeasible):
            propagate([eq(A, bv(9))], domains)

    def test_ne_boundary_shaving(self):
        domains = {A: Interval(5, 10)}
        propagate([ne(A, bv(5)), ne(A, bv(10))], domains)
        assert domains[A] == Interval(6, 9)

    def test_bitmask_lower_bound(self):
        domains = {A: Interval.top(32)}
        propagate([ule(bv(0x100), bvand(A, bv(0xFFF)))], domains)
        assert domains[A].lo >= 0x100


class TestSolverStatistics:
    def test_query_counters(self):
        solver = Solver()
        solver.check([eq(A, bv(1))])
        solver.check([eq(A, bv(1)), ne(A, bv(1))])
        assert solver.queries.value == 2
        assert solver.sat_results.value == 1
        assert solver.unsat_results.value == 1

    def test_entailment_uses_negation(self):
        solver = Solver()
        assert solver.must_be_true([eq(A, bv(3))], ult(A, bv(5)))
        assert not solver.must_be_true([], ult(A, bv(5)))

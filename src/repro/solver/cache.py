"""Tiered query caching (KLEE's counterexample cache, adapted).

SDE queries are massively redundant: forked siblings share all but one
conjunct, and every branch site issues near-identical feasibility pairs.
The cache answers a query about one independence group from three tiers,
cheapest first:

1. **exact** — the frozenset of the group's conjuncts is the key; a hit
   returns the stored result (a model, or ``None`` for UNSAT) outright.
2. **counterexample subset** — a stored UNSAT key that is a *subset* of
   the query proves the query UNSAT (adding conjuncts can't revive it).
   Candidates come from a per-variable index so only keys sharing the
   query's variables are examined, with a hard scan bound.
3. **model reuse** — a model stored for a *subset* key is evaluated
   against only the extra conjuncts (for unrelated keys: against the
   whole query); satisfaction proves SAT without a search.  Stored
   models are indexed by variable set, so the scan visits only models
   over the query's own variables, newest first.

Each tier's hits, the misses and the scan steps are pre-bound
``solver.cache.*`` counters (``hit.exact`` / ``hit.cex`` / ``hit.model``
/ ``miss`` ...), which the engine's metrics registry adopts.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..expr import BoolExpr, BVVar
from ..obs.metrics import Counter
from .model import Model

__all__ = ["SolverCache"]

Key = FrozenSet[BoolExpr]


_MISS = object()


class _Entry:
    """One stored model: its variable names, the key it was stored for,
    and its store sequence number (larger = newer)."""

    __slots__ = ("model", "names", "key", "seq")

    def __init__(self, model: Model, key: Key, seq: int) -> None:
        self.model = model
        self.names: FrozenSet[str] = frozenset(model)
        self.key = key
        self.seq = seq


def _newest(entry: _Entry) -> int:
    return -entry.seq


class SolverCache:
    """The tiered cache described in the module docstring.

    ``lookup`` returns ``(hit, result)`` where ``result`` is a
    :class:`Model` for SAT and ``None`` for UNSAT; ``last_outcome``
    records which tier answered (``"exact"``, ``"cex"``, ``"model"`` or
    ``"miss"``) for trace events.  Every structure is bounded: exact
    entries, stored models and UNSAT index keys are LRU-evicted, and the
    model / subset scans have hard step limits so a lookup can never cost
    more than a small constant multiple of a miss.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_models: int = 256,
        max_model_scan: int = 64,
        max_unsat_entries: int = 4096,
        max_subset_scan: int = 64,
    ) -> None:
        self._exact: "OrderedDict[Key, Optional[Model]]" = OrderedDict()
        # Stored models, oldest first; an equal model stored again keeps
        # its first entry (and object), which moves to the newest end.
        self._entries: "OrderedDict[Model, _Entry]" = OrderedDict()
        # The same entries grouped by variable set, each list oldest
        # first: a query scans only the groups whose set is a subset of
        # its own, so models with foreign variables cost nothing.
        self._by_names: Dict[FrozenSet[str], List[_Entry]] = {}
        self._seq = 0
        # UNSAT subset index: every remembered UNSAT key is filed under
        # ONE representative variable name (its smallest), so a query
        # only scans the buckets of its own variables.
        self._unsat_keys: "OrderedDict[Key, str]" = OrderedDict()
        self._unsat_by_rep: Dict[str, List[Key]] = {}
        self._max_entries = max_entries
        self._max_models = max_models
        self._max_model_scan = max_model_scan
        self._max_unsat_entries = max_unsat_entries
        self._max_subset_scan = max_subset_scan
        self.exact_hits = Counter("solver.cache.hit.exact")
        self.cex_hits = Counter("solver.cache.hit.cex")
        self.model_reuse_hits = Counter("solver.cache.hit.model")
        self.misses = Counter("solver.cache.miss")
        self.stores = Counter("solver.cache.stores")
        self.model_scan_steps = Counter("solver.cache.model_scan_steps")
        self.subset_scan_steps = Counter("solver.cache.subset_scan_steps")
        self.handles = (
            self.exact_hits,
            self.cex_hits,
            self.model_reuse_hits,
            self.misses,
            self.stores,
            self.model_scan_steps,
            self.subset_scan_steps,
        )
        #: how the most recent lookup was answered; read by the solver's
        #: trace instrumentation ("exact"/"cex"/"model"/"miss").
        self.last_outcome = "miss"

    @staticmethod
    def key(constraints: Iterable[BoolExpr]) -> Key:
        """Order-independent cache key for one conjunct group."""
        return frozenset(constraints)

    # -- lookup ---------------------------------------------------------------

    def lookup(
        self,
        key: Key,
        variables: Optional[Iterable[BVVar]] = None,
    ) -> Tuple[bool, Optional[Model]]:
        """Return ``(hit, result)``; result is a Model or None (unsat).

        ``variables``: the query's variable set when the caller knows it
        (the solver passes each independence group's variables).  It
        keys the UNSAT subset index and lets the model scan skip models
        assigning variables outside the query — those came from
        unrelated groups and reusing them would leak unconstrained
        assignments into the merged model.
        """
        result = self._exact.get(key, _MISS)
        if result is not _MISS:
            self._exact.move_to_end(key)
            self.exact_hits.value += 1
            self.last_outcome = "exact"
            return True, result  # type: ignore[return-value]
        query_names = (
            None
            if variables is None
            else frozenset(v.name for v in variables)
        )
        if (
            query_names
            and self._unsat_keys
            and self._unsat_subset(key, query_names)
        ):
            self.cex_hits.value += 1
            self.last_outcome = "cex"
            return True, None
        reused = self._reusable_model(key, query_names)
        if reused is not None:
            self.model_reuse_hits.value += 1
            self.last_outcome = "model"
            return True, reused
        self.misses.value += 1
        self.last_outcome = "miss"
        return False, None

    def _unsat_subset(self, key: Key, query_names: FrozenSet[str]) -> bool:
        """Tier 2: does a remembered UNSAT key prove this query UNSAT?"""
        scanned = 0
        for name in sorted(query_names):
            candidates = self._unsat_by_rep.get(name)
            if not candidates:
                continue
            for candidate in reversed(candidates):  # newest first
                scanned += 1
                if candidate <= key:
                    self.subset_scan_steps.value += scanned
                    return True
                if scanned >= self._max_subset_scan:
                    self.subset_scan_steps.value += scanned
                    return False
        self.subset_scan_steps.value += scanned
        return False

    def _candidates(
        self, query_names: Optional[FrozenSet[str]]
    ) -> Iterator[_Entry]:
        """Stored entries whose variables the query covers, newest first."""
        if query_names is None:
            return reversed(self._entries.values())
        groups = [
            group
            for names, group in self._by_names.items()
            if names <= query_names
        ]
        if len(groups) == 1:
            return reversed(groups[0])
        return heapq.merge(*map(reversed, groups), key=_newest)

    def _reusable_model(
        self, key: Key, query_names: Optional[FrozenSet[str]]
    ) -> Optional[Model]:
        """Tier 3: most recently stored models first, bounded evaluations."""
        evaluated = 0
        for entry in self._candidates(query_names):
            if evaluated >= self._max_model_scan:
                break
            evaluated += 1
            stored_key = entry.key
            # Evaluate only the extras when the stored key is a subset.
            probe = key - stored_key if stored_key <= key else key
            # Verdicts are memoized on the model: iterations of the same
            # loop probe the same models with mostly the same conjuncts.
            if entry.model.satisfies(probe):
                self.model_scan_steps.value += evaluated
                return entry.model
        self.model_scan_steps.value += evaluated
        return None

    # -- store ----------------------------------------------------------------

    def store(self, key: Key, result: Optional[Model]) -> None:
        self.stores.value += 1
        self._exact[key] = result
        self._exact.move_to_end(key)
        while len(self._exact) > self._max_entries:
            self._exact.popitem(last=False)
        if result is not None:
            self._store_model(key, result)
        else:
            self._remember_unsat(key)

    def _store_model(self, key: Key, model: Model) -> None:
        self._seq += 1
        entry = self._entries.get(model)
        if entry is None:
            entry = self._entries[model] = _Entry(model, key, self._seq)
            self._by_names.setdefault(entry.names, []).append(entry)
        else:
            entry.key = key
            entry.seq = self._seq
            self._entries.move_to_end(model)
            group = self._by_names[entry.names]
            group.remove(entry)
            group.append(entry)
        while len(self._entries) > self._max_models:
            _, evicted = self._entries.popitem(last=False)
            group = self._by_names[evicted.names]
            del group[0]  # the oldest entry of its group, too
            if not group:
                del self._by_names[evicted.names]

    def _remember_unsat(self, key: Key) -> None:
        if key in self._unsat_keys:
            return
        representative = min(
            (v.name for c in key for v in c.variables()), default=""
        )
        if not representative:
            return  # ground UNSAT groups never gain from subset proofs
        self._unsat_keys[key] = representative
        self._unsat_by_rep.setdefault(representative, []).append(key)
        while len(self._unsat_keys) > self._max_unsat_entries:
            stale, rep = self._unsat_keys.popitem(last=False)
            bucket = self._unsat_by_rep.get(rep)
            if bucket is not None:
                try:
                    bucket.remove(stale)
                except ValueError:  # pragma: no cover - defensive
                    pass
                if not bucket:
                    del self._unsat_by_rep[rep]

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        self._exact.clear()
        self._entries.clear()
        self._by_names.clear()
        self._unsat_keys.clear()
        self._unsat_by_rep.clear()

    def __len__(self) -> int:
        return len(self._exact)

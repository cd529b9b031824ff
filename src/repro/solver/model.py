"""Models (satisfying assignments) returned by the solver."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..expr import BoolExpr, BVVar, evaluate

__all__ = ["Model"]


class _Values(dict):
    """A model's assignment: an unassigned variable reads as 0."""

    __slots__ = ()

    def __missing__(self, name: str) -> int:
        return 0


class Model:
    """An immutable variable assignment ``name -> unsigned value``.

    Models are *partial*: a variable absent from the mapping is 0.  This
    is the completion rule :meth:`satisfies` has always used, and lookups
    apply it too — the optimizing solver legitimately returns models that
    omit variables (a reused parent model, say, need not mention a new
    conjunct's variables when the zero default already satisfies it).

    The solver guarantees every returned model satisfies the query; the
    :meth:`satisfies` re-check exists for tests and for model reuse in the
    cache (checking whether an old model also satisfies a new query).
    """

    __slots__ = ("_values", "_memo", "_hash")

    def __init__(self, values: Dict[str, int]) -> None:
        self._values = _Values(values)
        # Lazy per-conjunct verdict memo: constraint expr -> bool.  Sound
        # because the assignment is immutable and expressions interned.
        self._memo: Dict[BoolExpr, bool] = {}
        self._hash: Optional[int] = None

    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def get(self, name: str, default: int = 0) -> int:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._values.items()

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def satisfies(self, constraints: Iterable[BoolExpr]) -> bool:
        """True iff every constraint evaluates to true under this model.

        Variables absent from the model default to 0 — the solver only
        assigns variables its query mentions, and any completion of a
        satisfying partial assignment over unmentioned variables also
        satisfies the query.

        Each conjunct's verdict is cached on the model, so re-checking a
        loop iteration's constraint prefix only evaluates the new
        conjuncts (the loop-increment-reuse path).
        """
        env = self._values
        memo = self._memo
        for constraint in constraints:
            verdict = memo.get(constraint)
            if verdict is None:
                verdict = memo[constraint] = bool(evaluate(constraint, env))
            if not verdict:
                return False
        return True

    def restricted_to(self, variables: Iterable[BVVar]) -> "Model":
        names = {v.name for v in variables}
        return Model({k: v for k, v in self._values.items() if k in names})

    def merged_with(self, other: "Model") -> "Model":
        merged = dict(self._values)
        merged.update(other._values)
        return Model(merged)

    def __reduce__(self):
        # Drop the memos from snapshots; they are recomputable.
        return (Model, (dict(self._values),))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Model({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        # Cached: the assignment never changes.
        if self._hash is None:
            self._hash = hash(frozenset(self._values.items()))
        return self._hash

"""Deterministic priority queue for discrete-event simulation.

A thin wrapper over ``heapq`` that (a) breaks ties by insertion sequence so
identical timestamps pop in FIFO order, and (b) supports lazy invalidation —
entries referring to stale work are skipped at pop time.  Determinism is a
hard requirement here: the dscenario-equivalence tests compare COB/COW/SDS
runs event-by-event, which only works if scheduling order is a pure function
of the scenario.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

__all__ = ["EventQueue"]

T = TypeVar("T")


class EventQueue(Generic[T]):
    """A time-ordered queue with FIFO tie-breaking and lazy invalidation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, T]] = []
        self._sequence = itertools.count()

    def push(self, time: int, item: T) -> None:
        heapq.heappush(self._heap, (time, next(self._sequence), item))

    def pop(self, is_valid: Optional[Callable[[int, T], bool]] = None):
        """Pop the earliest valid ``(time, item)``; None when exhausted.

        ``is_valid(time, item)`` filters stale entries (e.g. an execution
        state that died or rescheduled since being enqueued).
        """
        while self._heap:
            time, _, item = heapq.heappop(self._heap)
            if is_valid is None or is_valid(time, item):
                return time, item
        return None

    def entries(self) -> List[Tuple[int, int, T]]:
        """All pending ``(time, seq, item)`` entries in heap order.

        Used by the engine's scheduler snapshot; includes stale entries —
        callers filter with the same validity predicate as :meth:`pop`.
        """
        return sorted(self._heap)

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

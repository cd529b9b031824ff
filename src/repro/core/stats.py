"""Run statistics: state/memory growth sampling (Figure 10's raw data).

The paper samples execution time, number of states and RSS of the KleeNet
process over each run.  We sample the same three series, with memory
reported two ways:

- **accounted bytes** — a deterministic per-state cost model (cells, event
  queue, constraints, history, plus the shared LLVM-bitcode-equivalent
  baseline).  This is the series benchmarks compare across algorithms,
  because Python RSS is noisy and dominated by interpreter overhead.
- **process RSS** — read from ``/proc/self/statm`` when available, as a
  real-machine cross-check.

The cost model intentionally mirrors what drives KleeNet's RSS: duplicate
states pay full price for their private memory image even when their
content is identical — that is exactly the waste COW/SDS remove.

A sample costs O(states touched), not O(states alive): the recorder keeps
the live count and the accounted bytes as running totals.  The engine
calls :meth:`StatsRecorder.touch` on every state it is about to change
and :meth:`StatsRecorder.add` on every state it creates; a sample
re-prices only those.  The first sample of a recorder counts every state
once, which covers the boot states and every restored snapshot, and so
does the first sample after :meth:`StatsRecorder.forget` (a steal donor
releasing the half it shipped).
"""

from __future__ import annotations

import os
import time
from typing import Collection, Dict, Iterable, List, NamedTuple, Tuple

from ..vm.state import ExecutionState

__all__ = ["Sample", "StatsRecorder", "estimate_state_bytes", "process_rss_bytes"]

#: Fixed per-state overhead (bookkeeping structures), in bytes.
STATE_BASE_COST = 256
#: Cost per guest memory cell (value + slot).
CELL_COST = 8
#: Cost per pending event.
EVENT_COST = 48
#: Cost per path-constraint entry (amortized DAG nodes are shared/interned).
CONSTRAINT_COST = 64
#: Cost per communication-history entry.
HISTORY_COST = 24
#: Shared baseline: the loaded program image (KleeNet's "LLVM bytecode"
#: load shows as the initial jump in Figure 10's memory plots).
PROGRAM_IMAGE_COST_PER_INSTRUCTION = 96


class Sample(NamedTuple):
    """One point of the Figure-10 time series."""

    wall_seconds: float
    virtual_ms: int
    events_executed: int
    live_states: int
    total_states: int
    accounted_bytes: int
    rss_bytes: int
    groups: int


def estimate_state_bytes(state: ExecutionState) -> int:
    """Deterministic memory footprint of one execution state."""
    return (
        STATE_BASE_COST
        + CELL_COST * len(state.memory)
        + EVENT_COST * len(state.events)
        + CONSTRAINT_COST * len(state.constraints)
        + HISTORY_COST * len(state.history)
    )


#: Bytes per page, for the resident page count ``/proc/self/statm`` reports.
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 0


def process_rss_bytes() -> int:
    """Resident set size of this process; 0 if unavailable.

    One read of ``/proc/self/statm``, whose second field is the resident
    page count (the figure ``/proc/self/status`` shows as ``VmRSS``).
    """
    try:
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            fields = os.read(fd, 256).split()
        finally:
            os.close(fd)
    except OSError:
        return 0
    return int(fields[1]) * _PAGE_SIZE


def _price(states: Iterable[ExecutionState]) -> Tuple[int, int]:
    """``(live states, accounted bytes)`` of ``states``, image cost excluded."""
    live = 0
    accounted = 0
    for state in states:
        accounted += estimate_state_bytes(state)
        if state.is_active():
            live += 1
    return live, accounted


class StatsRecorder:
    """Collects the growth time series during an engine run.

    Between samples the running totals ``_live`` and ``_accounted`` leave
    out every state in ``_dirty``: :meth:`touch` subtracts a state's cost
    once per sampling window, :meth:`record` adds the state's new cost
    back.  A state that is neither touched nor added must not change.
    """

    def __init__(
        self,
        program_instructions: int,
        sample_every_events: int = 64,
    ) -> None:
        self.samples: List[Sample] = []
        self._started = time.perf_counter()
        self._image_cost = (PROGRAM_IMAGE_COST_PER_INSTRUCTION * program_instructions)
        self._sample_every = max(1, sample_every_events)
        self._last_sampled_at = -1
        self._live = 0
        self._accounted = 0
        self._dirty: Dict[int, ExecutionState] = {}
        self._counted = False

    def should_sample(self, events_executed: int) -> bool:
        if self._last_sampled_at < 0:
            return True
        return events_executed - self._last_sampled_at >= self._sample_every

    def touch(self, state: ExecutionState) -> None:
        """``state`` is about to change: price it again at the next sample."""
        dirty = self._dirty
        if state.sid not in dirty:
            dirty[state.sid] = state
            self._accounted -= estimate_state_bytes(state)
            if state.is_active():
                self._live -= 1

    def add(self, state: ExecutionState) -> None:
        """``state`` is new: count it from the next sample on."""
        self._dirty[state.sid] = state

    def forget(self) -> None:
        """States left the engine: count every state again at the next sample."""
        self._counted = False
        self._dirty = {}

    def recount(self, states: Iterable[ExecutionState]) -> Tuple[int, int]:
        """``(live states, accounted bytes)`` of ``states`` by a full pass."""
        live, accounted = _price(states)
        return live, self._image_cost + accounted

    def record(
        self,
        states: Collection[ExecutionState],
        virtual_ms: int,
        events_executed: int,
        groups: int,
    ) -> Sample:
        """Sample the run; ``states`` is every state the engine counts.

        The first sample counts ``states`` in full; every later one prices
        only the states touched or added since the sample before.
        """
        if self._counted:
            live, accounted = _price(self._dirty.values())
            live += self._live
            accounted += self._accounted
        else:
            live, accounted = self.recount(states)
            self._counted = True
        self._live = live
        self._accounted = accounted
        self._dirty = {}
        sample = Sample(
            wall_seconds=time.perf_counter() - self._started,
            virtual_ms=virtual_ms,
            events_executed=events_executed,
            live_states=live,
            total_states=len(states),
            accounted_bytes=accounted,
            rss_bytes=process_rss_bytes(),
            groups=groups,
        )
        self.samples.append(sample)
        self._last_sampled_at = events_executed
        return sample

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def peak_states(self) -> int:
        return max((s.total_states for s in self.samples), default=0)

    def peak_accounted_bytes(self) -> int:
        return max((s.accounted_bytes for s in self.samples), default=0)

"""One engine snapshot for every cut: checkpoints, distributed jobs, steals.

A run can be cut at any event boundary: every state is quiescent and the
scheduler's pending ``(time, sid)`` entries are exact.  Three things cut a
run, and all three ship the same picklable :class:`EngineSnapshot`:

- a **checkpoint** (:mod:`repro.core.resilience`) captures every mapper
  group plus the run's counters and trace so far, so the resumed report
  equals the uninterrupted one;
- the distributed runner's **initial cut** captures one snapshot per
  bundle of partitions
  (:func:`repro.core.distributed.snapshot_assignment_tasks`);
- a **steal split** is the same cut, taken inside a worker.

Cut snapshots carry no counters: a worker reports only the flow of its
own slice, and the merge adds the prefix's.  Each snapshot holds the
scheduler entries of its own states only, so restoring it re-seeds the
sequential pop order of exactly that subtree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..lang.bytecode import CompiledProgram
from ..net.packet import ensure_packet_ids_above, packet_id_watermark
from ..net.topology import Topology
from ..obs.events import TraceEmitter
from ..vm.state import ensure_state_ids_above, state_id_watermark
from .config import EngineConfig
from .engine import SDEEngine
from .scenario import make_mapper

__all__ = ["EngineSnapshot"]


@dataclass
class EngineSnapshot:
    """A mid-run engine's frontier, restorable into a fresh engine."""

    algorithm: str
    program: CompiledProgram
    topology: Topology
    config: EngineConfig
    mapper_payload: object
    scheduler_entries: List[Tuple[int, int]]
    clock_now: int
    state_watermark: int
    packet_watermark: int
    broadcast_watermark: int
    #: ``None`` when the run is untraced; otherwise the trace so far (empty
    #: for a cut: the coordinator already holds the prefix's events)
    trace: Optional[List[dict]]
    #: the run's counters so far; checkpoints only, ``None`` for a cut
    counters: Optional[dict] = None

    @classmethod
    def capture(
        cls,
        engine: SDEEngine,
        groups: Optional[Iterable[int]] = None,
        scheduler_entries: Optional[List[Tuple[int, int]]] = None,
        config: Optional[EngineConfig] = None,
        with_counters: bool = False,
    ) -> "EngineSnapshot":
        """Snapshot ``groups`` (default: all) of ``engine`` at this boundary.

        ``scheduler_entries`` must be the entries of exactly those groups'
        states (default: the whole scheduler); a cut captures the scheduler
        once and filters it per snapshot.  ``config`` replaces the engine's
        own config in the snapshot.
        """
        mapper = engine.mapper
        if groups is None:
            groups = range(mapper.group_count())
        if scheduler_entries is None:
            scheduler_entries = engine.scheduler_snapshot()
        trace = None
        if engine.trace is not None:
            trace = list(engine.trace.events) if with_counters else []
        return cls(
            algorithm=mapper.name,
            program=engine.program,
            topology=engine.topology,
            config=engine.config if config is None else config,
            mapper_payload=mapper.snapshot_groups(groups),
            scheduler_entries=scheduler_entries,
            clock_now=engine.clock.now,
            state_watermark=state_id_watermark(),
            packet_watermark=packet_id_watermark(),
            broadcast_watermark=next(engine._broadcast_ids),
            trace=trace,
            counters=_capture_counters(engine) if with_counters else None,
        )

    def restore(self, trace: Optional[TraceEmitter] = None) -> SDEEngine:
        """Build a fresh engine that continues exactly where this left off.

        The engine gets its own solver and a fresh mapper of the run's
        algorithm.  Id counters are advanced past the captured watermarks so
        locally created states, packets and broadcasts never collide with
        shipped ones.  ``trace`` receives the trace so far, if any.
        """
        mapper = make_mapper(self.algorithm)
        engine = SDEEngine(
            self.program, self.topology, mapper, self.config, trace=trace
        )
        engine._started = True  # the boot states live in the payload
        mapper.restore_groups(self.mapper_payload)
        for group in mapper.groups():
            for states in group.values():
                for state in states:
                    engine.states[state.sid] = state
        engine.clock.advance_to(self.clock_now)
        for event_time, sid in self.scheduler_entries:
            engine.scheduler.push(event_time, sid)
        ensure_state_ids_above(self.state_watermark)
        ensure_packet_ids_above(self.packet_watermark)
        engine._broadcast_ids = itertools.count(self.broadcast_watermark + 1)
        counters = self.counters
        if counters is not None:
            # Reinstall the counter baselines so the final report matches.
            engine.metrics.install(counters["registry"])
            engine.events_executed = counters["events_executed"]
            engine.executor.instructions_executed = counters["instructions"]
            engine.checkpoints_written = counters["checkpoints_written"]
            engine.stats.samples = list(counters["samples"])
            engine.stats._last_sampled_at = counters["events_executed"]
        if trace is not None and self.trace:
            trace.extend(self.trace)
        return engine


def _capture_counters(engine: SDEEngine) -> dict:
    """The engine registry's snapshot (counters and phase timers) plus
    the run totals and growth samples that ride beside it."""
    return {
        "registry": engine.metrics.snapshot(),
        "events_executed": engine.events_executed,
        "instructions": engine.executor.instructions_executed,
        "checkpoints_written": engine.checkpoints_written,
        "samples": list(engine.stats.samples),
    }

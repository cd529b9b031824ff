"""The structured event trace: typed events, JSONL in and out.

Every interesting action of an SDE run can be emitted as one flat dict —
an *event* — through a :class:`TraceEmitter`.  The design constraints:

- **Low overhead when on** — one dict and one list append per event; no
  wall-clock reads (virtual time is deterministic and free), no
  serialization until :meth:`TraceEmitter.dump`.
- **Zero overhead when off** — tracing is off when the engine's ``trace``
  attribute is ``None``; every instrumentation site guards with
  ``if trace is not None:`` so the disabled path costs a pointer compare
  and allocates nothing (``tests/obs/test_events.py`` pins this down with
  ``tracemalloc``).
- **Deterministic modulo volatile fields** — two runs of the same scenario
  produce the same event multiset once the fields in
  :data:`VOLATILE_FIELDS` are dropped.  State/packet ids are volatile
  (id counters are process-global and scheduling-host dependent); node
  ids, virtual times, reasons and statuses are not.

Event vocabulary (the ``ev`` field) and their non-volatile payloads are
listed in :data:`EVENT_SCHEMA`; ``worker.*`` and ``run.*`` events describe
the run *harness* rather than the simulated system and are excluded from
semantic trace comparison (:data:`META_EVENT_PREFIXES`).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

__all__ = [
    "EVENT_SCHEMA",
    "META_EVENT_PREFIXES",
    "VOLATILE_FIELDS",
    "TraceEmitter",
    "load_trace",
]

#: Fields whose values legitimately differ between equivalent runs:
#: bookkeeping sequence numbers, worker placement, wall-clock readings,
#: process-global id-counter values, and cache-dependent outcomes.
VOLATILE_FIELDS = frozenset(
    [
        "seq",
        "worker",
        "wall",
        "sid",
        "pid",
        "parent",
        "child",
        "vid",
        "outcome",
    ]
)

#: Events whose *presence* depends on the harness (worker count, split
#: point, checkpoint cadence, injected faults), not on the simulated
#: system.  ``solver.*`` qualifies too: how many queries reach the
#: backend — and what each looks like after canonicalization — depends on
#: per-process memo and cache state, while the *verdicts* (and hence all
#: semantic events) do not.  The trace-diff tool skips them.
META_EVENT_PREFIXES = (
    "worker.",
    "run.",
    "checkpoint.",
    "solver.",
    "reduce.",
    "service.",
)

#: ``ev`` -> required non-volatile fields.  The schema is deliberately
#: flat: one JSON object per line, primitive values only.
EVENT_SCHEMA: Dict[str, frozenset] = {
    # state lifecycle
    "state.fork": frozenset(["node", "t", "reason"]),
    "state.terminate": frozenset(["node", "t", "status"]),
    "state.reboot": frozenset(["node", "t"]),
    # packet lifecycle
    "packet.send": frozenset(["src", "dest", "t", "bcast"]),
    "packet.deliver": frozenset(["node", "src", "t"]),
    # network medium
    "net.unicast": frozenset(["src", "dest", "delivered"]),
    "net.broadcast": frozenset(["src", "targets"]),
    # realistic medium only: a link-level loss or queue-full tail drop
    # (semantic, not meta — drops are pure functions of the run seed, so
    # every harness produces the same multiset)
    "net.drop": frozenset(["src", "dest", "reason"]),
    # state mapping
    "mapper.copy": frozenset(["node", "t", "kind", "role"]),
    # solver
    "solver.query": frozenset(["conjuncts", "result"]),
    "solver.cache": frozenset([]),  # outcome field is volatile
    # harness (meta events, skipped by semantic diff)
    "run.start": frozenset(["algorithm"]),
    "run.end": frozenset(["algorithm", "events"]),
    "worker.partition.start": frozenset(["partitions", "states"]),
    "worker.merge": frozenset(["workers"]),
    # distributed execution (meta: depth cuts, job flow and work-stealing
    # depend on worker count and timing, never on the simulated system)
    "worker.partition.deepen": frozenset(["events", "partitions"]),
    "worker.job.dispatch": frozenset(["job", "attempt"]),
    "worker.job.done": frozenset(["job"]),
    "worker.steal.request": frozenset(["victim"]),
    "worker.steal.grant": frozenset(["job", "states"]),
    "worker.steal.deny": frozenset(["job"]),
    # symmetry/POR reduction (meta: pruning decisions depend on seen-set
    # arrival order, which worker split points perturb; verdict equality
    # is pinned separately, not via trace diff)
    "reduce.prune": frozenset(["node", "t"]),
    "reduce.sleep": frozenset(["node", "t"]),
    "reduce.wake": frozenset(["node", "t"]),
    "reduce.disabled": frozenset(["reason"]),
    # resilience (meta events: fault injection / recovery is harness-side)
    "worker.crash": frozenset(["task", "kind"]),
    "worker.retry": frozenset(["task", "attempt"]),
    "checkpoint.write": frozenset(["events"]),
    "checkpoint.resume": frozenset(["events"]),
    "checkpoint.discarded": frozenset(["reason"]),
    # job service (meta: admission, supervision and drain decisions are
    # harness-side; job ids are content-digest prefixes + random suffixes)
    "service.submit": frozenset(["workload", "algorithm", "dedup"]),
    "service.reject": frozenset(["reason"]),
    "service.job.start": frozenset(["job", "attempt"]),
    "service.job.retry": frozenset(["job", "attempt"]),
    "service.job.done": frozenset(["job", "state"]),
    "service.drain": frozenset(["active", "queued"]),
    "service.recover": frozenset(["jobs"]),
}


class TraceEmitter:
    """Accumulates events in memory; serializes to JSONL on demand.

    ``worker`` tags every emitted event with the worker index (parallel
    runs); the main process leaves it unset.  The emitter is *truthy* so
    instrumentation sites can use ``if trace:`` — the disabled form is
    ``None``, never a disabled emitter, keeping the off path allocation
    free.
    """

    __slots__ = ("events", "worker", "_seq")

    def __init__(self, worker: Optional[int] = None) -> None:
        self.events: List[dict] = []
        self.worker = worker
        self._seq = 0

    def emit(self, ev: str, **fields) -> None:
        """Record one event.  ``fields`` must be JSON-primitive values."""
        fields["ev"] = ev
        fields["seq"] = self._seq
        self._seq += 1
        if self.worker is not None:
            fields["worker"] = self.worker
        self.events.append(fields)

    def extend(self, events: Iterable[dict]) -> None:
        """Append already-built events (merging a worker's trace)."""
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return True

    def dump(self, path) -> None:
        """Write the trace as JSON Lines (one event object per line).

        The write is atomic (temp file + rename): a run killed during the
        dump leaves either the previous trace or the complete new one.
        """
        from .fileio import atomic_write_text

        lines = [json.dumps(event, sort_keys=True) for event in self.events]
        lines.append("")  # trailing newline
        atomic_write_text(path, "\n".join(lines))


def load_trace(path) -> List[dict]:
    """Read a JSONL trace written by :meth:`TraceEmitter.dump`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events

"""The job worker subprocess: SDE runs, streamed and checkpointed.

Each attempt at a job runs here, in a long-lived child process: the job
manager hands attempts to the distributed runner's
:class:`~repro.core.distributed.Coordinator`, whose
:class:`~repro.core.distributed.MultiprocessTransport` forks one
:func:`job_worker_main` per worker slot, with the slot's first attempt
as its fork argument; the worker then serves every later attempt sent
to its slot.  Per attempt, the worker:

- rebuilds the scenario from the submission spec (workload registry);
- runs the engine with service-owned checkpointing into the job dir, so
  a killed attempt leaves a resumable checkpoint behind;
- **streams** the event trace: every emitted event is appended to
  ``trace.jsonl`` immediately (line-buffered JSONL), which is what makes
  ``GET /v1/runs/{id}/trace`` live rather than post-hoc;
- on a retry or a service restart, *resumes from the latest checkpoint*
  instead of starting over — the resumed report is pinned equal to an
  uninterrupted run on every deterministic field.  A checkpoint it cannot
  read (corrupt, or from a build with another checkpoint version) is
  discarded with a ``checkpoint.discarded`` event and the job starts
  fresh, which gives the same report because runs are deterministic;
- writes ``report.json`` atomically and replies with a small summary
  dict on its reply pipe (or a typed
  :class:`~repro.core.resilience.WorkerFailure` on error).

**Chaos.**  :func:`chaos_kill_after` decides per (job, attempt) whether
this worker dies (seeded coin over ``SDE_CHAOS_KILL_WORKER``, see
:func:`repro.core.resilience.chaos_kill_requested`) and after how many
trace events.  The worker then ``os._exit``\\ s mid-run once that many
events have streamed — after data has hit the trace file and (usually) a
checkpoint has hit disk, which is exactly the crash the resume path must
survive.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, Optional

from ..core.distributed import serve_jobs
from ..core.resilience import (
    CheckpointError,
    WorkerFailure,
    chaos_kill_requested,
    resume_engine,
)
from ..core.scenario import build_engine
from ..lang.bytecode import CompiledProgram
from ..lang.compiler import compile_source
from ..obs.events import TraceEmitter
from .spec import SubmissionSpec

__all__ = [
    "ScenarioBuildError",
    "StreamingTraceEmitter",
    "chaos_kill_after",
    "compiled_program",
    "execute_job",
    "job_worker_main",
]


#: one encoder for every streamed line: ``json.dumps(event,
#: sort_keys=True)`` builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True)


class StreamingTraceEmitter(TraceEmitter):
    """A TraceEmitter that writes each event through to a JSONL file.

    The in-memory event list stays authoritative (checkpoints serialize
    it); the file is a write-through mirror flushed per event so an
    ``os._exit`` or SIGKILL loses nothing that was emitted.  ``kill_after``
    implements the chaos gate's mid-run worker death: the process exits
    hard once that many events have been streamed.
    """

    __slots__ = ("_handle", "_streamed", "kill_after")

    def __init__(self, path, kill_after: Optional[int] = None) -> None:
        super().__init__()
        # "w": a retry owns the whole file — its resumed trace replays the
        # checkpointed prefix, so appending would duplicate events.
        self._handle = open(path, "w", encoding="utf-8")
        self._streamed = 0
        self.kill_after = kill_after

    def emit(self, ev: str, **fields) -> None:
        super().emit(ev, **fields)
        self._stream(self.events[-1])

    def extend(self, events) -> None:
        events = list(events)
        super().extend(events)
        for event in events:
            self._stream(event)

    def _stream(self, event: dict) -> None:
        self._handle.write(_ENCODER.encode(event) + "\n")
        self._handle.flush()
        self._streamed += 1
        if self.kill_after is not None and self._streamed >= self.kill_after:
            os._exit(137)  # chaos: die like an OOM kill, mid-run

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


#: program source -> compiled program, for the life of the process: the
#: job manager compiles built-in workloads' programs here before a worker
#: forks, so the worker inherits them, and a worker compiles any other
#: program once and keeps it for its later attempts
_PROGRAMS: Dict[str, CompiledProgram] = {}


def compiled_program(source: str) -> CompiledProgram:
    """``source`` compiled, once per process."""
    program = _PROGRAMS.get(source)
    if program is None:
        program = _PROGRAMS[source] = compile_source(source)
    return program


class ScenarioBuildError(Exception):
    """The spec's scenario does not build; ``__cause__`` is the error.

    The spec is the same on every attempt, so the job fails on the first.
    """


def execute_job(payload: dict) -> dict:
    """Run one job attempt to completion in this process.

    ``payload`` carries the spec dict plus the service-owned paths and
    cadence::

        {"spec": {...}, "trace_path": ..., "report_path": ...,
         "checkpoint_path": ..., "checkpoint_every": 500,
         "kill_after": None | int}

    ``checkpoint_every`` is ``ServiceLimits.checkpoint_every_events``
    (default ``DEFAULT_CHECKPOINT_EVERY_EVENTS``, 500): a job shorter
    than that writes no checkpoint, so a killed or drained attempt of it
    runs again from the start.

    The scenario's guest program comes from :func:`compiled_program`, so
    a process compiles each program once, however many attempts run it.

    Returns the summary dict the job manager stores on the record.
    """
    spec = SubmissionSpec.from_dict(payload["spec"])
    checkpoint_path = payload["checkpoint_path"]
    trace = StreamingTraceEmitter(
        payload["trace_path"], kill_after=payload.get("kill_after")
    )
    try:
        engine = None
        if os.path.exists(checkpoint_path):
            # A previous attempt (or a previous service life) left a
            # checkpoint: continue it rather than redoing the work.  The
            # resumed report is pinned equal to an uninterrupted run.
            try:
                engine = resume_engine(
                    checkpoint_path,
                    trace=trace,
                    checkpoint_path=checkpoint_path,
                    checkpoint_every_events=payload["checkpoint_every"],
                )
            except CheckpointError as exc:
                # Unreadable now means unreadable on every retry too.
                trace.emit("checkpoint.discarded", reason=str(exc))
        resumed = engine is not None
        if engine is None:
            try:
                scenario = spec.build_scenario()
            except Exception as exc:
                raise ScenarioBuildError() from exc
            if isinstance(scenario.program, str):
                scenario.program = compiled_program(scenario.program)
            engine = build_engine(
                scenario,
                spec.algorithm,
                trace=trace,
                checkpoint_path=checkpoint_path,
                checkpoint_every_events=payload["checkpoint_every"],
                **spec.engine_overrides(),
            )
        report = engine.run()
        from ..core.reporting import save_report

        save_report(report, payload["report_path"])
        return {
            "ok": True,
            "events_executed": report.events_executed,
            "total_states": report.total_states,
            "error_states": len(report.error_states),
            "aborted": report.aborted,
            "abort_reason": report.abort_reason,
            "resumed": resumed,
            "checkpoints_written": report.checkpoints_written,
            "trace_events": len(trace),
        }
    finally:
        trace.close()


def chaos_kill_after(job_id: str, attempt: int) -> Optional[int]:
    """Chaos: should this attempt die mid-run, and after how many trace
    events?  A pure function of (job, attempt), so the worker that dies
    and the manager that counts planned kills always agree."""
    if not chaos_kill_requested(attempt, token=f"svc:{job_id}"):
        return None
    # Spread across the whole run: early kills exercise the fresh-restart
    # path, late kills (past the first checkpoint) exercise resume.  A
    # kill point beyond the run's trace length simply never fires — chaos
    # is best-effort by design.
    return random.Random(f"svc-kill:{job_id}:{attempt}").randrange(0, 96)


def job_worker_main(worker_index: int, inbox, outbox, message: tuple) -> None:
    """Transport worker entry: serve job attempts until the service is gone.

    The first attempt arrives as the fork argument ``message``, every
    later one on the inbox (:func:`~repro.core.distributed.serve_jobs`).
    Between attempts the process keeps only its interpreter, its imports,
    its compiled programs and the module interning tables; each attempt
    builds its own engine, solver and trace.  Failures travel as typed
    :class:`WorkerFailure` records, never bare pickled exceptions.
    """

    def run_attempt(message: tuple, _poll_steal) -> None:
        _, job_id, payload, attempt = message
        payload = dict(
            payload, kill_after=chaos_kill_after(payload["job"], attempt)
        )
        try:
            reply = ("done", worker_index, job_id, execute_job(payload))
        except ScenarioBuildError as exc:
            failure = WorkerFailure.from_exception(
                job_id, exc.__cause__, retryable=False
            )
            reply = ("fail", worker_index, job_id, failure)
        except BaseException as exc:  # noqa: BLE001 - classified for the parent
            failure = WorkerFailure.from_exception(job_id, exc)
            reply = ("fail", worker_index, job_id, failure)
        outbox.send(reply)

    serve_jobs(worker_index, inbox, outbox, message, run_attempt)

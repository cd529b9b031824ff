"""The job manager: admission control, retry, budgets, drain, recover.

The long-lived front half of the service.  Attempts run on the
distributed runner's :class:`~repro.core.distributed.Coordinator`, the
one worker supervisor, over a
:class:`~repro.core.distributed.MultiprocessTransport` of long-lived
workers (:func:`~repro.service.worker.job_worker_main`): a worker is
forked on the first dispatch to its slot and serves every later attempt
sent there, until it dies, is cancelled, times out or the service
drains (``service.workers.started`` counts the forks).  What lives
here:

- **Backpressure** — a bounded admission queue (HTTP 429 once full, with
  a Retry-After hint) and a per-client live-job cap, so one hot client
  cannot starve the rest or balloon memory.
- **Supervision** — one asyncio loop takes a non-blocking coordinator
  step per pass and maps its lifecycle events onto store transitions,
  metrics and ``service.job.*`` events.  Between passes it sleeps until
  something happens: a busy worker's reply pipe turns readable (a reply,
  or end-of-file when the worker dies), a submission or cancellation
  kicks it, or the next deadline comes — a retry's backoff or a job's
  wall budget.  There is no poll interval.  The coordinator detects dead
  workers and records failures as typed
  :class:`~repro.core.resilience.WorkerFailure` records on the job.
- **Retry** — the coordinator requeues crashed/raising attempts behind
  the deterministic backoff of :class:`~repro.core.resilience.RetryPolicy`;
  retries *resume from the job's latest checkpoint*, so work done before
  a crash is never redone and the final report is pinned equal to a
  fault-free run.
- **Budgets** — an optional per-job wall budget spanning all attempts;
  exceeding it cancels the attempt and is the terminal ``timeout`` state,
  not a retry.
- **Graceful drain** — on SIGTERM the service stops admitting, kills the
  in-flight workers (their checkpoints are already on disk), marks their
  records back to ``queued``/interrupted, and exits; the next boot
  recovers every non-terminal record and resumes from checkpoints.
- **Dedup** — submissions are content-addressed
  (:meth:`~repro.service.spec.SubmissionSpec.digest`); a digest already
  ``done`` in the store is answered from the cache, one still in flight
  coalesces onto the live job.

All coordination state lives on one asyncio loop — no locks; the only
concurrency is worker subprocesses and the store's atomic file writes.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.config import DEFAULT_CHECKPOINT_EVERY_EVENTS, check_checkpoint_cadence
from ..core.distributed import Coordinator, MultiprocessTransport
from ..core.resilience import RetryPolicy, WorkerFailure
from ..lang.bytecode import CompiledProgram
from ..obs.metrics import MetricsRegistry
from .spec import SubmissionSpec
from .store import JobRecord, RunStore
from .worker import chaos_kill_after, compiled_program, job_worker_main

__all__ = [
    "AdmissionError",
    "ClientCapExceeded",
    "Draining",
    "JobManager",
    "QueueFull",
    "ServiceLimits",
]


@dataclass(frozen=True)
class ServiceLimits:
    """Every robustness knob of the service, in one frozen object."""

    #: queued (not yet running) submissions the service will hold
    max_queue: int = 64
    #: jobs executing concurrently (each is one worker subprocess)
    max_active: int = 2
    #: live (queued+running) jobs any one client may hold
    per_client: int = 8
    #: per-job wall budget across all attempts; None = unbudgeted
    job_timeout_seconds: Optional[float] = None
    #: retries after the first attempt (total attempts = max_retries + 1)
    max_retries: int = 2
    #: engine checkpoint cadence inside job workers, in executed events
    checkpoint_every_events: int = DEFAULT_CHECKPOINT_EVERY_EVENTS
    #: first-retry backoff (doubles per retry, seeded jitter on top)
    backoff_base_seconds: float = 0.05

    def __post_init__(self) -> None:
        # Refuse a cadence at boot, not in every job's worker.
        check_checkpoint_cadence(self.checkpoint_every_events)

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_base_seconds=self.backoff_base_seconds,
        )


class AdmissionError(Exception):
    """A submission was refused; ``reason`` keys the obs counter."""

    reason = "rejected"
    #: suggested client backoff, surfaced as HTTP Retry-After
    retry_after_seconds = 1.0


class QueueFull(AdmissionError):
    reason = "queue_full"


class ClientCapExceeded(AdmissionError):
    reason = "client_cap"


class Draining(AdmissionError):
    reason = "draining"
    retry_after_seconds = 5.0


class _ActiveJob:
    """A job handed to the coordinator: its record, its coordinator job
    number, and its wall-budget deadline (``None`` when unbudgeted)."""

    __slots__ = ("record", "job", "deadline")

    def __init__(self, record: JobRecord, job: int, deadline) -> None:
        self.record = record
        self.job = job
        self.deadline = deadline


class JobManager:
    """Owns the queue, the active set, and every job state transition."""

    def __init__(
        self,
        store: RunStore,
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace=None,
    ) -> None:
        self.store = store
        self.limits = limits or ServiceLimits()
        self.metrics = metrics or MetricsRegistry()
        self.trace = trace
        # Workers are forked on the first dispatch to their slot.
        self.transport = MultiprocessTransport(
            self.limits.max_active,
            job_worker_main,
            started=self.metrics.counter("service.workers.started"),
        )
        self.coordinator = Coordinator(
            self.transport, [], self.limits.retry_policy(), steal=False
        )
        self.draining = False
        self.queue: Deque[str] = deque()
        #: coordinator job number -> the job it runs
        self.active: Dict[int, _ActiveJob] = {}
        #: digest -> live (queued or running) job id, for coalescing
        self._live_digests: Dict[str, str] = {}
        self._client_load: Dict[str, int] = {}
        self._wake = asyncio.Event()
        #: reply descriptors the scheduler's sleep is watching
        self._watched: List[int] = []
        self._scheduler_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Recover interrupted jobs from the store; start the scheduler."""
        recovered = 0
        for record in self.store.interrupted_records():
            self.store.mark(record, "queued", interrupted=True)
            self._admit_live(record)
            recovered += 1
        if recovered:
            self.metrics.counter("service.recovered").inc(recovered)
            self._emit("service.recover", jobs=recovered)
        self._scheduler_task = asyncio.create_task(self._scheduler())
        self._kick()
        return recovered

    async def drain(self) -> Tuple[int, int]:
        """Stop admitting, checkpoint-and-park in-flight jobs, settle.

        Returns ``(parked_running, still_queued)``.  Running workers are
        terminated — their latest checkpoint is already durable on disk —
        and their records marked back to ``queued``/interrupted so the
        next boot resumes them.  Queued records simply stay queued in the
        store.
        """
        if self.draining:
            return 0, len(self.queue)
        self.draining = True
        parked = len(self.active)
        self._emit("service.drain", active=parked, queued=len(self.queue))
        self.metrics.counter("service.drained").inc(1)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        self.transport.stop()
        for active in self.active.values():
            # Parked, not terminal: back to queued for the next service
            # life, checkpoint already on disk.
            self.store.mark(active.record, "queued", interrupted=True)
        self.active.clear()
        return parked, len(self.queue)

    # -- admission -----------------------------------------------------------

    def submit(
        self, spec: SubmissionSpec, client: str = "anon"
    ) -> Tuple[JobRecord, str]:
        """Admit one submission.

        Returns ``(record, disposition)`` where disposition is ``"fresh"``
        (a new job was queued), ``"cached"`` (a done run with the same
        digest was served from the store), or ``"coalesced"`` (an
        identical submission is already live; the caller shares it).
        Raises :class:`AdmissionError` subclasses on refusal.
        """
        if self.draining:
            self._reject(Draining)
        digest = spec.digest()

        live_id = self._live_digests.get(digest)
        if live_id is not None:
            record = self.store.load(live_id)
            if record is not None and not record.terminal:
                self.metrics.counter("service.dedup.coalesced").inc(1)
                self._emit_submit(spec, dedup="coalesced")
                return record, "coalesced"
            self._live_digests.pop(digest, None)

        cached_id = self.store.lookup_digest(digest)
        if cached_id is not None:
            record = self.store.load(cached_id)
            if record is not None:
                self.metrics.counter("service.dedup.cached").inc(1)
                self._emit_submit(spec, dedup="cached")
                return record, "cached"

        if len(self.queue) >= self.limits.max_queue:
            self._reject(QueueFull)
        if self._client_load.get(client, 0) >= self.limits.per_client:
            self._reject(ClientCapExceeded)

        record = self.store.allocate(spec, client)
        self._admit_live(record)
        self.metrics.counter("service.submitted").inc(1)
        self._emit_submit(spec, dedup="none")
        self._kick()
        return record, "fresh"

    def _admit_live(self, record: JobRecord) -> None:
        self.queue.append(record.id)
        self._live_digests[record.digest] = record.id
        self._client_load[record.client] = (
            self._client_load.get(record.client, 0) + 1
        )

    def _reject(self, error_type) -> None:
        self.metrics.counter(f"service.rejected.{error_type.reason}").inc(1)
        self._emit("service.reject", reason=error_type.reason)
        raise error_type()

    # -- cancellation ---------------------------------------------------------

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a queued or running job; terminal jobs are left alone."""
        record = self.store.load(job_id)
        if record is None:
            return None
        if record.terminal:
            return record
        for active in self.active.values():
            if active.record.id == job_id:
                # The cancel closes the worker's reply pipe: stop watching
                # it first (the scheduler re-arms on the kick that follows).
                self._unwatch()
                self.coordinator.cancel(active.job)
                return self._finish(active, "cancelled")
        if job_id in self.queue:
            self.queue.remove(job_id)
            record = self.store.mark(record, "cancelled")
            self._settle_live(record)
            self._finish_metrics(record)
        return record

    # -- scheduling -----------------------------------------------------------

    def _kick(self) -> None:
        self._wake.set()

    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # Cleared first, so a job that ends in this pass starts the
            # next queued one at once rather than after a sleep.
            self._wake.clear()
            self._start_queued()
            for kind, job, detail in self.coordinator.step(0.0):
                self._on_event(kind, self.active[job], detail)
            self._enforce_budgets()
            self._watch()
            deadline = self._next_deadline()
            timer = None
            if deadline is not None:
                delay = max(0.0, deadline - time.monotonic())
                timer = loop.call_later(delay, self._wake.set)
            try:
                await self._wake.wait()
            finally:
                if timer is not None:
                    timer.cancel()
                self._unwatch()

    def _watch(self) -> None:
        """Wake on every busy worker's reply pipe: a reply or its death.

        Only busy workers are watched: an idle worker's pipe stays silent
        while it waits for its next attempt, and if the worker dies
        meanwhile, its end-of-file is left for the next dispatch to it,
        so it never spins the loop.
        """
        loop = asyncio.get_running_loop()
        for worker in range(self.transport.worker_count):
            if worker in self.coordinator.idle:
                continue
            fd = self.transport.reply_fd(worker)
            if fd is not None:
                loop.add_reader(fd, self._wake.set)
                self._watched.append(fd)

    def _unwatch(self) -> None:
        if self._watched:
            loop = asyncio.get_running_loop()
            for fd in self._watched:
                loop.remove_reader(fd)
            self._watched = []

    def _next_deadline(self) -> Optional[float]:
        """The coordinator's next deadline or the nearest job wall budget."""
        due = [a.deadline for a in self.active.values() if a.deadline is not None]
        coordinator_due = self.coordinator.next_deadline()
        if coordinator_due is not None:
            due.append(coordinator_due)
        return min(due, default=None)

    def _start_queued(self) -> None:
        while (
            self.queue
            and len(self.active) < self.limits.max_active
            and not self.draining
        ):
            record = self.store.load(self.queue.popleft())
            if record is None or record.terminal:
                continue
            payload = {
                "job": record.id,
                "spec": record.spec.as_dict(),
                "trace_path": self.store.trace_path(record.id),
                "report_path": self.store.report_path(record.id),
                "checkpoint_path": self.store.checkpoint_path(record.id),
                "checkpoint_every": self.limits.checkpoint_every_events,
            }
            self._program(record.spec.workload)
            # Attempts count across service lives: a recovered job keeps
            # its retry budget and its chaos coins.
            job = self.coordinator.add(payload, attempts=record.attempts)
            deadline = None
            if self.limits.job_timeout_seconds is not None:
                deadline = time.monotonic() + self.limits.job_timeout_seconds
            self.active[job] = _ActiveJob(record, job, deadline)

    def _program(self, workload: str) -> Optional[CompiledProgram]:
        """The workload's guest program, compiled for workers to inherit.

        Compiled once per distinct program (one per built-in workload at
        most) into :func:`~repro.service.worker.compiled_program`'s table,
        before the dispatch that may fork a worker: a worker forked after
        it holds the program and never re-compiles it, and a worker that
        is reused compiles a program it lacks once (attempts carry no
        program, so none is pickled per attempt).  ``None`` for a workload
        whose program is not known up front (an out-of-tree registration):
        its worker compiles the program itself.
        """
        from ..workloads import WORKLOAD_PROGRAMS

        source = WORKLOAD_PROGRAMS.get(workload)
        return None if source is None else compiled_program(source)

    def _on_event(self, kind: str, active: _ActiveJob, detail) -> None:
        record = active.record
        if kind == "start":
            record.attempts = detail + 1
            if record.started_at is None:
                # Queue wait is started_at - submitted_at: the first
                # attempt's start, kept across retries and restarts.
                record.started_at = time.time()
            self.store.mark(record, "running")
            if chaos_kill_after(record.id, detail) is not None:
                self.metrics.counter("service.chaos.kills_planned").inc(1)
            self._emit("service.job.start", job=record.id, attempt=detail)
        elif kind == "retry":
            # Crash or exception with retries left: the next attempt
            # resumes from the job's checkpoint if one was written.
            record.failure = detail.as_dict()
            record.retries += 1
            self.store.save(record)
            self.metrics.counter("service.retries").inc(1)
            self._emit("service.job.retry", job=record.id, attempt=record.attempts)
        elif kind == "done":
            self._finish(active, "done", result=detail)
            self.store.publish_digest(record.digest, record.id)
        elif kind == "failed":
            self._finish(active, "failed", failure=detail.as_dict())

    def _enforce_budgets(self) -> None:
        now = time.monotonic()
        for active in list(self.active.values()):
            if active.deadline is None or now <= active.deadline:
                continue
            self.coordinator.cancel(active.job)
            failure = WorkerFailure(
                task_index=active.job,
                kind="timeout",
                message="job exceeded its wall budget of"
                f" {self.limits.job_timeout_seconds}s",
                attempts=active.record.attempts,
            )
            self._finish(active, "timeout", failure=failure.as_dict())

    def _finish(self, active: _ActiveJob, state: str, **fields) -> JobRecord:
        """Move an active job to a terminal ``state`` and free its slot."""
        del self.active[active.job]
        self.coordinator.forget(active.job)
        record = self.store.mark(active.record, state, **fields)
        self._settle_live(record)
        self._finish_metrics(record)
        self._emit("service.job.done", job=record.id, state=state)
        self._kick()
        return record

    # -- bookkeeping -----------------------------------------------------------

    def _settle_live(self, record: JobRecord) -> None:
        if self._live_digests.get(record.digest) == record.id:
            del self._live_digests[record.digest]
        load = self._client_load.get(record.client, 0) - 1
        if load > 0:
            self._client_load[record.client] = load
        else:
            self._client_load.pop(record.client, None)

    def _finish_metrics(self, record: JobRecord) -> None:
        self.metrics.counter(f"service.jobs.{record.state}").inc(1)

    def _emit(self, ev: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(ev, **fields)

    def _emit_submit(self, spec: SubmissionSpec, dedup: str) -> None:
        self._emit(
            "service.submit",
            workload=spec.workload,
            algorithm=spec.algorithm,
            dedup=dedup,
        )

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Live queue/active view for ``GET /v1/stats``."""
        return {
            "draining": self.draining,
            "queued": len(self.queue),
            "active": len(self.active),
            "clients": dict(sorted(self._client_load.items())),
        }

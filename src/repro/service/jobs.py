"""The job manager: admission control, supervision, retry, drain, recover.

This is the long-lived coordinator the distributed-exploration line of
work presumes — the part of the service where robustness lives:

- **Backpressure** — a bounded admission queue (HTTP 429 once full, with
  a Retry-After hint) and a per-client live-job cap, so one hot client
  cannot starve the rest or balloon memory.
- **Supervision** — each attempt runs in a subprocess polled for results,
  death, and deadline (an asyncio counterpart of the distributed runner's
  coordinator, :mod:`repro.core.distributed`); failures become typed
  :class:`~repro.core.resilience.WorkerFailure` records on the job.
- **Retry** — crashed/raising attempts are retried with the deterministic
  seeded exponential backoff of :class:`~repro.core.resilience.RetryPolicy`
  (seeded by the submission's ``seed``); retries *resume from the job's
  latest checkpoint*, so work done before a crash is never redone and the
  final report is pinned equal to a fault-free run.
- **Budgets** — an optional per-job wall budget spanning all attempts;
  exceeding it is the terminal ``timeout`` state, not a retry.
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
import pickle
import queue as queue_module
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..core.resilience import (
    RetryPolicy,
    WorkerFailure,
    chaos_kill_requested,
)
from ..obs.metrics import MetricsRegistry
from .spec import SubmissionSpec
from .store import JobRecord, RunStore
from .worker import job_entry

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
    checkpoint_every_events: int = 25
    #: subprocess poll granularity; bounds crash-detection latency
    poll_interval_seconds: float = 0.02
    #: first-retry backoff (doubles per retry, seeded jitter on top)
    backoff_base_seconds: float = 0.05

    def retry_policy(self, seed: int) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.max_retries,
            backoff_base_seconds=self.backoff_base_seconds,
            seed=seed,
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
    """Supervision state for one in-flight job."""

    __slots__ = ("record", "task", "process", "cancelled")

    def __init__(self, record: JobRecord) -> None:
        self.record = record
        self.task: Optional[asyncio.Task] = None
        self.process = None
        self.cancelled = False


class JobManager:
    """Owns the queue, the active set, and every job state transition."""

    def __init__(
        self,
        store: RunStore,
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace=None,
        context=None,
    ) -> None:
        self.store = store
        self.limits = limits or ServiceLimits()
        self.metrics = metrics or MetricsRegistry()
        self.trace = trace
        if context is None:
            import multiprocessing

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
        self._context = context
        self.draining = False
        self.queue: Deque[str] = deque()
        self.active: Dict[str, _ActiveJob] = {}
        #: digest -> live (queued or running) job id, for coalescing
        self._live_digests: Dict[str, str] = {}
        self._client_load: Dict[str, int] = {}
        self._wake = asyncio.Event()
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
        for active in list(self.active.values()):
            process = active.process
            if process is not None and process.is_alive():
                process.terminate()
        # The per-job supervision loops observe `draining`, park their
        # records, and exit; wait for all of them.
        tasks = [a.task for a in self.active.values() if a.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
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
        active = self.active.get(job_id)
        if active is not None:
            # The supervision loop observes the flag, terminates the
            # worker, and marks the record.
            active.cancelled = True
            if active.process is not None and active.process.is_alive():
                active.process.terminate()
            return record
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
        while True:
            while (
                self.queue
                and len(self.active) < self.limits.max_active
                and not self.draining
            ):
                job_id = self.queue.popleft()
                record = self.store.load(job_id)
                if record is None or record.terminal:
                    continue
                active = _ActiveJob(record)
                self.active[job_id] = active
                active.task = asyncio.create_task(self._run_job(active))
            self._wake.clear()
            await self._wake.wait()

    # -- job execution --------------------------------------------------------

    async def _run_job(self, active: _ActiveJob) -> None:
        record = active.record
        loop = asyncio.get_event_loop()
        policy = self.limits.retry_policy(seed=record.spec.seed)
        deadline = None
        if self.limits.job_timeout_seconds is not None:
            deadline = loop.time() + self.limits.job_timeout_seconds
        try:
            self.store.mark(record, "running")
            while True:
                attempt = record.attempts
                record.attempts = attempt + 1
                self.store.save(record)
                self._emit("service.job.start", job=record.id, attempt=attempt)
                kind, detail = await self._attempt(active, attempt, deadline)

                if kind == "ok":
                    self.store.mark(record, "done", result=detail)
                    self.store.publish_digest(record.digest, record.id)
                    return
                if kind == "drained":
                    # Parked, not terminal: back to queued for the next
                    # service life, checkpoint already on disk.
                    self.store.mark(
                        record, "queued", interrupted=True
                    )
                    return
                if kind == "cancelled":
                    self.store.mark(record, "cancelled")
                    return
                if kind == "timeout":
                    self.store.mark(record, "timeout", failure=detail)
                    return

                # crash or exception: retry with seeded backoff, resuming
                # from the job's checkpoint if one was written.
                record.failure = detail
                record.retries += 1
                if record.attempts > policy.max_retries:
                    self.store.mark(record, "failed", failure=detail)
                    return
                self.metrics.counter("service.retries").inc(1)
                self._emit(
                    "service.job.retry", job=record.id, attempt=record.attempts
                )
                await asyncio.sleep(
                    policy.backoff_seconds(0, record.attempts)
                )
        finally:
            self.active.pop(record.id, None)
            final = self.store.load(record.id) or record
            if final.terminal:
                self._settle_live(final)
                self._finish_metrics(final)
                self._emit(
                    "service.job.done", job=final.id, state=final.state
                )
            self._kick()

    async def _attempt(
        self, active: _ActiveJob, attempt: int, deadline: Optional[float]
    ) -> Tuple[str, Optional[dict]]:
        """One subprocess attempt; returns ``(kind, detail)``.

        ``kind``: ``ok`` / ``exception`` / ``crash`` / ``timeout`` /
        ``cancelled`` / ``drained``.
        """
        record = active.record
        loop = asyncio.get_event_loop()
        kill_after = self._chaos_kill_after(record.id, attempt)
        payload = pickle.dumps(
            {
                "spec": record.spec.as_dict(),
                "trace_path": self.store.trace_path(record.id),
                "report_path": self.store.report_path(record.id),
                "checkpoint_path": self.store.checkpoint_path(record.id),
                "checkpoint_every": self.limits.checkpoint_every_events,
                "kill_after": kill_after,
            }
        )
        result_queue = self._context.Queue()
        process = self._context.Process(
            target=job_entry, args=(payload, result_queue, attempt)
        )
        process.start()
        active.process = process
        poll = self.limits.poll_interval_seconds
        try:
            while True:
                outcome = self._poll_queue(result_queue)
                if outcome is not None:
                    process.join()
                    if isinstance(outcome, WorkerFailure):
                        return "exception", outcome.as_dict()
                    return "ok", outcome
                if self.draining:
                    return "drained", None
                if active.cancelled:
                    return "cancelled", None
                if not process.is_alive():
                    # The queue feeder flushes before exit: one last poll
                    # before declaring the worker lost.
                    await asyncio.sleep(poll)
                    outcome = self._poll_queue(result_queue)
                    if outcome is not None:
                        process.join()
                        if isinstance(outcome, WorkerFailure):
                            return "exception", outcome.as_dict()
                        return "ok", outcome
                    process.join()
                    return "crash", self._failure_dict(
                        record,
                        "crash",
                        "job worker died without reporting a result"
                        f" (exitcode {process.exitcode})",
                        attempt,
                        exitcode=process.exitcode,
                    )
                if deadline is not None and loop.time() > deadline:
                    process.terminate()
                    process.join()
                    return "timeout", self._failure_dict(
                        record,
                        "timeout",
                        "job exceeded its wall budget of"
                        f" {self.limits.job_timeout_seconds}s",
                        attempt,
                    )
                await asyncio.sleep(poll)
        finally:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM sufficed so far
                process.kill()
                process.join(timeout=5.0)
            active.process = None

    def _chaos_kill_after(self, job_id: str, attempt: int) -> Optional[int]:
        """Chaos: should this attempt die mid-run, and after how many
        trace events?  Deterministic per (job, attempt)."""
        if not chaos_kill_requested(attempt, token=f"svc:{job_id}"):
            return None
        self.metrics.counter("service.chaos.kills_planned").inc(1)
        # Spread across the whole run: early kills exercise the
        # fresh-restart path, late kills (past the first checkpoint)
        # exercise resume.  A kill point beyond the run's trace length
        # simply never fires — chaos is best-effort by design.
        return random.Random(f"svc-kill:{job_id}:{attempt}").randrange(0, 96)

    @staticmethod
    def _poll_queue(result_queue):
        try:
            blob = result_queue.get_nowait()
        except queue_module.Empty:
            return None
        return pickle.loads(blob)

    def _failure_dict(
        self, record: JobRecord, kind: str, message: str, attempt: int, **extra
    ) -> dict:
        return WorkerFailure(
            task_index=0,
            kind=kind,
            message=message,
            attempts=attempt + 1,
            **extra,
        ).as_dict()

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

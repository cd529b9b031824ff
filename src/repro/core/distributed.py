"""Distributed SDE: run one exploration tree's partitions on a worker pool.

The paper names this as the key next step (Section VI): "we have to
identify the sets of states which can be safely offloaded on other cores
and thus can be independently executed."  :mod:`repro.core.partition`
identifies those sets — connected components of the dstate/state sharing
graph; this module executes them, following "Distributed Symbolic
Execution using Test-Depth Partitioning" (PAPERS.md): cut the tree at a
frontier depth into self-contained jobs and keep the pool busy with
work-stealing.

Why depth and not an arbitrary graph cut: splitting a connected SDS
component at one instant is unsound — ``needs_fork`` decisions depend on
virtual states in *other* dstates of the component, so executing the
halves separately changes fork decisions and the trace.  But components
naturally **fracture** as execution deepens (states diverge, sharing
dissolves).  So the runner cuts only between components:

1. The engine runs sequentially to the cut.  By default
   :func:`deepen_until_partitioned` picks it adaptively: it runs
   ``probe_events``-sized slices (doubling the run so far while the graph
   is one component), recomputing
   :func:`~repro.core.partition.partition_groups` after each, until there
   are at least ``min_partitions`` components with runnable states (or
   the run completes first — the degenerate sequential case).  A fixed
   cut is the same with probing off: ``partition_depth`` cuts after that
   many events.  A cut is always an event count: the scheduler pops
   events in time order, so a cut at a virtual time is the cut at the
   number of events executed before it.
2. Every cut lands on an **event boundary**: all states are quiescent,
   ``scheduler_snapshot`` is exact, and each job is a pickled
   :class:`~repro.core.snapshot.EngineSnapshot` — the same object a
   checkpoint writes, restricted to the job's groups, without counters and
   under the run's :meth:`EngineConfig.worker_variant` — plus a
   :class:`PathPrefix` summary of the subtree.  A worker answers with its
   engine's :class:`RunReport`, tagged with the job id.  The path
   constraints travel inside the snapshot (each shipped state carries its
   ``ConstraintSet``), which is what makes the job self-contained.  Every
   worker builds its own :class:`~repro.solver.Solver`; interned
   expression nodes re-enter its interning table via ``__reduce__``.
3. :class:`DistributedRunner` hands the jobs to a :class:`Coordinator`
   over a pluggable :class:`Transport` (a pool of subprocesses now; a
   socket backend only needs to move the same opaque messages).
   Stragglers are rebalanced by **work-stealing**: an idle pool prompts a
   busy worker to re-partition its remaining frontier at its next event
   boundary, ship half of it back as a fresh job and run on with the
   rest.

Why the merged :class:`DistributedReport` is identical to the sequential
run: partitions are disjoint in execution states and cover all of them,
transmissions only ever map within the sender's dstates, and each state
executes the identical event sequence no matter which process hosts it
(the scheduler snapshot preserves the sequential pop order, and solver
verdicts are solver-instance independent).  A steal is just another cut:
the donor ships only the stolen half and releases it from its engine,
which runs on.  The donor's report then covers its whole job but that
half (flow and stock), and the stolen job's report covers what it ran
after the cut.  So state counts, the census, error states, group counts,
mapping stats and solver query totals all sum to exactly the sequential
run's values, for any worker count and any steal timing; only cache
hit/miss ratios shift with the partitioning.  State ids remain volatile;
semantic trace comparison is by canonical multiset, which ignores them.

The coordinator is the one worker supervisor in the code base: the job
service (:mod:`repro.service.jobs`) runs its attempts on it too, one
non-blocking :meth:`Coordinator.step` per pass of its asyncio loop.
Failures use the typed-failure machinery from
:mod:`repro.core.resilience`: every turn scans busy workers for death
and overrun deadlines, failed jobs are requeued behind a deterministic
per-job backoff, the runner's final crash/exception attempt runs
inline, and ``SDE_CHAOS_KILL_WORKER`` kills every job's first
subprocess attempt.  A donor's retry always starts from its original
payload: if the donor dies after a steal reply, the coordinator cancels
the jobs stolen from it (recursively, voiding any that already ended)
and re-runs the whole job.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import time as _time
from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.events import TraceEmitter
from ..obs.metrics import Counter, MetricsRegistry, merge_snapshots, report_snapshot
from .engine import RunReport, SDEEngine
from .partition import (
    Partition,
    lpt_assign,
    partition_groups,
    projected_speedup,
    steal_split,
)
from .resilience import (
    RetryPolicy,
    WorkerFailure,
    chaos_kill_requested,
    raise_worker_failure,
)
from .snapshot import EngineSnapshot
from .stats import PROGRAM_IMAGE_COST_PER_INSTRUCTION, Sample, process_rss_bytes

__all__ = [
    "Coordinator",
    "DistributedReport",
    "DistributedRunner",
    "InlineTransport",
    "MultiprocessTransport",
    "PathPrefix",
    "Transport",
    "deepen_until_partitioned",
    "snapshot_assignment_tasks",
]

#: Events between a worker's steal-request polls.  Each poll is one
#: non-blocking queue read; the value bounds steal latency (a donor can
#: only hand work over at an event boundary it actually reaches).
STEAL_CHECK_EVENTS = 64

#: Events per partitioner probe slice (adaptive mode).
DEFAULT_PROBE_EVENTS = 32

#: Adaptive-mode budget: if the sharing graph has not fractured within
#: this many events, distribute whatever components exist (possibly one —
#: the run then degrades to supervised sequential execution).
DEFAULT_PROBE_LIMIT_EVENTS = 4096

#: Share of linear LPT-projected speedup an adaptive cut waits for.
BALANCE_FRACTION = 0.8

#: Seconds a worker is left alone before the coordinator asks it for a
#: steal again: after it denied one (its component may fracture later),
#: and after it granted one or was sent a stolen job (it has just paid
#: for a split or a restore; asking again thrashes the run's tail).
STEAL_RETRY_COOLDOWN_SECONDS = 0.5


def _bundle_groups(bundle: Sequence[Partition]) -> List[int]:
    return [index for partition in bundle for index in partition.group_indices]


def _bundle_sids(bundle: Sequence[Partition]) -> set:
    return {sid for partition in bundle for sid in partition.state_sids}


def snapshot_assignment_tasks(
    engine: SDEEngine, assignment: Sequence[Sequence[Partition]]
) -> List[EngineSnapshot]:
    """Capture one :class:`EngineSnapshot` per partition bundle.

    The shared step of every cut: capture the scheduler order once, then
    ship each bundle its mapper groups and the scheduler entries of its
    own states, under the run's worker config.  Used both for the initial
    cut and for a donor's steal split (which is just another cut, taken
    mid-run inside a worker).
    """
    scheduler_entries = engine.scheduler_snapshot()
    config = engine.config.worker_variant()
    snapshots: List[EngineSnapshot] = []
    for bundle in assignment:
        sids = _bundle_sids(bundle)
        snapshots.append(
            EngineSnapshot.capture(
                engine,
                _bundle_groups(bundle),
                [entry for entry in scheduler_entries if entry[1] in sids],
                config=config,
            )
        )
    return snapshots


def _job_report(engine: SDEEngine, job_id: int) -> RunReport:
    """The worker engine's report, tagged for the coordinator's merge."""
    engine._sample_and_check_caps(force=True)
    report = RunReport(engine)
    report.job_id = job_id
    report.census = engine.state_census()
    report.trace_events = engine.trace.events if engine.trace is not None else []
    return report


class PathPrefix:
    """Summary of the path-prefix constraints delimiting one job's subtree.

    The actual constraints ship inside the job snapshot (every state
    carries its ``ConstraintSet``); this picklable summary travels next to
    the payload so the coordinator can log, meter, and attribute failures
    without unpickling engine state.  ``group_indices`` names the
    initial cut's mapper groups the subtree descends from, so a failure
    record can say which part of the cut to re-run.
    """

    __slots__ = ("depth", "group_indices", "states", "conjuncts")

    def __init__(
        self, depth: int, group_indices: Sequence[int], states: int, conjuncts: int
    ):
        self.depth = depth
        self.group_indices = tuple(group_indices)
        self.states = states
        self.conjuncts = conjuncts

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def __repr__(self) -> str:
        return (
            f"PathPrefix(depth={self.depth}, groups={self.group_indices},"
            f" states={self.states}, conjuncts={self.conjuncts})"
        )


def _path_prefix(engine: SDEEngine, bundle: Sequence[Partition]) -> PathPrefix:
    """Build the :class:`PathPrefix` for one bundle of partitions."""
    sids = _bundle_sids(bundle)
    conjuncts = 0
    for sid in sids:
        state = engine.states.get(sid)
        if state is not None:
            conjuncts += len(state.constraints)
    return PathPrefix(
        depth=engine.events_executed,
        group_indices=_bundle_groups(bundle),
        states=len(sids),
        conjuncts=conjuncts,
    )


def deepen_until_partitioned(
    engine: SDEEngine,
    min_partitions: int,
    probe_events: int = DEFAULT_PROBE_EVENTS,
    probe_limit_events: Optional[int] = DEFAULT_PROBE_LIMIT_EVENTS,
    balance_workers: Optional[int] = None,
    trace: Optional[TraceEmitter] = None,
) -> List[Partition]:
    """Advance ``engine`` until its sharing graph has fractured.

    Runs slices of ``probe_events`` events and recomputes the component
    decomposition after each; while at most one live partition exists,
    a slice is as long as all the events run so far (but at least
    ``probe_events``), so a graph that never fractures costs a logarithmic
    number of probes.  Returns the partition list of the first
    frontier with at least ``min_partitions`` components that still have
    runnable states.  With ``balance_workers`` set, the cut additionally
    waits until the LPT-projected speedup on that many workers reaches
    :data:`BALANCE_FRACTION` of linear — a frontier that has *just* fractured
    is typically lopsided, and cutting there trades the whole run's
    balance for a few hundred saved prefix events.  Returns whatever
    exists once ``probe_limit_events`` is exhausted or the run completes —
    callers must handle both the empty-frontier and the still-connected
    cases.
    """
    engine.run_until(split_events=0)  # boot states exist before probing
    while True:
        partitions = partition_groups(engine.mapper)
        runnable = {sid for _, sid in engine.scheduler_snapshot()}
        if not runnable or engine.aborted:
            return partitions
        live_partitions = [p for p in partitions if p.state_sids & runnable]
        live = len(live_partitions)
        if trace is not None:
            trace.emit(
                "worker.partition.deepen",
                events=engine.events_executed,
                partitions=live,
            )
        balanced = balance_workers is None or projected_speedup(
            live_partitions, balance_workers
        ) >= BALANCE_FRACTION * balance_workers
        if live >= min_partitions and balanced:
            return partitions
        if (
            probe_limit_events is not None
            and engine.events_executed >= probe_limit_events
        ):
            return partitions
        before = engine.events_executed
        # Back off while the graph is one component: each probe then
        # costs no more than the events run since the last one.
        step = probe_events if live > 1 else max(probe_events, before)
        engine.run_until(split_events=before + step)
        if engine.events_executed == before:
            return partitions  # horizon reached with entries still queued


# ---------------------------------------------------------------------------
# Transport: opaque message passing between the coordinator and workers
# ---------------------------------------------------------------------------
#
# Wire protocol (all messages are picklable tuples; the transport never
# inspects them beyond delivery):
#
#   coordinator -> worker:
#     ("job", job_id, payload, attempt)         run one job
#     ("steal", )                               re-partition and hand half back
#
#   worker -> coordinator:
#     ("done", worker, job_id, result)          terminal result for job_id
#     ("steal_reply", worker, job_id,
#       [(payload, PathPrefix), ...])           donor split: the stolen jobs;
#                                               the donor runs on with the
#                                               rest of job_id
#     ("steal_deny", worker, job_id)            single component, can't split
#     ("fail", worker, job_id, WorkerFailure)   worker survived an exception
#
#   In a distributed run every payload is a pickled EngineSnapshot and every
#   result a RunReport carrying the job_id, census and trace_events tags of
#   _job_report.  The job service sends its own payloads and summaries.


class Transport(ABC):
    """Moves opaque messages between one coordinator and N workers.

    Implementations own worker lifecycle (:meth:`start`, :meth:`alive`,
    :meth:`restart`, :meth:`stop`) and message delivery (:meth:`send` to a
    specific worker, :meth:`recv` from any).  The coordinator guarantees it
    never sends a job to a worker it believes busy; workers queue anything
    unexpected until the current job finishes.
    """

    worker_count: int

    @abstractmethod
    def start(self) -> None:
        """Prepare for a run; workers start with the first message they get."""

    @abstractmethod
    def send(self, worker: int, message: tuple) -> None:
        """Deliver ``message`` to ``worker``, starting it if it is not running."""

    @abstractmethod
    def recv(self, timeout: Optional[float]) -> Optional[tuple]:
        """Next worker message, or ``None`` after ``timeout`` seconds
        (``None``: no limit) or as soon as a worker is found gone."""

    @abstractmethod
    def alive(self, worker: int) -> bool:
        """Whether ``worker`` can still make progress or has unread replies."""

    @abstractmethod
    def restart(self, worker: int) -> None:
        """Replace ``worker`` with a fresh one (dropping queued input)."""

    @abstractmethod
    def stop(self) -> None:
        """Tear everything down; never raises."""


def _execute_job(
    worker_index: int,
    job_id: int,
    payload: bytes,
    send,
    poll_steal,
    steal_check_events: int,
) -> None:
    """Run one job payload to completion, honouring steal requests.

    The engine advances in ``steal_check_events``-sized slices; between
    slices (an event boundary — states quiescent, snapshot exact) the
    worker polls for a steal request.  Granting one ships the stolen half
    in one reply and releases it from the engine, which then runs on with
    the rest: its solver caches and summary table stay warm, and its
    terminal report covers the whole job but the stolen half.
    """
    snapshot: EngineSnapshot = pickle.loads(payload)
    engine = snapshot.restore(
        TraceEmitter(worker=job_id) if snapshot.trace is not None else None
    )
    while True:
        target = engine.events_executed + steal_check_events
        engine.run_until(split_events=target)
        if engine.events_executed < target or engine.aborted:
            send(("done", worker_index, job_id, _job_report(engine, job_id)))
            return
        if poll_steal is not None and poll_steal():
            stolen_jobs = _split_for_steal(engine)
            if stolen_jobs is None:
                send(("steal_deny", worker_index, job_id))
            else:
                send(("steal_reply", worker_index, job_id, stolen_jobs))


def _split_for_steal(engine: SDEEngine) -> Optional[List[Tuple[bytes, PathPrefix]]]:
    """Ship half of a running engine's work; ``None`` when it cannot split.

    Returns the stolen jobs, ``[(payload, PathPrefix)]``, and releases
    their groups from ``engine`` (:meth:`SDEEngine.release_groups`), so
    every state lives on in exactly one engine and is counted once, by the
    report of the job that finishes it.
    """
    partitions = partition_groups(engine.mapper)
    runnable = {sid for _, sid in engine.scheduler_snapshot()}
    live = [p for p in partitions if p.state_sids & runnable]
    if len(live) < 2:
        return None

    def runnable_weight(partition: Partition) -> int:
        return len(partition.state_sids & runnable)

    # Balance the *remaining* work; quiescent partitions carry stock
    # states but no events, so they stay with the donor and never move.
    kept, given = steal_split(live, weight=runnable_weight)
    if not kept or not given:
        return None
    [given_snapshot] = snapshot_assignment_tasks(engine, [given])
    stolen_jobs = [(pickle.dumps(given_snapshot), _path_prefix(engine, given))]
    engine.release_groups(_bundle_groups(given))
    return stolen_jobs


def _job_worker_main(
    worker_index: int, inbox, outbox, message: tuple
) -> None:  # pragma: no cover - subprocess
    """Pool-worker entry: run ``message``, then serve the inbox until stopped.

    ``SDE_CHAOS_KILL_WORKER`` makes job attempts die unreported (like an
    OOM kill): every first attempt when set plain-truthy, a seeded
    per-(job, attempt) coin when set to a fractional probability.
    """
    import gc

    # Fork-started workers inherit the coordinator's whole heap.  Freeze it
    # so the cyclic GC never scans (and copy-on-write-unshares) inherited
    # pages — without this, a large parent heap multiplies across workers
    # and the run degrades to slower than sequential.
    gc.freeze()
    pending: deque = deque([message])

    def poll_steal() -> bool:
        try:
            message = inbox.get_nowait()
        except queue_module.Empty:
            return False
        if message[0] == "steal":
            return True
        pending.append(message)  # unexpected: handle after this job
        return False

    while True:
        message = pending.popleft() if pending else inbox.get()
        if message[0] == "steal":
            # Raced with our own completion: nothing running here.
            outbox.send(("steal_deny", worker_index, -1))
            continue
        _, job_id, payload, attempt = message
        if chaos_kill_requested(attempt, token=f"job:{job_id}"):
            os._exit(137)
        try:
            _execute_job(
                worker_index,
                job_id,
                payload,
                outbox.send,
                poll_steal,
                STEAL_CHECK_EVENTS,
            )
        except BaseException as exc:
            failure = WorkerFailure.from_exception(job_id, exc)
            outbox.send(("fail", worker_index, job_id, failure))


class MultiprocessTransport(Transport):
    """The subprocess backend: one process per worker.

    A worker is forked by the :meth:`send` that first needs it, and that
    message is its fork argument: nothing is pickled and no queue feeder
    thread starts for it.  Later messages (more jobs, steal requests) go
    through the worker's inbox queue.  Each worker has its own one-way
    reply pipe.  The parent holds no write end, so a pipe reads as
    end-of-file once its worker is gone (or closes it): a reply cut off
    mid-write raises instead of blocking, no worker's death stalls another
    worker's replies, and :meth:`recv` returns at once so the caller can
    notice the death.  ``restart`` drops the process and both channels, so
    neither queued input nor a stale reply outlives it; the next message
    forks the replacement.  ``worker_main(worker, inbox, outbox, message)``
    is the process entry: the distributed runner's serves jobs until
    stopped, the job service's runs one attempt and exits.
    """

    def __init__(self, worker_count: int, worker_main=_job_worker_main) -> None:
        if worker_count < 1:
            raise ValueError("need at least one worker")
        self.worker_count = worker_count
        self.worker_main = worker_main
        # Imported here: most runs never start a worker process.
        import multiprocessing
        from multiprocessing.connection import wait

        self._wait = wait
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._context = multiprocessing.get_context("spawn")
        self._processes: Dict[int, object] = {}
        self._inboxes: Dict[int, object] = {}
        self._replies: Dict[int, object] = {}

    def start(self) -> None:
        pass  # each worker is forked by the first message it gets

    def send(self, worker: int, message: tuple) -> None:
        if worker in self._processes:
            self._inboxes[worker].put(message)
        else:
            self._spawn(worker, message)

    def recv(self, timeout: Optional[float]) -> Optional[tuple]:
        readers = {conn: worker for worker, conn in self._replies.items()}
        if not readers and timeout is None:
            return None  # nothing could ever arrive
        for conn in self._wait(list(readers), timeout):
            message = self._read(readers[conn])
            if message is not None:
                return message
            # A closed pipe: read on through the other ready pipes, then
            # return, so the caller scans for the dead worker at once.
        return None

    def reply_fd(self, worker: int) -> Optional[int]:
        """The descriptor ``worker``'s replies arrive on; ``None`` once closed."""
        conn = self._replies.get(worker)
        return None if conn is None else conn.fileno()

    def _read(self, worker: int) -> Optional[tuple]:
        """One reply from ``worker``; ``None`` once its pipe has closed."""
        try:
            return self._replies[worker].recv()
        except (EOFError, OSError):
            # A clean end, or a reply cut off by the worker's death.
            self._replies.pop(worker).close()
            return None

    def alive(self, worker: int) -> bool:
        conn = self._replies.get(worker)
        if conn is None:
            return False  # never started, or its pipe read end-of-file
        # Anything readable (a reply sent just before exit, or the
        # end-of-file after it) is left for recv: the pipe stays open and
        # readable, so the caller's next wait returns at once.
        return conn.poll() or self._processes[worker].is_alive()

    def restart(self, worker: int) -> None:
        # Forked lazily: an idle fork would hold the parent's descriptors
        # (a server's client sockets, say) open until its next job.
        self._close(worker)

    def _spawn(self, worker: int, message: tuple) -> None:
        inbox = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=self.worker_main,
            args=(worker, inbox, writer, message),
            daemon=True,
        )
        process.start()
        writer.close()  # the worker holds the only write end
        self._processes[worker] = process
        self._inboxes[worker] = inbox
        self._replies[worker] = reader

    def _close(self, worker: int) -> None:
        process = self._processes.pop(worker, None)
        if process is not None:
            if process.is_alive():
                # SIGKILL: a just-forked child may still carry its parent's
                # handler that ignores SIGTERM.
                process.kill()
            process.join()
        inbox = self._inboxes.pop(worker, None)
        if inbox is not None:
            inbox.cancel_join_thread()  # the reader is gone
            inbox.close()
        reader = self._replies.pop(worker, None)
        if reader is not None:
            reader.close()

    def stop(self) -> None:
        for worker in list(self._processes):
            self._close(worker)


class InlineTransport(Transport):
    """Single in-process worker: jobs execute synchronously inside ``send``.

    The same pickle round-trip as subprocess workers (payloads are built
    and unpickled identically), no fork/spawn overhead, nothing to steal
    (one worker is never idle while another is busy) and chaos injection
    does not apply — killing the worker would kill the coordinator.  This
    is the ``workers=1`` backend and the determinism anchor for tests.
    """

    worker_count = 1

    def __init__(self) -> None:
        self._replies: deque = deque()

    def start(self) -> None:
        self._replies.clear()

    def send(self, worker: int, message: tuple) -> None:
        if message[0] == "steal":
            self._replies.append(("steal_deny", 0, -1))
            return
        _, job_id, payload, attempt = message
        try:
            _execute_job(0, job_id, payload, self._replies.append, None, 1)
        except BaseException as exc:
            failure = WorkerFailure.from_exception(job_id, exc)
            self._replies.append(("fail", 0, job_id, failure))

    def recv(self, timeout: Optional[float]) -> Optional[tuple]:
        if self._replies:
            return self._replies.popleft()
        if timeout:
            _time.sleep(timeout)  # nothing runs until the next send
        return None

    def alive(self, worker: int) -> bool:
        return True

    def restart(self, worker: int) -> None:  # pragma: no cover - never dies
        pass

    def stop(self) -> None:
        self._replies.clear()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _RunningJob:
    """Coordinator-side record of one in-flight job."""

    __slots__ = ("job_id", "attempt", "deadline")

    def __init__(self, job_id: int, attempt: int, deadline) -> None:
        self.job_id = job_id
        self.attempt = attempt
        self.deadline = deadline


class Coordinator:
    """Drives jobs over a transport: dispatch, steal, supervise, retry.

    The one worker supervisor, for the distributed runner and the job
    service alike.  :meth:`step` takes one turn: dispatch the due jobs,
    maybe request a steal, handle the replies that arrive within its
    timeout (cut short at :meth:`next_deadline`), then scan busy workers
    for death and overrun deadlines.
    Every failure becomes a typed :class:`WorkerFailure` that names the
    job's initial-cut groups; a failed job waits out a deterministic
    backoff before its next dispatch; with ``run_inline`` set, the final
    crash/exception attempt runs in-process (timeouts keep retrying in a
    subprocess, which can be killed).  ``step`` returns the turn's events:
    ``("start", job, attempt)``, ``("done", job, result)``, ``("retry",
    job, failure)``, ``("failed", job, failure)`` and ``("cancelled", job,
    None)``, which voids an ended job's result or failure.

    A granted steal adds the stolen jobs, each recorded in ``donors`` as
    stolen from the donor's job, whose payload stays the original one.
    When a donor's attempt fails after granting, every job stolen from it
    is cancelled, recursively: queued ones are dropped, running ones
    stopped, ended ones voided.  The donor's next attempt re-runs its
    whole job, and an exhausted donor's failure covers the whole subtree.
    :meth:`run` is the runner's blocking loop: it collects ``results``
    and raises on a failed job unless ``allow_partial`` reports it
    instead; it sleeps in the transport until a reply, a worker's death or
    the next deadline, so there is no poll interval.
    """

    def __init__(
        self,
        transport: Transport,
        jobs: Sequence[Tuple[bytes, Optional[PathPrefix]]],
        policy: RetryPolicy,
        steal: bool,
        run_inline=None,
        trace: Optional[TraceEmitter] = None,
    ) -> None:
        self.transport = transport
        self.policy = policy
        self.steal_enabled = steal and transport.worker_count > 1
        self.run_inline = run_inline
        self.trace = trace

        self.payloads: Dict[int, object] = {}
        self.prefixes: Dict[int, Optional[PathPrefix]] = {}
        self.pending: deque = deque()
        self.attempts: Dict[int, int] = {}
        self.results: List[RunReport] = []
        self.failed: List[WorkerFailure] = []
        #: stolen job -> the job it was stolen from
        self.donors: Dict[int, int] = {}
        self.retries = 0
        self.steals_requested = Counter("distributed.steals.requested")
        self.steals_granted = Counter("distributed.steals.granted")
        self.steals_denied = Counter("distributed.steals.denied")
        self.jobs_dispatched = 0
        self.idle = set(range(transport.worker_count))
        self._next_job_id = 0
        self._outstanding = 0
        self._resolved: set = set()
        self._busy: Dict[int, _RunningJob] = {}
        self._not_before: Dict[int, float] = {}
        self._steal_pending: set = set()
        self._steal_cooldown: Dict[int, float] = {}
        self._events: List[tuple] = []
        for payload, prefix in jobs:
            self.add(payload, prefix)

    # -- public ------------------------------------------------------------

    def add(
        self, payload, prefix: Optional[PathPrefix] = None, attempts: int = 0
    ) -> int:
        """Queue a job; ``attempts`` counts attempts made before this run.

        ``payload`` is opaque here: the distributed runner's are pickled
        snapshots, the job service's are dicts.
        """
        job_id = self._next_job_id
        self._next_job_id += 1
        self.payloads[job_id] = payload
        self.prefixes[job_id] = prefix
        self.attempts[job_id] = attempts
        self.pending.append(job_id)
        self._outstanding += 1
        return job_id

    def forget(self, job_id: int) -> None:
        """Drop an ended job's payload and counters (for long-lived callers)."""
        self.payloads.pop(job_id, None)
        self.prefixes.pop(job_id, None)
        self.attempts.pop(job_id, None)
        self.donors.pop(job_id, None)

    def cancel(self, job_id: int) -> None:
        """End ``job_id`` without a result, restarting its worker if busy."""
        if job_id in self._resolved:
            return
        self._resolve(job_id)
        for worker, running in list(self._busy.items()):
            if running.job_id == job_id:
                self._release(worker, restart=True)

    def step(self, timeout: Optional[float]) -> List[tuple]:
        """One turn; returns its lifecycle events.

        It waits for a reply for at most ``timeout`` seconds (``None``: no
        limit), and never past :meth:`next_deadline`.
        """
        self._dispatch()
        self._maybe_steal()
        deadline = self.next_deadline()
        if deadline is not None:
            remaining = max(0.0, deadline - _time.monotonic())
            timeout = remaining if timeout is None else min(timeout, remaining)
        message = self.transport.recv(timeout)
        while message is not None:
            self._handle(message)
            message = self.transport.recv(0.0)
        self._scan_workers()
        events, self._events = self._events, []
        return events

    def next_deadline(self) -> Optional[float]:
        """When the next turn is due without a reply (``time.monotonic``).

        The earliest of: a queued job's retry backoff while a worker is
        free to take it, a running job's wall-clock deadline, and a steal
        cooldown while an idle worker waits for work.  ``None`` when only
        a worker's reply (or its death) can move the run.
        """
        due: List[float] = [
            running.deadline
            for running in self._busy.values()
            if running.deadline is not None
        ]
        if self.idle:
            due.extend(self._not_before.get(job_id, 0.0) for job_id in self.pending)
            if self.steal_enabled and not self.pending:
                due.extend(
                    self._steal_cooldown.get(worker, 0.0)
                    for worker in self._busy
                    if worker not in self._steal_pending
                )
        return min(due, default=None)

    def run(self) -> None:
        """Run every job (and every job stolen along the way) to an end."""
        if self._outstanding == 0:
            return
        self.transport.start()
        results: Dict[int, RunReport] = {}
        try:
            while self._outstanding > 0:
                for kind, job, detail in self.step(None):
                    if kind == "done":
                        results[job] = detail
                    elif kind == "cancelled":
                        results.pop(job, None)
                    elif kind == "failed" and not self.policy.allow_partial:
                        raise_worker_failure(detail)
        finally:
            self.results.extend(results.values())
            self.transport.stop()

    # -- internals ----------------------------------------------------------

    def _resolve(self, job_id: int) -> None:
        self._resolved.add(job_id)
        self._outstanding -= 1
        self._not_before.pop(job_id, None)

    def _release(self, worker: int, restart: bool = False) -> None:
        self._busy.pop(worker, None)
        self._steal_pending.discard(worker)
        if restart:
            self.transport.restart(worker)
        self.idle.add(worker)

    def _dispatch(self) -> None:
        now = _time.monotonic()
        backing_off: deque = deque()
        while self.pending and self.idle:
            job_id = self.pending.popleft()
            if job_id in self._resolved:
                continue  # cancelled while queued
            if self._not_before.get(job_id, 0.0) > now:
                backing_off.append(job_id)
                continue
            worker = min(self.idle)
            if not self.transport.alive(worker):
                self.transport.restart(worker)
            self.idle.discard(worker)
            attempt = self.attempts[job_id]
            deadline = None
            if self.policy.task_timeout_seconds is not None:
                deadline = now + self.policy.task_timeout_seconds
            self._busy[worker] = _RunningJob(job_id, attempt, deadline)
            if job_id in self.donors:  # a thief: see the cooldown's reasons
                self._steal_cooldown[worker] = now + STEAL_RETRY_COOLDOWN_SECONDS
            self.jobs_dispatched += 1
            self._events.append(("start", job_id, attempt))
            if self.trace is not None:
                self.trace.emit("worker.job.dispatch", job=job_id, attempt=attempt)
            self.transport.send(worker, ("job", job_id, self.payloads[job_id], attempt))
        self.pending.extendleft(reversed(backing_off))

    def _maybe_steal(self) -> None:
        if not self.steal_enabled or self.pending or not self.idle:
            return
        now = _time.monotonic()
        for worker in sorted(self._busy):
            if worker in self._steal_pending:
                continue
            if self._steal_cooldown.get(worker, 0.0) > now:
                continue
            self._steal_pending.add(worker)
            self.steals_requested.value += 1
            if self.trace is not None:
                self.trace.emit("worker.steal.request", victim=worker)
            self.transport.send(worker, ("steal",))
            return  # one request per loop turn

    def _handle(self, message: tuple) -> None:
        tag = message[0]
        if tag == "done":
            _, worker, job_id, result = message
            if job_id in self._resolved:
                return  # stale duplicate after a presumed-death requeue
            self._resolve(job_id)
            self._release(worker)
            self._events.append(("done", job_id, result))
            if self.trace is not None:
                self.trace.emit("worker.job.done", job=job_id)
        elif tag == "steal_reply":
            _, worker, job_id, stolen_jobs = message
            self._steal_pending.discard(worker)
            running = self._busy.get(worker)
            if job_id in self._resolved or running is None or running.job_id != job_id:
                # The whole job was (or will be) re-run from its payload;
                # accepting the stolen half would count its states twice.
                return
            self.steals_granted.value += 1
            self._steal_cooldown[worker] = (
                _time.monotonic() + STEAL_RETRY_COOLDOWN_SECONDS
            )
            moved = 0
            for payload, prefix in stolen_jobs:
                # The donor's group indices are local to its restored
                # engine; failure records name the initial cut's groups.
                prefix.group_indices = self.prefixes[job_id].group_indices
                self.donors[self.add(payload, prefix)] = job_id
                moved += prefix.states
            if self.trace is not None:
                self.trace.emit("worker.steal.grant", job=job_id, states=moved)
        elif tag == "steal_deny":
            _, worker, _job_id = message
            self._steal_pending.discard(worker)
            self._steal_cooldown[worker] = (
                _time.monotonic() + STEAL_RETRY_COOLDOWN_SECONDS
            )
            self.steals_denied.value += 1
            if self.trace is not None:
                self.trace.emit("worker.steal.deny", job=_job_id)
        elif tag == "fail":
            _, worker, job_id, failure = message
            self._release(worker)
            if job_id not in self._resolved:
                self._job_failed(job_id, failure)

    def _scan_workers(self) -> None:
        now = _time.monotonic()
        for worker, running in list(self._busy.items()):
            if self._busy.get(worker) is not running:
                continue  # stopped by this scan: its donor's failure cancelled it
            if not self.transport.alive(worker):
                failure = WorkerFailure(
                    task_index=running.job_id,
                    kind="crash",
                    message="worker process died without reporting a result",
                )
            elif running.deadline is not None and now > running.deadline:
                failure = WorkerFailure(
                    task_index=running.job_id,
                    kind="timeout",
                    message="job exceeded its wall-clock budget of"
                    f" {self.policy.task_timeout_seconds}s",
                )
            else:
                continue
            self._release(worker, restart=True)
            self._job_failed(running.job_id, failure)

    def _job_failed(self, job_id: int, failure: WorkerFailure) -> None:
        self._cancel_stolen(job_id)
        self.attempts[job_id] += 1
        failure.attempts = self.attempts[job_id]
        if self.trace is not None:
            self.trace.emit(
                "worker.crash",
                task=job_id,
                kind=failure.kind,
                exitcode=failure.exitcode,
                attempt=failure.attempts,
            )
        if failure.attempts > self.policy.max_retries or not failure.retryable:
            self._exhaust(job_id, failure)
            return
        self.retries += 1
        self._events.append(("retry", job_id, failure))
        if self.trace is not None:
            self.trace.emit("worker.retry", task=job_id, attempt=failure.attempts)
        final = failure.attempts == self.policy.max_retries
        if final and failure.kind != "timeout" and self.run_inline is not None:
            # Last chance: run in the coordinator's process — immune to
            # worker loss.  Timeouts keep retrying in a subprocess; an
            # in-process attempt could not be killed.
            self._run_final_inline(job_id)
        else:
            delay = self.policy.backoff_seconds(job_id, failure.attempts)
            self._not_before[job_id] = _time.monotonic() + delay
            self.pending.append(job_id)

    def _cancel_stolen(self, donor: int) -> None:
        """Cancel every job stolen from ``donor``, recursively: the donor's
        next attempt runs them again, or its failure record covers them."""
        for job_id in [job for job, source in self.donors.items() if source == donor]:
            del self.donors[job_id]
            self._cancel_stolen(job_id)
            if job_id in self._resolved:
                self.failed = [f for f in self.failed if f.task_index != job_id]
                self._events.append(("cancelled", job_id, None))
            else:
                self.cancel(job_id)
            if self.trace is not None:
                self.trace.emit("worker.steal.cancel", job=job_id, donor=donor)

    def _run_final_inline(self, job_id: int) -> None:
        try:
            result = self.run_inline(job_id, self.payloads[job_id])
        except BaseException as exc:  # noqa: BLE001 - classified below
            self.attempts[job_id] += 1
            failure = WorkerFailure.from_exception(
                job_id, exc, attempts=self.attempts[job_id]
            )
            self._exhaust(job_id, failure)
            return
        self._resolve(job_id)
        self._events.append(("done", job_id, result))

    def _exhaust(self, job_id: int, failure: WorkerFailure) -> None:
        # Enough to re-run the job later from the initial cut's snapshot.
        prefix = self.prefixes[job_id]
        if prefix is not None:
            failure.group_indices = tuple(prefix.group_indices)
            failure.state_count = prefix.states
        self._resolve(job_id)
        self.failed.append(failure)
        self._events.append(("failed", job_id, failure))


def _run_job_inline(job_id: int, payload: bytes) -> RunReport:
    """The coordinator's in-process final attempt at a job."""
    replies: List[tuple] = []
    _execute_job(0, job_id, payload, replies.append, None, 1)
    message = replies[-1]
    if message[0] != "done":  # pragma: no cover - _execute_job raises instead
        raise RuntimeError(f"inline job ended with {message[0]!r}")
    return message[3]


# ---------------------------------------------------------------------------
# Runner + report
# ---------------------------------------------------------------------------


class DistributedReport(RunReport):
    """Merged report of a distributed run: a :class:`RunReport` of the
    whole run, built by merging the prefix's and every job's reports.

    The semantic totals are identical to the sequential run for any
    worker count and any steal timing (see the module docstring).  The
    extras are ``workers``, ``worker_results`` (the tagged
    :class:`RunReport` of every job that ended, stolen jobs included and
    cancelled ones left out), ``prefix_events`` (the cut in events),
    ``partition_count``,
    ``projected`` (the LPT-projected speedup), ``census`` (per-node state
    counts, from the jobs' census tags), and from the ``coordinator``:
    ``jobs_dispatched``, the ``steals_*`` counts, ``retries`` and
    ``failed_partitions``; plus ``transport_name``.  ``metrics`` carries
    the extras as ``parallel.*`` and ``distributed.*`` metrics.
    """

    def __init__(
        self,
        *,
        prefix: RunReport,
        prefix_census: Dict[int, int],
        worker_results: List[RunReport],
        image_cost: int,
        partitions: List[Partition],
        workers: int,
        runtime_seconds: float,
        coordinator: "Coordinator",
        transport_name: str,
    ) -> None:
        merge_started = _time.perf_counter()
        self.algorithm = prefix.algorithm
        self.workers = workers
        self.worker_results = list(worker_results)
        self.prefix_events = prefix.events_executed
        self.partition_count = len(partitions)
        self.projected = (projected_speedup(partitions, workers) if partitions else 1.0)
        self.runtime_seconds = runtime_seconds
        self.jobs_dispatched = coordinator.jobs_dispatched
        self.steals_requested = coordinator.steals_requested.value
        self.steals_granted = coordinator.steals_granted.value
        self.steals_denied = coordinator.steals_denied.value
        self.transport_name = transport_name
        # Resilience: jobs that exhausted their retries (only under
        # --allow-partial; otherwise the run raised) and the retry count.
        # A report with failed partitions is *partial*: its totals cover
        # the prefix plus the surviving jobs only.
        self.failed_partitions = list(coordinator.failed)
        self.retries = coordinator.retries
        self.partial = bool(self.failed_partitions)
        self.checkpoints_written = prefix.checkpoints_written
        self.resumed = prefix.resumed

        results = self.worker_results
        self.aborted = prefix.aborted or any(w.aborted for w in results)
        self.abort_reason = prefix.abort_reason or next(
            (w.abort_reason for w in results if w.abort_reason), ""
        )
        if results:
            # Every prefix state was shipped to exactly one job, and a
            # steal moves states from one job to another, so the results'
            # totals sum to the sequential run's totals.
            self.virtual_ms = max(w.virtual_ms for w in results)
            self.total_states = sum(w.total_states for w in results)
            self.active_states = sum(w.active_states for w in results)
            self.group_count = sum(w.group_count for w in results)
            self.error_states = [state for w in results for state in w.error_states]
            # Each worker's accounting re-charges the shared program image;
            # count it once, like the sequential run does.
            self.accounted_bytes = image_cost + sum(
                w.accounted_bytes - image_cost for w in results
            )
            self.census = {node: 0 for node in prefix_census}
            for worker in results:
                for node, count in worker.census.items():
                    self.census[node] = self.census.get(node, 0) + count
        else:
            # Degenerate: the run finished before the cut.
            self.virtual_ms = prefix.virtual_ms
            self.total_states = prefix.total_states
            self.active_states = prefix.active_states
            self.group_count = prefix.group_count
            self.error_states = list(prefix.error_states)
            self.accounted_bytes = prefix.accounted_bytes
            self.census = dict(prefix_census)
        self.events_executed = prefix.events_executed + sum(
            w.events_executed for w in results
        )
        self.instructions = prefix.instructions + sum(w.instructions for w in results)
        self.samples: List[Sample] = list(prefix.samples)
        self.samples.append(
            Sample(
                wall_seconds=runtime_seconds,
                virtual_ms=self.virtual_ms,
                events_executed=self.events_executed,
                live_states=self.active_states,
                total_states=self.total_states,
                accounted_bytes=self.accounted_bytes,
                rss_bytes=process_rss_bytes(),
                groups=self.group_count,
            )
        )

        # Observability merge: counters and timers sum exactly (same
        # argument as the state totals above) and histograms merge across
        # the prefix and every job; the "merge" timer times this method.
        merged = MetricsRegistry()
        merged.install(
            merge_snapshots([prefix.registry] + [w.registry for w in results])
        )
        merge = merged.timer("merge")
        merge.count = 1
        merge.seconds = _time.perf_counter() - merge_started
        self.registry = merged.snapshot()
        self.metrics = report_snapshot(
            self,
            counters={
                "parallel.workers": self.workers,
                "parallel.partitions": self.partition_count,
                "parallel.prefix_events": self.prefix_events,
                "parallel.retries": self.retries,
                "parallel.failed_partitions": len(self.failed_partitions),
                "distributed.partition_depth": self.prefix_events,
                "distributed.jobs": self.jobs_dispatched,
                "distributed.steals.requested": self.steals_requested,
                "distributed.steals.granted": self.steals_granted,
                "distributed.steals.denied": self.steals_denied,
            },
            gauges={"parallel.projected_speedup": round(self.projected, 4)},
        )

    def state_census(self) -> Dict[int, int]:
        return dict(self.census)

    def summary(self) -> str:
        lines = [
            super().summary(),
            f"  workers          : {self.workers}",
            f"  split point      : {self.prefix_events} events",
            f"  partitions       : {self.partition_count}"
            f" (projected speedup x{self.projected:.2f})",
            f"  jobs dispatched  : {self.jobs_dispatched}"
            f" ({self.transport_name} transport)",
            f"  steals           : {self.steals_granted} granted"
            f" / {self.steals_denied} denied"
            f" / {self.steals_requested} requested",
        ]
        if self.retries:
            lines.append(f"  worker retries   : {self.retries}")
        if self.partial:
            lines.append(
                f"  PARTIAL: {len(self.failed_partitions)} partition(s)"
                " failed after retries"
            )
            for failure in self.failed_partitions:
                lines.append(f"    - {failure.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DistributedReport({self.algorithm}, workers={self.workers},"
            f" jobs={self.jobs_dispatched}, steals={self.steals_granted},"
            f" states={self.total_states}, partial={self.partial})"
        )


class DistributedRunner:
    """Run one scenario with depth partitioning over a worker pool.

    The pipeline: run the engine to the cut, emit each partition bundle as
    a self-contained job, and let the coordinator drive the jobs over the
    transport with supervised retries and (unless ``steal=False``)
    work-stealing.  The cut is adaptive by default; ``partition_depth``
    fixes it at an executed-event count.  Retries, timeouts and partial
    results are set by one :class:`RetryPolicy`.  With ``workers=1`` (or
    a single job) the run degrades to supervised sequential execution
    over the same pickle round-trip.
    """

    def __init__(
        self,
        scenario,
        algorithm: str = "sds",
        workers: int = 4,
        partition_depth: Optional[int] = None,
        min_partitions: Optional[int] = None,
        probe_events: int = DEFAULT_PROBE_EVENTS,
        probe_limit_events: Optional[int] = DEFAULT_PROBE_LIMIT_EVENTS,
        steal: bool = True,
        transport: Optional[Transport] = None,
        trace: Optional[TraceEmitter] = None,
        retry_policy: Optional[RetryPolicy] = None,
        **engine_overrides,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.scenario = scenario
        self.algorithm = algorithm
        self.workers = workers
        self.partition_depth = partition_depth
        self.min_partitions = (
            min_partitions if min_partitions is not None else 2 * workers
        )
        self.probe_events = probe_events
        self.probe_limit_events = probe_limit_events
        self.steal = steal
        self.transport = transport
        self.trace = trace
        self.retry_policy = retry_policy or RetryPolicy()
        self.engine_overrides = engine_overrides

    def run(self) -> DistributedReport:
        from .scenario import build_engine

        started = _time.perf_counter()
        engine = build_engine(
            self.scenario,
            self.algorithm,
            trace=self.trace,
            **self.engine_overrides,
        )
        if self.partition_depth is None:
            partitions = deepen_until_partitioned(
                engine,
                min_partitions=self.min_partitions,
                probe_events=self.probe_events,
                probe_limit_events=self.probe_limit_events,
                balance_workers=self.workers,
                trace=self.trace,
            )
        else:
            engine.run_until(split_events=self.partition_depth)
            partitions = partition_groups(engine.mapper)
        engine._sample_and_check_caps(force=True)
        prefix = RunReport(engine)
        prefix_census = engine.state_census()

        jobs: List[Tuple[bytes, PathPrefix]] = []
        if not engine.aborted and engine.scheduler_snapshot():
            assignment = [
                bundle
                for bundle in lpt_assign(partitions, self.workers)
                if bundle
            ]
            snapshots = snapshot_assignment_tasks(engine, assignment)
            jobs = [
                (pickle.dumps(snapshot), _path_prefix(engine, bundle))
                for snapshot, bundle in zip(snapshots, assignment)
            ]
        else:
            partitions = []
        if jobs and self.trace is not None:
            self.trace.emit(
                "worker.partition.start",
                partitions=len(partitions),
                states=sum(p.state_count() for p in partitions),
            )

        transport = self.transport
        if transport is None:
            if self.workers == 1 or len(jobs) <= 1:
                transport = InlineTransport()
            else:
                transport = MultiprocessTransport(self.workers)
        coordinator = Coordinator(
            transport,
            jobs,
            policy=self.retry_policy,
            steal=self.steal,
            run_inline=_run_job_inline,
            trace=self.trace,
        )
        coordinator.run()
        results = sorted(coordinator.results, key=lambda w: w.job_id)
        if self.trace is not None:
            for worker in results:
                self.trace.extend(worker.trace_events)
            self.trace.emit("worker.merge", workers=len(results))
        return DistributedReport(
            prefix=prefix,
            prefix_census=prefix_census,
            worker_results=results,
            image_cost=(
                PROGRAM_IMAGE_COST_PER_INSTRUCTION * len(engine.program.code)
            ),
            partitions=partitions,
            workers=self.workers,
            runtime_seconds=_time.perf_counter() - started,
            coordinator=coordinator,
            transport_name=type(transport).__name__,
        )

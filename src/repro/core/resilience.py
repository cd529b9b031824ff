"""Fault tolerance for SDE runs: supervision, retry, checkpoint/resume.

The paper's headline experiments run for hours (Table I's COB run went
9h39m before aborting at the memory cap).  At that scale three failure
modes dominate, and this module answers each:

1. **Worker loss** — a partition worker OOM-killed or SIGKILL'd dies
   without sending a result.  The one worker supervisor, the
   :class:`~repro.core.distributed.Coordinator` that both the
   distributed runner and the job service run on, scans busy workers
   for death every turn, enforces a per-job wall-clock budget, and
   classifies every failure in a typed :class:`WorkerFailure` that
   preserves the original traceback.
2. **Transient failures** — failed partitions are requeued behind a
   deterministic seeded exponential backoff (:class:`RetryPolicy`; no
   wall-clock reads feed any retry *decision*), and the distributed
   runner's final attempt for crash/exception failures runs in-process,
   which is immune to process loss.  With ``allow_partial`` the run degrades gracefully: exhausted
   partitions are reported (with enough information to rerun them)
   instead of aborting the whole run.
3. **Run loss** — :func:`save_checkpoint` writes a mid-run
   :class:`~repro.core.snapshot.EngineSnapshot` with its counters and
   trace so far to disk atomically, under a versioned header and an
   integrity checksum; :func:`resume_engine` restores it so the completed
   run's report is identical to an uninterrupted one on every
   deterministic field.

A checkpoint is the same snapshot the distributed runner ships for each
part of a cut, taken over every group and with the counters a worker does
not need (the merge re-adds the prefix's).  Only what is particular to a
checkpoint lives here: the config stripped of checkpoint cadence, the
resume-time config overrides, the file header and integrity check, and
the ``resumed`` flag with its ``checkpoint.resume`` event.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import traceback
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.fileio import atomic_write_bytes
from .snapshot import EngineSnapshot

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RetryPolicy",
    "WorkerFailure",
    "WorkerTaskError",
    "chaos_kill_probability",
    "chaos_kill_requested",
    "load_checkpoint",
    "raise_worker_failure",
    "resume_engine",
    "save_checkpoint",
]


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------

#: kinds a worker attempt can fail with
FAILURE_KINDS = ("crash", "exception", "timeout")


class WorkerFailure:
    """One classified partition failure — picklable and JSON-able.

    ``kind`` is ``"crash"`` (process died without reporting), ``"exception"``
    (worker raised; ``exc_type``/``traceback`` carry the original), or
    ``"timeout"`` (per-partition wall-clock budget exceeded).  The record
    keeps the partition's group indices and state count so an exhausted
    partition can be re-run later from the same snapshot.  A failure that
    every retry would repeat is not ``retryable``: the coordinator gives
    its job up on the first attempt.
    """

    __slots__ = (
        "task_index",
        "kind",
        "exc_type",
        "message",
        "traceback",
        "exitcode",
        "attempts",
        "group_indices",
        "state_count",
        "retryable",
    )

    def __init__(
        self,
        task_index: int,
        kind: str,
        message: str,
        exc_type: str = "",
        traceback: str = "",
        exitcode: Optional[int] = None,
        attempts: int = 0,
        group_indices: Tuple[int, ...] = (),
        state_count: int = 0,
        retryable: bool = True,
    ) -> None:
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.task_index = task_index
        self.kind = kind
        self.exc_type = exc_type
        self.message = message
        self.traceback = traceback
        self.exitcode = exitcode
        self.attempts = attempts
        self.group_indices = tuple(group_indices)
        self.state_count = state_count
        self.retryable = retryable

    @classmethod
    def from_exception(
        cls,
        task_index: int,
        exc: BaseException,
        attempts: int = 0,
        retryable: bool = True,
    ) -> "WorkerFailure":
        """An ``exception`` failure that keeps ``exc``'s type and traceback."""
        return cls(
            task_index=task_index,
            kind="exception",
            message=str(exc),
            exc_type=type(exc).__name__,
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=attempts,
            retryable=retryable,
        )

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def as_dict(self) -> dict:
        """JSON form used by report serialization."""
        return {
            "task_index": self.task_index,
            "kind": self.kind,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
            "exitcode": self.exitcode,
            "attempts": self.attempts,
            "group_indices": list(self.group_indices),
            "state_count": self.state_count,
            "retryable": self.retryable,
        }

    def describe(self) -> str:
        origin = f" [{self.exc_type}]" if self.exc_type else ""
        return (
            f"partition {self.task_index} {self.kind}{origin} after"
            f" {self.attempts} attempt(s): {self.message}"
        )

    def __repr__(self) -> str:
        return (
            f"WorkerFailure(task={self.task_index}, kind={self.kind},"
            f" attempts={self.attempts})"
        )


class WorkerTaskError(RuntimeError):
    """A partition exhausted its retries (and the run is not --allow-partial).

    ``failure`` is the final :class:`WorkerFailure`; the original worker
    traceback is chained as ``__cause__`` so pytest/tracebacks show it.
    """

    def __init__(self, failure: WorkerFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


class _RemoteTraceback(Exception):
    """Carrier for a worker's formatted traceback (chained as __cause__)."""

    def __init__(self, text: str) -> None:
        super().__init__(f"\n--- worker traceback ---\n{text}")


def raise_worker_failure(failure: WorkerFailure) -> None:
    """Raise :class:`WorkerTaskError`, chaining the worker traceback."""
    error = WorkerTaskError(failure)
    if failure.traceback:
        raise error from _RemoteTraceback(failure.traceback)
    raise error


def chaos_kill_probability() -> float:
    """Parse ``SDE_CHAOS_KILL_WORKER`` as a kill probability in [0, 1].

    Accepted forms, in order of precedence:

    - unset / ``"0"`` / ``"false"`` / ``"no"`` — chaos off (``0.0``);
    - a float literal — clamped into ``[0.0, 1.0]`` (``"0.3"`` means 30%
      of attempts die, the sustained partial-failure load the service
      chaos gate runs under);
    - any other truthy string (``"1"``, ``"yes"``, ``"banana"``) — the
      historical all-or-nothing form, meaning ``1.0``.
    """
    value = os.environ.get("SDE_CHAOS_KILL_WORKER", "").strip().lower()
    if value in ("", "0", "false", "no"):
        return 0.0
    try:
        probability = float(value)
    except ValueError:
        return 1.0
    return min(max(probability, 0.0), 1.0)


def chaos_kill_requested(attempt: int = 0, token: str = "") -> bool:
    """Fault-injection hook: should this worker attempt die right now?

    When triggered, the attempt dies via ``os._exit`` before sending a
    result — indistinguishable from an OOM-kill from the supervisor's
    point of view.  Three regimes, per :func:`chaos_kill_probability`:

    - probability ``0.0`` — never kill;
    - probability ``1.0`` (any plain-truthy value) — kill exactly the
      *first* attempt (``attempt == 0``); retries run normally, so a
      chaos run must complete with results identical to an unfaulted
      run.  CI's ``fault-smoke`` job is built on this.
    - fractional probability — a **deterministic seeded coin** per
      ``(token, attempt)``: independent attempts of the same task get
      independent verdicts, and a rerun with the same tokens makes
      identical kill decisions (no wall-clock or global-RNG reads).  A
      task whose every retry loses the coin toss legitimately exhausts
      its retries — graceful degradation is part of what the chaos gate
      exercises.
    """
    probability = chaos_kill_probability()
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return attempt == 0
    rng = random.Random(f"chaos:{token}:{attempt}")
    return rng.random() < probability


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How failed partitions are retried.

    All retry *decisions* are pure functions of (seed, task, attempt) —
    no wall-clock reads — so a rerun makes identical choices.  The only
    clock uses are the optional per-partition wall budget, which is
    explicitly a wall-clock cap, and the not-before time each backoff
    sets.
    """

    #: retries after the first attempt; total attempts = max_retries + 1
    max_retries: int = 2
    #: first retry delay; doubles (factor) per further retry
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    #: deterministic jitter fraction added on top of the exponential delay
    backoff_jitter: float = 0.25
    #: seeds the jitter PRNG (never wall-clock)
    seed: int = 0
    #: per-partition wall-clock budget; None disables timeout detection
    task_timeout_seconds: Optional[float] = None
    #: report exhausted partitions instead of raising
    allow_partial: bool = False

    def backoff_seconds(self, task_index: int, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter."""
        if attempt <= 0:
            return 0.0
        base = self.backoff_base_seconds * (self.backoff_factor ** (attempt - 1))
        rng = random.Random(f"{self.seed}:{task_index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SDECKPT"
# Version 2: construction parameters travel as one EngineConfig under
# "config", and solver counters as one dict under "solver_stats"
# (version-1 checkpoints carried both exploded).
# Version 3: EngineConfig gained medium/medium_params and ExecutionState
# gained the link_busy slot — version-2 pickles would deserialize into
# objects silently missing both, so they are rejected at the header.
# Version 4: the body is one EngineSnapshot (the object every distributed
# cut ships too) instead of a flat dict.
# Version 5: the snapshot's counters are one metrics-registry snapshot
# (every subsystem's counters, the reducer's included) instead of one
# dict per subsystem.
# Version 6: idle states are values — memory, stacks, event queue and
# symbolics pickle as tuples and the three maps as FrozenMaps; a version-5
# state would come back with lists and dicts that forks must not share.
# Version 7: phase timings are registry timers inside the counters'
# "registry" snapshot; the counters dict has no "phases" entry.
# Version 8: the SDS mapper payload is its dstates alone; member lists are
# shared between dstates, each state has one binding, and the holders and
# the bindings index are rebuilt on restore.
# Version 9: a Topology pickles as its edges and neighbour tuples, no
# longer as a third-party graph object.
CHECKPOINT_VERSION = 9


class CheckpointError(RuntimeError):
    """The checkpoint file is missing, corrupt, or incompatible."""


def save_checkpoint(engine, path) -> dict:
    """Serialize ``engine`` to ``path`` atomically; returns the header.

    File layout: ``SDECKPT\\n<json header>\\n<pickle body>``.  The header
    carries the format version, run coordinates, and a SHA-256 of the body
    so truncated or bit-rotted checkpoints are rejected at load rather
    than producing a silently wrong resume.
    """
    snapshot = EngineSnapshot.capture(
        engine,
        # Checkpoint cadence is NOT inherited: the resumed run only
        # checkpoints if the caller re-enables it via overrides (the CLI's
        # --resume does), so a resume into a different path can't silently
        # keep overwriting the original file.
        config=engine.config.replace(
            checkpoint_path=None,
            checkpoint_every_events=None,
            checkpoint_every_seconds=None,
        ),
        with_counters=True,
    )
    body = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": CHECKPOINT_VERSION,
        "algorithm": engine.mapper.name,
        "events_executed": engine.events_executed,
        "clock_now": engine.clock.now,
        "total_states": len(engine.states),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    atomic_write_bytes(path, CHECKPOINT_MAGIC + b"\n" + header_bytes + b"\n" + body)
    return header


def load_checkpoint(path) -> Tuple[dict, EngineSnapshot]:
    """Read and verify a checkpoint; returns ``(header, EngineSnapshot)``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    magic, _, rest = raw.partition(b"\n")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not an SDE checkpoint")
    header_bytes, _, body = rest.partition(b"\n")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('version')!r} is not"
            f" supported (this build reads version {CHECKPOINT_VERSION});"
            " re-run without --resume"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{path}: integrity check failed (checkpoint truncated or"
            " corrupted)"
        )
    return header, pickle.loads(body)


def resume_engine(path, trace=None, **engine_overrides):
    """Rebuild a mid-run engine from a checkpoint file.

    The returned engine continues exactly where the checkpoint was taken:
    same states, same scheduler order, same id watermarks, and counter
    baselines restored in place so ``engine.run()`` yields a report whose
    deterministic fields equal an uninterrupted run's.  ``engine_overrides``
    may re-enable checkpointing on the resumed run (``checkpoint_path``,
    ``checkpoint_every_events``, ...).
    """
    from .config import split_config_overrides

    _, snapshot = load_checkpoint(path)
    # Overrides win: a run aborted at a cap can be resumed with the cap
    # raised (`resume_engine(path, max_states=None)`), or with
    # checkpointing re-enabled on the resumed run.
    config_fields, rest = split_config_overrides(engine_overrides)
    if rest:
        raise TypeError(f"unknown engine override(s) {sorted(rest)}")
    if config_fields:
        snapshot.config = snapshot.config.replace(**config_fields)
    try:
        engine = snapshot.restore(trace)
    except ValueError as exc:  # counters laid out by another build
        raise CheckpointError(f"{path}: {exc}") from exc
    engine.resumed = True
    if trace is not None:
        trace.emit("checkpoint.resume", events=engine.events_executed)
    return engine

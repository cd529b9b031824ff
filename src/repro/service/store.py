"""The persistent run store: job records, artifacts, and the dedup index.

Layout under the service data dir::

    runs/<job_id>/record.json        -- the JobRecord (state machine node)
    runs/<job_id>/trace.jsonl        -- live-streamed event trace
    runs/<job_id>/report.json        -- final report (done jobs only)
    runs/<job_id>/checkpoint.sdeckpt -- latest engine checkpoint
    index/<digest>                   -- submission digest -> job id

Every write goes through :func:`repro.obs.fileio.atomic_write_*` (temp
file + fsync + rename + directory fsync), so a crashed or SIGKILL'd
service never leaves a half-written record: restart recovery reads only
complete JSON.

**Dedup.**  ``index/<digest>`` is published exactly once, when a job
reaches ``done`` — failed/timeout/cancelled jobs never enter the index,
so a resubmission after a failure gets a fresh execution.  A submission
whose digest is already indexed is answered from the cache; one whose
digest matches a still-in-flight job coalesces onto that job (the job
manager checks live jobs before the index).

**Job lifecycle** (the record's ``state`` field)::

    queued --> running --> done
                      \\--> failed     (retries exhausted)
                      \\--> timeout    (per-job wall budget exceeded)
    queued/running ------> cancelled   (DELETE /v1/runs/{id})
    running --> queued                 (service drain: checkpointed,
                                        re-queued for the next boot)

``done``/``failed``/``timeout``/``cancelled`` are terminal.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import ENGINE_CONFIG_FIELDS
from ..obs.fileio import atomic_write_text
from .spec import SubmissionSpec

__all__ = ["JobRecord", "RunStore", "TERMINAL_STATES", "JOB_STATES"]

#: every state a job record can be in
JOB_STATES = ("queued", "running", "done", "failed", "timeout", "cancelled")

#: states a job never leaves
TERMINAL_STATES = frozenset({"done", "failed", "timeout", "cancelled"})


@dataclass
class JobRecord:
    """One job's durable status — everything ``GET /v1/runs/{id}`` shows."""

    id: str
    spec: SubmissionSpec
    digest: str
    client: str = "anon"
    state: str = "queued"
    #: subprocess attempts started (across service restarts)
    attempts: int = 0
    #: retries after failures (attempts - successful/terminal attempt)
    retries: int = 0
    #: the run survived a service drain/restart at least once
    interrupted: bool = False
    #: terminal detail: WorkerFailure dict for failed/timeout, reason for
    #: cancelled, summary counters for done
    failure: Optional[dict] = None
    result: Optional[dict] = None
    #: wall-clock bookkeeping (informational; never feeds decisions)
    submitted_at: float = field(default_factory=time.time)
    #: when the first attempt started; queue wait = started_at - submitted_at
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "spec": self.spec.as_dict(),
            "digest": self.digest,
            "client": self.client,
            "state": self.state,
            "attempts": self.attempts,
            "retries": self.retries,
            "interrupted": self.interrupted,
            "failure": self.failure,
            "result": self.result,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        if data.get("state") not in JOB_STATES:
            raise ValueError(f"corrupt job record: state {data.get('state')!r}")
        return cls(
            id=data["id"],
            spec=SubmissionSpec.from_dict(_without_retired_fields(data["spec"])),
            digest=data["digest"],
            client=data.get("client", "anon"),
            state=data["state"],
            attempts=data.get("attempts", 0),
            retries=data.get("retries", 0),
            interrupted=data.get("interrupted", False),
            failure=data.get("failure"),
            result=data.get("result"),
            submitted_at=data.get("submitted_at", 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
        )


def _without_retired_fields(spec):
    """A stored spec minus config fields :class:`EngineConfig` no longer has.

    The service validated the spec when it was submitted, so a config key
    that is not an engine field any more names a retired switch (the
    removed reference-path selectors, say).  Dropping it keeps the job
    and its stored id and digest; a *new* submission naming it is still
    rejected by :meth:`SubmissionSpec.from_dict`.
    """
    config = spec.get("config") if isinstance(spec, dict) else None
    if not isinstance(config, dict) or set(config) <= ENGINE_CONFIG_FIELDS:
        return spec
    kept = {k: v for k, v in config.items() if k in ENGINE_CONFIG_FIELDS}
    return {**spec, "config": kept}


class RunStore:
    """Filesystem-backed job records + artifacts + dedup index."""

    def __init__(self, data_dir) -> None:
        self.data_dir = os.fspath(data_dir)
        self.runs_dir = os.path.join(self.data_dir, "runs")
        self.index_dir = os.path.join(self.data_dir, "index")
        os.makedirs(self.runs_dir, exist_ok=True)
        os.makedirs(self.index_dir, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.runs_dir, job_id)

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "record.json")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.jsonl")

    def report_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "report.json")

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint.sdeckpt")

    # -- records -------------------------------------------------------------

    def allocate(self, spec: SubmissionSpec, client: str) -> JobRecord:
        """Create (and persist) a fresh queued record for ``spec``."""
        digest = spec.digest()
        job_id = f"{digest[:8]}-{secrets.token_hex(4)}"
        os.makedirs(self.job_dir(job_id), exist_ok=True)
        record = JobRecord(id=job_id, spec=spec, digest=digest, client=client)
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        atomic_write_text(
            self.record_path(record.id),
            json.dumps(record.as_dict(), indent=2, sort_keys=True) + "\n",
        )

    def load(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or None if it does not exist."""
        if not _safe_component(job_id):
            return None
        try:
            with open(self.record_path(job_id)) as handle:
                return JobRecord.from_dict(json.load(handle))
        except (OSError, ValueError, KeyError):
            return None

    def list_records(self) -> List[JobRecord]:
        """Every readable record, sorted by submission time then id."""
        records = []
        try:
            names = sorted(os.listdir(self.runs_dir))
        except OSError:
            return []
        for name in names:
            record = self.load(name)
            if record is not None:
                records.append(record)
        records.sort(key=lambda r: (r.submitted_at, r.id))
        return records

    def interrupted_records(self) -> List[JobRecord]:
        """Non-terminal records — the restart-recovery work list."""
        return [r for r in self.list_records() if not r.terminal]

    # -- artifacts -----------------------------------------------------------

    def load_report(self, job_id: str) -> Optional[dict]:
        try:
            with open(self.report_path(job_id)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def has_checkpoint(self, job_id: str) -> bool:
        return os.path.exists(self.checkpoint_path(job_id))

    # -- dedup index -----------------------------------------------------------

    def publish_digest(self, digest: str, job_id: str) -> None:
        """Map ``digest`` -> ``job_id`` (called only when the job is done).

        First writer wins: if a concurrent duplicate somehow completed
        first, keep the existing mapping so the index stays stable.
        """
        path = os.path.join(self.index_dir, digest)
        if os.path.exists(path):
            return
        atomic_write_text(path, job_id + "\n")

    def lookup_digest(self, digest: str) -> Optional[str]:
        """The done job id cached for ``digest``, if any (and still valid)."""
        if not _safe_component(digest):
            return None
        try:
            with open(os.path.join(self.index_dir, digest)) as handle:
                job_id = handle.read().strip()
        except OSError:
            return None
        record = self.load(job_id)
        if record is None or record.state != "done":
            return None
        return job_id

    # -- mutations used by the job manager ------------------------------------

    def mark(self, record: JobRecord, state: str, **fields) -> JobRecord:
        """Transition ``record`` to ``state`` (+field updates) and persist."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        record.state = state
        for name, value in fields.items():
            setattr(record, name, value)
        if record.terminal and record.finished_at is None:
            record.finished_at = time.time()
        self.save(record)
        return record

    def stats(self) -> Dict[str, int]:
        """State histogram over every stored record (GET /v1/stats)."""
        histogram: Dict[str, int] = {state: 0 for state in JOB_STATES}
        for record in self.list_records():
            histogram[record.state] = histogram.get(record.state, 0) + 1
        return histogram


def _safe_component(name: str) -> bool:
    """Reject path traversal in client-supplied ids/digests."""
    return bool(name) and all(
        ch.isalnum() or ch == "-" for ch in name
    )

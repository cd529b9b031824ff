"""SDE-as-a-service: an async, fault-tolerant job API over ``repro.api``.

The package splits along the failure domains:

- :mod:`repro.service.spec` — validated, content-addressed submissions;
- :mod:`repro.service.store` — the persistent run store (atomic records,
  artifacts, dedup index);
- :mod:`repro.service.worker` — the supervised, long-lived subprocess
  that executes attempt after attempt, streaming each trace and
  checkpointing;
- :mod:`repro.service.jobs` — admission control, retry, drain, recovery;
- :mod:`repro.service.http` — the stdlib asyncio HTTP front door.

See ``docs/SERVICE.md`` for the API contract and lifecycle state machine.
"""

from .http import SDEService, serve_main
from .jobs import (
    AdmissionError,
    ClientCapExceeded,
    Draining,
    JobManager,
    QueueFull,
    ServiceLimits,
)
from .spec import CONFIG_FIELD_ALLOWLIST, SpecError, SubmissionSpec
from .store import JOB_STATES, TERMINAL_STATES, JobRecord, RunStore
from .worker import StreamingTraceEmitter, execute_job

__all__ = [
    "AdmissionError",
    "CONFIG_FIELD_ALLOWLIST",
    "ClientCapExceeded",
    "Draining",
    "JOB_STATES",
    "JobManager",
    "JobRecord",
    "QueueFull",
    "RunStore",
    "SDEService",
    "ServiceLimits",
    "SpecError",
    "StreamingTraceEmitter",
    "SubmissionSpec",
    "TERMINAL_STATES",
    "execute_job",
    "serve_main",
]

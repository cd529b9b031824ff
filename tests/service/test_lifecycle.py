"""The job lifecycle's terminal paths: budget expiry, exhausted retries,
a raising attempt, a spec whose scenario cannot be built; and a spent
worker that lingers after its reply.

Each path ends a job in one terminal state with a typed failure record,
and the record's attempt and retry counts say what actually ran: an
attempt is counted when it starts, a retry only when one is scheduled.
"""

import time

from repro.service import ServiceLimits
from repro.service import jobs as jobs_module
from repro.service import worker as worker_module

from .test_service import FAST_SPEC, SLOW_SPEC, ServiceThread


def test_job_budget_expiry_is_a_terminal_timeout(tmp_path):
    service = ServiceThread(
        tmp_path / "data", limits=ServiceLimits(job_timeout_seconds=0.3)
    )
    try:
        status, out = service.submit(SLOW_SPEC)
        assert status == 202
        record = service.wait_terminal(out["id"])
        assert record["state"] == "timeout"
        assert record["attempts"] == 1
        assert record["retries"] == 0
        assert record["failure"]["kind"] == "timeout"
        assert "wall budget" in record["failure"]["message"]

        # A timed-out run never enters the dedup cache.
        status, again = service.submit(SLOW_SPEC)
        assert status == 202
        assert again["disposition"] == "fresh"
        assert again["id"] != out["id"]
        service.wait_terminal(again["id"])
    finally:
        service.stop()


def test_exhausted_retries_count_only_retries_that_ran(tmp_path, monkeypatch):
    # The chaos kill point fires within the slow spec's first trace
    # events, so the only attempt dies and no retry is left.
    monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_retries=0))
    try:
        _, out = service.submit(SLOW_SPEC)
        record = service.wait_terminal(out["id"])
        assert record["state"] == "failed"
        assert record["attempts"] == 1
        assert record["failure"]["kind"] == "crash"
        assert record["retries"] == 0
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"].get("service.retries", 0) == record["retries"]
        assert stats["counters"]["service.chaos.kills_planned"] == 1
        assert stats["counters"]["service.jobs.failed"] == 1
    finally:
        service.stop()


def _raise_in_job(payload):
    raise ValueError("job function exploded")


def test_raising_attempt_keeps_its_origin(tmp_path, monkeypatch):
    # Workers fork from this process, so they inherit the patch.
    monkeypatch.setattr(worker_module, "execute_job", _raise_in_job)
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_retries=0))
    try:
        _, out = service.submit(FAST_SPEC)
        record = service.wait_terminal(out["id"])
        assert record["state"] == "failed"
        assert record["attempts"] == 1
        assert record["retries"] == 0
        failure = record["failure"]
        assert failure["kind"] == "exception"
        assert failure["exc_type"] == "ValueError"
        assert "job function exploded" in failure["message"]
        assert "Traceback (most recent call last)" in failure["traceback"]
        assert "_raise_in_job" in failure["traceback"]
    finally:
        service.stop()


class _LingeringPipe:
    """A reply pipe whose worker pauses between its reply and closing."""

    def __init__(self, connection):
        self._connection = connection

    def send(self, message):
        self._connection.send(message)

    def close(self):
        time.sleep(1.0)
        self._connection.close()


def _lingering_worker_main(worker_index, inbox, outbox, message):
    worker_module.job_worker_main(
        worker_index, inbox, _LingeringPipe(outbox), message
    )


def test_next_attempt_skips_a_worker_that_has_replied(tmp_path, monkeypatch):
    # One worker slot and two queued jobs: the second is dispatched right
    # after the first job's reply is read, while its worker still lingers.
    # It must get a fresh worker, not be sent to the spent one and then be
    # retried as a crash when that one exits.
    monkeypatch.setattr(jobs_module, "job_worker_main", _lingering_worker_main)
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_active=1))
    try:
        _, first = service.submit(FAST_SPEC)
        _, second = service.submit(dict(FAST_SPEC, seed=8))
        for job in (first, second):
            record = service.wait_terminal(job["id"])
            assert record["state"] == "done"
            assert record["attempts"] == 1
            assert record["retries"] == 0
            assert record["failure"] is None
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"].get("service.retries", 0) == 0
    finally:
        service.stop()


def test_a_spec_that_cannot_build_fails_in_its_worker(tmp_path):
    # flood:1 passes validation, but the workload needs two nodes.  The
    # worker builds the scenario and raises the error as the job's typed
    # failure.
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_retries=0))
    try:
        _, out = service.submit(dict(FAST_SPEC, size=1))
        record = service.wait_terminal(out["id"])
        assert record["state"] == "failed"
        assert record["attempts"] == 1
        failure = record["failure"]
        assert failure["kind"] == "exception"
        assert failure["exc_type"] == "ValueError"
        assert "at least 2 nodes" in failure["message"]
    finally:
        service.stop()

"""The job lifecycle's terminal paths: budget expiry, exhausted retries,
a raising attempt, a spec whose scenario cannot be built; and the worker
that serves attempt after attempt.

Each path ends a job in one terminal state with a typed failure record,
and the record's attempt and retry counts say what actually ran: an
attempt is counted when it starts, a retry only when one is scheduled.
A worker is forked once per slot and reused until it dies:
``service.workers.started`` counts the forks.
"""

from repro.service import ServiceLimits
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


def test_next_attempt_reuses_the_worker_that_replied(tmp_path):
    # One worker slot and two queued jobs: the second is dispatched right
    # after the first job's reply is read, to the same worker, which is
    # waiting on its inbox; no attempt is retried.
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
        assert stats["counters"]["service.workers.started"] == 1
    finally:
        service.stop()


def test_sequential_jobs_fork_once_and_a_chaos_kill_forks_again(
    tmp_path, monkeypatch
):
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_active=1))
    try:
        for seed in range(6):
            _, out = service.submit(dict(FAST_SPEC, seed=seed))
            assert service.wait_terminal(out["id"])["state"] == "done"
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"]["service.workers.started"] == 1
    finally:
        service.stop()

    # Every first attempt dies, five trace events in: the killed worker is
    # replaced, and its replacement serves the retry.
    monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
    monkeypatch.setattr(
        worker_module,
        "chaos_kill_after",
        lambda job_id, attempt: 5 if attempt == 0 else None,
    )
    service = ServiceThread(tmp_path / "chaos", limits=ServiceLimits(max_active=1))
    try:
        _, out = service.submit(FAST_SPEC)
        record = service.wait_terminal(out["id"])
        assert record["state"] == "done"
        assert record["attempts"] == 2
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"]["service.chaos.kills_planned"] == 1
        assert stats["counters"]["service.workers.started"] == 2
    finally:
        service.stop()


def test_a_spec_that_cannot_build_fails_in_its_worker(tmp_path):
    # flood:1 passes validation, but the workload needs two nodes.  The
    # worker builds the scenario and raises the error as the job's typed
    # failure.  Every retry would build the same spec, so the job fails on
    # its first attempt at the default max_retries.
    limits = ServiceLimits()
    assert limits.max_retries == 2
    service = ServiceThread(tmp_path / "data", limits=limits)
    try:
        _, out = service.submit(dict(FAST_SPEC, size=1))
        record = service.wait_terminal(out["id"])
        assert record["state"] == "failed"
        assert record["attempts"] == 1
        assert record["retries"] == 0
        failure = record["failure"]
        assert failure["kind"] == "exception"
        assert failure["exc_type"] == "ValueError"
        assert "at least 2 nodes" in failure["message"]
        assert failure["retryable"] is False
    finally:
        service.stop()

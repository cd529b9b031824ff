"""The scheduler sleeps until something happens: no poll interval.

Between passes the job manager waits on its busy workers' reply pipes
and on the nearest deadline (a retry's backoff, a job's wall budget),
never on a timer.  Each test swaps in a stand-in worker (the workers
fork from this process, so they see the patch), counts the
coordinator's steps while its jobs run, and bounds the count by a small
constant: a fixed 20 ms poll would take about 15 steps per 0.3 s of
waiting.  The stand-ins serve attempt after attempt through the same
loop as the real worker, :func:`~repro.core.distributed.serve_jobs`.
"""

import multiprocessing
import os
import time

from repro.core.distributed import serve_jobs
from repro.service import ServiceLimits
from repro.service import jobs as jobs_module
from repro.service import worker as worker_module

from .test_service import FAST_SPEC, ServiceThread


def _count_steps(service):
    """Wrap the live coordinator's ``step``; returns the call log."""
    coordinator = service.service.manager.coordinator
    calls = []
    step = coordinator.step

    def counting(timeout):
        calls.append(timeout)
        return step(timeout)

    coordinator.step = counting
    return calls


def _serve_replying_after(seconds, worker_index, inbox, outbox, message):
    """Serve attempts like the real worker, answering each after ``seconds``."""

    def reply(message, _poll_steal):
        time.sleep(seconds)
        _, job_id, _payload, _attempt = message
        outbox.send(("done", worker_index, job_id, {"ok": True}))

    serve_jobs(worker_index, inbox, outbox, message, reply)


def _slow_reply_worker_main(worker_index, inbox, outbox, message):
    _serve_replying_after(0.3, worker_index, inbox, outbox, message)


def test_a_reply_wakes_the_scheduler(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "job_worker_main", _slow_reply_worker_main)
    service = ServiceThread(tmp_path / "data")
    try:
        steps = _count_steps(service)
        _, out = service.submit(FAST_SPEC)
        record = service.wait_terminal(out["id"], timeout=10)
        assert record["state"] == "done"
        assert record["result"] == {"ok": True}
        assert len(steps) <= 6, steps
    finally:
        service.stop()


def _run_or_reply_slowly(worker_index, inbox, outbox, message):
    # Seed 7 is a real run, whose worker then idles on its open pipe; any
    # other seed replies after a second, so the loop stays busy meanwhile.
    if message[2]["spec"]["seed"] == 7:
        worker_module.job_worker_main(worker_index, inbox, outbox, message)
    else:
        _serve_replying_after(1.0, worker_index, inbox, outbox, message)


def test_a_lingering_worker_does_not_spin_the_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "job_worker_main", _run_or_reply_slowly)
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_active=2))
    try:
        steps = _count_steps(service)
        _, lingering = service.submit(FAST_SPEC)
        _, slow = service.submit(dict(FAST_SPEC, seed=8))
        for job in (lingering, slow):
            record = service.wait_terminal(job["id"], timeout=10)
            assert record["state"] == "done"
            assert record["attempts"] == 1
            assert record["retries"] == 0
        assert len(steps) <= 10, steps
    finally:
        service.stop()


def _crash_then_reply(worker_index, inbox, outbox, message):
    if message[3] == 0:
        os._exit(137)  # die unreported, like an OOM kill
    _serve_replying_after(0.3, worker_index, inbox, outbox, message)


def test_a_crashed_attempt_is_retried_after_its_backoff(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "job_worker_main", _crash_then_reply)
    service = ServiceThread(tmp_path / "data")
    try:
        steps = _count_steps(service)
        _, out = service.submit(FAST_SPEC)
        record = service.wait_terminal(out["id"], timeout=10)
        assert record["state"] == "done"
        assert record["attempts"] == 2
        assert record["retries"] == 1
        assert record["failure"]["kind"] == "crash"
        assert record["started_at"] is not None
        assert len(steps) <= 8, steps
    finally:
        service.stop()


def _never_reply(worker_index, inbox, outbox, message):
    time.sleep(30)


def test_a_job_over_its_wall_budget_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(jobs_module, "job_worker_main", _never_reply)
    service = ServiceThread(
        tmp_path / "data", limits=ServiceLimits(job_timeout_seconds=0.3)
    )
    try:
        steps = _count_steps(service)
        started = time.monotonic()
        _, out = service.submit(FAST_SPEC)
        record = service.wait_terminal(out["id"], timeout=10)
        assert time.monotonic() - started < 5.0
        assert record["state"] == "timeout"
        assert record["attempts"] == 1
        assert record["failure"]["kind"] == "timeout"
        assert len(steps) <= 6, steps
    finally:
        service.stop()


def test_two_workers_that_reply_together_both_end_done(tmp_path, monkeypatch):
    # Both replies land before the scheduler's next pass: no reply may be
    # left unread on a pipe nothing watches.  Each worker then serves a
    # second job, and the pair replies together again.
    barrier = multiprocessing.get_context("fork").Barrier(2)

    def reply_together(worker_index, inbox, outbox, message):
        def reply(message, _poll_steal):
            barrier.wait(10)
            _, job_id, _payload, _attempt = message
            outbox.send(("done", worker_index, job_id, {"ok": True}))

        serve_jobs(worker_index, inbox, outbox, message, reply)

    monkeypatch.setattr(jobs_module, "job_worker_main", reply_together)
    service = ServiceThread(tmp_path / "data", limits=ServiceLimits(max_active=2))
    try:
        steps = _count_steps(service)
        for seeds in ((7, 8), (9, 10)):
            jobs = [service.submit(dict(FAST_SPEC, seed=seed))[1] for seed in seeds]
            for job in jobs:
                record = service.wait_terminal(job["id"], timeout=10)
                assert record["state"] == "done"
                assert record["result"] == {"ok": True}
                assert record["retries"] == 0
        assert len(steps) <= 20, steps
        _, stats = service.request("GET", "/v1/stats")
        assert stats["counters"]["service.workers.started"] == 2
    finally:
        service.stop()

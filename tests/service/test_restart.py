"""Satellite: checkpoint --resume through a full service restart.

The robustness headline in one test: submit a job, SIGTERM-style drain
the service mid-run (checkpoint already on disk), boot a *new* service
process-equivalent on the same data dir, and require that the recovered
job resumes from its checkpoint and finishes with a report pinned equal
to an uninterrupted run — the PR 3 resume-equality guarantee, carried
through the whole service lifecycle.
"""

import json

import pytest

from repro.api import make_workload, report_to_dict, run_scenario
from repro.service import ServiceLimits
from repro.service.spec import SubmissionSpec
from repro.service.store import RunStore

from .test_service import FAST_SPEC, PINNED_FIELDS, SLOW_SPEC, ServiceThread

#: cadence chosen so flood:9 (~45k events) checkpoints early and often
#: relative to its runtime, but cheaply
LIMITS = ServiceLimits(checkpoint_every_events=2000)


@pytest.fixture(scope="module")
def slow_reference():
    report = run_scenario(
        make_workload(SLOW_SPEC["workload"], SLOW_SPEC["size"]),
        SLOW_SPEC["algorithm"],
    )
    return report_to_dict(report)


def test_drain_restart_resume_is_pinned_equal(tmp_path, slow_reference):
    data_dir = tmp_path / "data"

    # -- life 1: submit, wait for a checkpoint, drain mid-run ---------------
    first = ServiceThread(data_dir, limits=LIMITS)
    try:
        status, out = first.submit(SLOW_SPEC)
        assert status == 202
        job_id = out["id"]
        first.wait_state(
            job_id,
            lambda r: first.service.store.has_checkpoint(job_id),
            timeout=60,
        )
    finally:
        first.stop()  # graceful drain: terminate worker, park the record

    parked = first.service.store.load(job_id)
    assert parked.state == "queued"
    assert parked.interrupted is True
    assert first.service.store.has_checkpoint(job_id)

    # -- life 2: a fresh service on the same data dir recovers and resumes --
    second = ServiceThread(data_dir, limits=LIMITS)
    try:
        record = second.wait_terminal(job_id, timeout=120)
        assert record["state"] == "done"
        assert record["interrupted"] is True
        assert record["result"]["resumed"] is True
        # Attempts count across service lifetimes: one per life.
        assert record["attempts"] == 2

        status, report = second.request("GET", f"/v1/runs/{job_id}/report")
        assert status == 200
        for field in PINNED_FIELDS:
            assert report[field] == slow_reference[field], (
                f"{field}: resumed={report[field]!r}"
                f" uninterrupted={slow_reference[field]!r}"
            )

        _, stats = second.request("GET", "/v1/stats")
        assert stats["counters"]["service.recovered"] == 1
    finally:
        second.stop()


def test_parked_job_with_retired_config_fields_survives_restart(tmp_path):
    """A queued record from a build that still had the reference-path
    switches is recovered and run on boot, not silently dropped."""
    data_dir = tmp_path / "data"
    store = RunStore(data_dir)
    record = store.allocate(SubmissionSpec.from_dict(FAST_SPEC), client="old")
    with open(store.record_path(record.id)) as handle:
        stored = json.load(handle)
    stored["spec"]["config"] = {"solver_optimize": False, "loop_reuse": False}
    with open(store.record_path(record.id), "w") as handle:
        json.dump(stored, handle)

    reference = report_to_dict(
        run_scenario(
            make_workload(FAST_SPEC["workload"], FAST_SPEC["size"]),
            FAST_SPEC["algorithm"],
        )
    )
    service = ServiceThread(data_dir)
    try:
        done = service.wait_terminal(record.id, timeout=60)
        assert done["state"] == "done"
        assert done["digest"] == record.digest
        status, report = service.request("GET", f"/v1/runs/{record.id}/report")
        assert status == 200
        for field in PINNED_FIELDS:
            assert report[field] == reference[field], field
    finally:
        service.stop()

"""A job whose checkpoint cannot be read starts fresh instead of failing.

The service resumes a job from ``checkpoint.sdeckpt`` whenever the file
exists.  A checkpoint that is corrupt, or was written by a build with
another checkpoint version (a job parked by ``drain`` across an upgrade),
would raise the same ``CheckpointError`` on every retry.  The worker
discards it instead, says so in the trace, and runs the job from the
start; runs are deterministic, so the report equals a fresh run's.
"""

import json

import pytest

from repro.core.reporting import load_report_dict
from repro.core.resilience import save_checkpoint
from repro.core.scenario import build_engine
from repro.obs import load_trace
from repro.service.spec import SubmissionSpec
from repro.service.worker import execute_job

from .test_service import FAST_SPEC, PINNED_FIELDS

#: every deterministic report field a resumed or fresh run must agree on
COMPARED_FIELDS = PINNED_FIELDS + (
    "mapping_stats",
    "solver_queries",
    "accounted_bytes",
    "net_stats",
)


def _payload(job_dir):
    job_dir.mkdir()
    return {
        "spec": SubmissionSpec.from_dict(FAST_SPEC).as_dict(),
        "trace_path": str(job_dir / "trace.jsonl"),
        "report_path": str(job_dir / "report.json"),
        "checkpoint_path": str(job_dir / "checkpoint.sdeckpt"),
        "checkpoint_every": 25,
        "kill_after": None,
    }


def _write_checkpoint(path):
    spec = SubmissionSpec.from_dict(FAST_SPEC)
    engine = build_engine(
        spec.build_scenario(), spec.algorithm, **spec.engine_overrides()
    )
    engine.run_until(split_events=30)
    save_checkpoint(engine, path)


def _corrupt(path):
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF
    path.write_bytes(bytes(raw))


def _old_version(path):
    magic, header_bytes, body = path.read_bytes().split(b"\n", 2)
    header = json.loads(header_bytes)
    header["version"] -= 1
    path.write_bytes(
        magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + body
    )


@pytest.mark.parametrize(
    "damage, reason", [(_corrupt, "integrity"), (_old_version, "version")]
)
def test_unreadable_checkpoint_starts_the_job_fresh(tmp_path, damage, reason):
    fresh_payload = _payload(tmp_path / "fresh")
    fresh = execute_job(fresh_payload)
    assert fresh["ok"] and not fresh["resumed"]

    payload = _payload(tmp_path / "damaged")
    checkpoint = tmp_path / "damaged" / "checkpoint.sdeckpt"
    _write_checkpoint(checkpoint)
    damage(checkpoint)

    summary = execute_job(payload)
    assert summary["ok"]
    assert summary["resumed"] is False
    discarded = [
        event
        for event in load_trace(payload["trace_path"])
        if event["ev"] == "checkpoint.discarded"
    ]
    assert len(discarded) == 1
    assert reason in discarded[0]["reason"]

    report = load_report_dict(payload["report_path"])
    reference = load_report_dict(fresh_payload["report_path"])
    assert report["resumed"] is False
    for field in COMPARED_FIELDS:
        assert report[field] == reference[field], field


def test_readable_checkpoint_still_resumes(tmp_path):
    fresh_payload = _payload(tmp_path / "fresh")
    execute_job(fresh_payload)

    payload = _payload(tmp_path / "resumed")
    _write_checkpoint(tmp_path / "resumed" / "checkpoint.sdeckpt")
    summary = execute_job(payload)
    assert summary["ok"] and summary["resumed"] is True
    report = load_report_dict(payload["report_path"])
    reference = load_report_dict(fresh_payload["report_path"])
    for field in COMPARED_FIELDS:
        assert report[field] == reference[field], field

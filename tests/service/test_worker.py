"""A job whose checkpoint cannot be read starts fresh instead of failing.

The service resumes a job from ``checkpoint.sdeckpt`` whenever the file
exists.  A checkpoint that is corrupt, or was written by a build with
another checkpoint version (a job parked by ``drain`` across an upgrade),
would raise the same ``CheckpointError`` on every retry.  The worker
discards it instead, says so in the trace, and runs the job from the
start; runs are deterministic, so the report equals a fresh run's.

A worker holds each guest program it has compiled, or inherited at
fork from the job manager, for its whole life; a later attempt reuses
it, and the report is the same as when the worker compiles it.

The streamed trace file is byte-for-byte what ``json.dumps(event,
sort_keys=True)`` writes.

Every entry point that checkpoints defaults to one cadence,
``DEFAULT_CHECKPOINT_EVERY_EVENTS``; the shipped default is exercised
here on a job long enough to checkpoint at it.
"""

import json

import pytest

from repro.cli import _checkpoint_overrides, build_parser
from repro.core.config import DEFAULT_CHECKPOINT_EVERY_EVENTS
from repro.core.reporting import load_report_dict
from repro.core.resilience import save_checkpoint
from repro.core.scenario import build_engine
from repro.obs import load_trace
from repro.net.topology import Topology
from repro.service.jobs import JobManager, ServiceLimits
from repro.service.spec import SubmissionSpec
from repro.service.store import RunStore
from repro.service import worker as worker_module
from repro.service.worker import StreamingTraceEmitter, execute_job
from repro.workloads import (
    WORKLOAD_PROGRAMS,
    WORKLOADS,
    make_workload,
    register_workload,
)

from .test_service import FAST_SPEC, PINNED_FIELDS

#: every deterministic report field a resumed or fresh run must agree on
COMPARED_FIELDS = PINNED_FIELDS + (
    "mapping_stats",
    "solver_queries",
    "accounted_bytes",
    "net_stats",
)


#: 2,594 events: five intervals of the default cadence
LONG_SPEC = {"workload": "flood", "size": 6, "algorithm": "sds", "seed": 7}


def _payload(job_dir, spec=FAST_SPEC, checkpoint_every=25):
    job_dir.mkdir()
    return {
        "spec": SubmissionSpec.from_dict(spec).as_dict(),
        "trace_path": str(job_dir / "trace.jsonl"),
        "report_path": str(job_dir / "report.json"),
        "checkpoint_path": str(job_dir / "checkpoint.sdeckpt"),
        "checkpoint_every": checkpoint_every,
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


def test_a_handed_over_program_gives_the_same_report(tmp_path, monkeypatch):
    # An empty table, as in a worker forked before the manager compiled
    # anything: the first attempt compiles the program and keeps it.
    monkeypatch.setattr(worker_module, "_PROGRAMS", {})
    spec = SubmissionSpec.from_dict(FAST_SPEC)
    built = _payload(tmp_path / "built")
    execute_job(built)
    reference = load_report_dict(built["report_path"])
    source = spec.build_scenario().program
    program = worker_module._PROGRAMS[source]

    # The manager hands over the same table entry (a worker forked after
    # it inherits it), compiled once per program.
    manager = JobManager(RunStore(tmp_path / "data"))
    assert manager._program(spec.workload) is program
    assert manager._program("grid").source != source

    # A later attempt in the same process compiles nothing.
    def refuse(source):
        raise AssertionError("a held program was compiled again")

    monkeypatch.setattr(worker_module, "compile_source", refuse)
    handed = _payload(tmp_path / "handed")
    execute_job(handed)
    report = load_report_dict(handed["report_path"])
    for field in COMPARED_FIELDS:
        assert report[field] == reference[field], field


def test_streamed_lines_are_the_json_dumps_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    emitter = StreamingTraceEmitter(path)
    emitter.emit(
        "run.start",
        text="na\u00efve \u2713 \"quoted\"\n",
        ratio=0.1,
        tiny=1e-300,
        big=2**70,
        flag=True,
        none=None,
        nested=[1, {"b": 2, "a": [None, False]}],
    )
    emitter.extend([{"ev": "state.fork", "z": 1, "a": -0.0, "t": 3}])
    emitter.close()
    expected = "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in emitter.events
    )
    assert path.read_bytes() == expected.encode("utf-8")

    # A real job's trace, line by line.
    payload = _payload(tmp_path / "job")
    execute_job(payload)
    lines = open(payload["trace_path"], encoding="utf-8").read().splitlines()
    assert len(lines) > 10
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


def test_every_built_in_program_is_known_up_front():
    for name, source in WORKLOAD_PROGRAMS.items():
        size = Topology.line(3) if name == "dissemination" else 3
        assert make_workload(name, size).program == source, name


def test_a_replaced_workload_compiles_its_own_program(tmp_path, monkeypatch):
    # Restored after the test: register_workload edits both tables.
    monkeypatch.setitem(WORKLOADS, "flood", WORKLOADS["flood"])
    monkeypatch.setitem(WORKLOAD_PROGRAMS, "flood", WORKLOAD_PROGRAMS["flood"])
    register_workload("flood", lambda size: WORKLOADS["grid"](size))
    manager = JobManager(RunStore(tmp_path / "data"))
    assert manager._program("flood") is None


def test_the_default_cadence_checkpoints_and_resumes(tmp_path):
    payload = _payload(
        tmp_path / "job", LONG_SPEC, DEFAULT_CHECKPOINT_EVERY_EVENTS
    )
    fresh = execute_job(payload)
    assert fresh["ok"] and fresh["resumed"] is False
    assert fresh["events_executed"] > 2 * DEFAULT_CHECKPOINT_EVERY_EVENTS
    assert fresh["checkpoints_written"] >= 2
    reference = load_report_dict(payload["report_path"])

    # The finished attempt left its last checkpoint in the job dir: a
    # second attempt there continues from it, to the same report.
    resumed = execute_job(payload)
    assert resumed["ok"] and resumed["resumed"] is True
    report = load_report_dict(payload["report_path"])
    for field in PINNED_FIELDS:
        assert report[field] == reference[field], field


def test_every_entry_point_defaults_to_one_cadence():
    parser = build_parser()
    serve = parser.parse_args(["serve"])
    run = parser.parse_args(["run", "flood:3", "--checkpoint-out", "x.ckpt"])
    assert ServiceLimits().checkpoint_every_events == (
        DEFAULT_CHECKPOINT_EVERY_EVENTS
    )
    assert serve.checkpoint_every == DEFAULT_CHECKPOINT_EVERY_EVENTS
    assert _checkpoint_overrides(run)["checkpoint_every_events"] == (
        DEFAULT_CHECKPOINT_EVERY_EVENTS
    )


@pytest.mark.parametrize("every", [0, -5])
def test_service_limits_refuse_a_cadence_below_one_event(every):
    with pytest.raises(ValueError, match="checkpoint_every_events"):
        ServiceLimits(checkpoint_every_events=every)

"""The persistent run store: records, transitions, and the dedup index."""

import json

import pytest

from repro.service.spec import SubmissionSpec
from repro.service.store import JOB_STATES, TERMINAL_STATES, RunStore


def make_spec(seed=0):
    return SubmissionSpec.from_dict(
        {"workload": "flood", "size": 3, "seed": seed}
    )


class TestRecords:
    def test_allocate_persists_a_queued_record(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c1")
        assert record.state == "queued"
        assert record.digest == make_spec().digest()
        assert record.id.startswith(record.digest[:8])
        loaded = store.load(record.id)
        assert loaded.as_dict() == record.as_dict()

    def test_mark_transitions_and_stamps_finish(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c1")
        store.mark(record, "running")
        assert store.load(record.id).finished_at is None
        store.mark(record, "done", result={"ok": True})
        loaded = store.load(record.id)
        assert loaded.terminal
        assert loaded.finished_at is not None
        assert loaded.result == {"ok": True}

    def test_mark_rejects_unknown_states(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c1")
        with pytest.raises(ValueError):
            store.mark(record, "exploded")

    def test_corrupt_record_reads_as_missing(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c1")
        with open(store.record_path(record.id), "w") as handle:
            handle.write("{ half a json")
        assert store.load(record.id) is None

    def test_record_with_retired_config_fields_still_loads(self, tmp_path):
        """A record naming engine switches that no longer exist keeps its
        job: the stale keys are dropped, the stored id and digest kept."""
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c1")
        with open(store.record_path(record.id)) as handle:
            stored = json.load(handle)
        stored["spec"]["config"] = {
            "solver_optimize": False,
            "loop_reuse": True,
            "max_states": 50,
        }
        with open(store.record_path(record.id), "w") as handle:
            json.dump(stored, handle)
        loaded = store.load(record.id)
        assert loaded is not None
        assert loaded.id == record.id and loaded.digest == record.digest
        assert loaded.spec.config == {"max_states": 50}
        assert [r.id for r in store.list_records()] == [record.id]

    def test_path_traversal_ids_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.load("../../etc/passwd") is None
        assert store.load("a/b") is None
        assert store.lookup_digest("../oops") is None

    def test_interrupted_records_are_the_nonterminal_ones(self, tmp_path):
        store = RunStore(tmp_path)
        queued = store.allocate(make_spec(0), client="c")
        running = store.allocate(make_spec(1), client="c")
        done = store.allocate(make_spec(2), client="c")
        store.mark(running, "running")
        store.mark(done, "done")
        interrupted = {r.id for r in store.interrupted_records()}
        assert interrupted == {queued.id, running.id}

    def test_state_constants_are_consistent(self):
        assert TERMINAL_STATES < set(JOB_STATES)
        assert "queued" not in TERMINAL_STATES
        assert "running" not in TERMINAL_STATES


class TestDedupIndex:
    def test_digest_published_once_and_resolves(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c")
        store.mark(record, "done")
        store.publish_digest(record.digest, record.id)
        assert store.lookup_digest(record.digest) == record.id
        # first writer wins
        other = store.allocate(make_spec(), client="c")
        store.mark(other, "done")
        store.publish_digest(other.digest, other.id)
        assert store.lookup_digest(record.digest) == record.id

    def test_non_done_jobs_never_resolve(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c")
        store.publish_digest(record.digest, record.id)  # hypothetical bug
        assert store.lookup_digest(record.digest) is None
        store.mark(record, "failed")
        assert store.lookup_digest(record.digest) is None

    def test_unknown_digest_misses(self, tmp_path):
        assert RunStore(tmp_path).lookup_digest("0" * 64) is None


class TestArtifacts:
    def test_report_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        record = store.allocate(make_spec(), client="c")
        with open(store.report_path(record.id), "w") as handle:
            json.dump({"total_states": 24}, handle)
        assert store.load_report(record.id) == {"total_states": 24}
        assert store.load_report("missing") is None

    def test_stats_histogram(self, tmp_path):
        store = RunStore(tmp_path)
        a = store.allocate(make_spec(0), client="c")
        store.allocate(make_spec(1), client="c")
        store.mark(a, "done")
        stats = store.stats()
        assert stats["done"] == 1
        assert stats["queued"] == 1
        assert stats["failed"] == 0

"""Determinism of the realistic medium across every harness.

The medium's loss/jitter draws are pure functions of the run seed and
the logical send, so the same scenario must produce bit-identical
verdicts sequentially, under `DistributedRunner` with a static cut and
with an adaptive one, and through a checkpoint resume — and the
symmetry/POR reducer must refuse to run on a non-symmetric medium rather
than prune unsoundly."""

from __future__ import annotations

import pytest

from repro.core.distributed import DistributedRunner, InlineTransport
from repro.core.resilience import resume_engine, save_checkpoint
from repro.core.scenario import Scenario, build_engine
from repro.net import Topology
from repro.obs import TraceEmitter
from repro.workloads import election_scenario

LOSSY = dict(loss=0.15, jitter_ms=2, seed=7)


def _lossy_scenario():
    return election_scenario(
        5, medium="realistic", medium_params=dict(LOSSY)
    )


#: A reducer-certifiable handler (commutative writes only), so the only
#: thing standing between the reducer and `enabled` is the medium.
CERTIFIABLE = """
var seen = 0;

func on_boot() {
    timer_set(0, 40 + node_id() * 7);
}

func on_timer(tid) {
    var buf[1];
    buf[0] = 1;
    bc_send(buf, 1);
}

func on_recv(src, len) {
    seen = seen + 1;
}
"""


def _certifiable_scenario(medium_params):
    return Scenario(
        name="certifiable-ring",
        program=CERTIFIABLE,
        topology=Topology.ring(4),
        horizon_ms=300,
        medium="realistic",
        medium_params=medium_params,
    )


def _error_signature(report):
    return sorted(
        (s.node, s.error.kind, s.error.code, s.clock)
        for s in report.error_states
    )


def _assert_reports_match(left, right):
    assert left.total_states == right.total_states
    assert left.group_count == right.group_count
    assert left.events_executed == right.events_executed
    assert left.instructions == right.instructions
    assert left.virtual_ms == right.virtual_ms
    assert left.mapping_stats == right.mapping_stats
    assert _error_signature(left) == _error_signature(right)
    assert left.net_stats == right.net_stats


@pytest.fixture(scope="module")
def sequential():
    engine = build_engine(_lossy_scenario(), "sds")
    report = engine.run()
    return engine, report


class TestCrossHarness:
    def test_losses_happened(self, sequential):
        _, report = sequential
        assert report.net_stats["lost"] > 0  # the medium actually bites

    def test_rerun_is_bit_identical(self, sequential):
        _, report = sequential
        again = build_engine(_lossy_scenario(), "sds").run()
        _assert_reports_match(again, report)

    def test_different_net_seed_diverges(self, sequential):
        _, report = sequential
        other = election_scenario(
            5, medium="realistic", medium_params={**LOSSY, "seed": 8}
        )
        other_report = build_engine(other, "sds").run()
        assert other_report.net_stats != report.net_stats

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_matches_sequential(self, sequential, workers):
        engine, report = sequential
        parallel = DistributedRunner(
            _lossy_scenario(),
            "sds",
            workers=workers,
            partition_depth=40,
            steal=False,
        ).run()
        _assert_reports_match(parallel, report)
        assert parallel.state_census() == engine.state_census()

    def test_distributed_matches_sequential(self, sequential):
        engine, report = sequential
        distributed = DistributedRunner(
            _lossy_scenario(),
            "sds",
            workers=2,
            transport=InlineTransport(),
        ).run()
        _assert_reports_match(distributed, report)
        assert distributed.state_census() == engine.state_census()

    def test_checkpoint_resume_matches_sequential(self, sequential, tmp_path):
        engine, report = sequential
        partial = build_engine(_lossy_scenario(), "sds")
        partial.run_until(split_events=40)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(partial, path)
        resumed = resume_engine(path)
        resumed_report = resumed.run()
        assert resumed_report.resumed
        _assert_reports_match(resumed_report, report)
        assert resumed.state_census() == engine.state_census()


class TestReducerSoundness:
    def test_reducer_self_disables_on_lossy_medium(self):
        trace = TraceEmitter()
        engine = build_engine(
            _certifiable_scenario(dict(LOSSY)),
            "sds",
            symmetry=True,
            por=True,
            trace=trace,
        )
        assert not engine.reducer.enabled
        assert "realistic" in engine.reducer.disable_reason
        engine.run()
        disabled = [
            e for e in trace.events if e["ev"] == "reduce.disabled"
        ]
        assert disabled and "node-symmetric" in disabled[0]["reason"]

    def test_verdicts_pinned_reduction_on_vs_off(self):
        # On the lossy election workload (uncertifiable handler) AND the
        # certifiable broadcast workload (medium-disabled): flags on must
        # change nothing.
        for factory in (
            _lossy_scenario,
            lambda: _certifiable_scenario(dict(LOSSY)),
        ):
            off = build_engine(factory(), "sds").run()
            on = build_engine(
                factory(), "sds", symmetry=True, por=True
            ).run()
            _assert_reports_match(on, off)

    def test_reducer_still_enables_on_lossless_realistic(self):
        engine = build_engine(
            _certifiable_scenario({}), "sds", symmetry=True
        )
        assert engine.reducer.enabled

"""Phase profiling with registry timers: timing, re-entrancy, merging."""

import time

import pytest

from repro import build_engine
from repro.core.distributed import DistributedRunner, InlineTransport
from repro.obs import MetricsRegistry, Timer
from repro.obs.metrics import merge_snapshots
from repro.workloads import flood_scenario


class _Owner:
    """Holds a pre-bound timer, as the engine and the solver do."""

    def __init__(self):
        self.execute = Timer("execute")
        self.handles = (self.execute,)


class TestPhaseProfiler:
    def test_phase_counts_and_times(self):
        registry = MetricsRegistry()
        with registry.timer("solve"):
            time.sleep(0.01)
        with registry.timer("solve"):
            pass
        snapshot = registry.snapshot()["timers"]
        assert snapshot["solve"]["count"] == 2
        assert snapshot["solve"]["seconds"] >= 0.01

    def test_phase_handles_are_cached(self):
        registry = MetricsRegistry()
        assert registry.timer("map") is registry.timer("map")
        owner = _Owner()
        registry.adopt(owner)
        assert registry.timer("execute") is owner.execute

    def test_reentrant_phase_counts_once_per_outermost_entry(self):
        timer = Timer("execute")
        with timer:
            with timer:  # nested re-entry must not double-count time
                time.sleep(0.005)
        assert timer.count == 1
        assert 0.005 <= timer.seconds < 5

    def test_exception_still_stops_the_timer(self):
        timer = Timer("solve")
        with pytest.raises(RuntimeError):
            with timer:
                with timer:
                    raise RuntimeError("boom")
        assert timer._depth == 0
        with timer:
            pass
        assert timer.count == 2

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        with registry.timer("zeta"):
            pass
        with registry.timer("alpha"):
            pass
        assert list(registry.snapshot()["timers"]) == ["alpha", "zeta"]


def _timed(**phases):
    registry = MetricsRegistry()
    for name, (count, seconds) in phases.items():
        timer = registry.timer(name)
        timer.count, timer.seconds = count, seconds
    return registry.snapshot()


class TestMergeSnapshots:
    def test_merge_sums_counts_and_seconds(self):
        merged = merge_snapshots(
            [
                _timed(execute=(2, 1.0)),
                _timed(execute=(3, 0.5), solve=(1, 0.1)),
            ]
        )
        assert merged["timers"]["execute"] == {"count": 5, "seconds": 1.5}
        assert merged["timers"]["solve"] == {"count": 1, "seconds": 0.1}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([])["timers"] == {}

    def test_install_restores_into_adopted_timers(self):
        source = MetricsRegistry()
        with source.timer("execute"):
            pass
        owner, restored = _Owner(), MetricsRegistry()
        restored.adopt(owner)
        restored.install(source.snapshot())
        assert owner.execute.count == 1
        assert owner.execute.seconds == source.timer("execute").seconds


class TestEngineIntegration:
    def test_run_report_carries_phases(self):
        report = build_engine(flood_scenario(3, rounds=2), "sds").run()
        assert report.phases["execute"]["count"] == report.events_executed
        assert "map" in report.phases
        assert "solve" in report.phases
        # map and solve nest inside execute, so execute dominates.
        assert (
            report.phases["execute"]["seconds"]
            >= report.phases["map"]["seconds"]
        )

    def test_summary_mentions_phases(self):
        report = build_engine(flood_scenario(3, rounds=1), "sds").run()
        assert "phase execute" in report.summary()

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "processes"])
    def test_distributed_report_merges_phases(self, inline):
        transport = InlineTransport() if inline else None
        runner = DistributedRunner(
            flood_scenario(4, rounds=3), "sds", workers=2, transport=transport
        )
        report = runner.run()
        assert report.partition_count >= 1  # the jobs ran some events
        assert report.phases["execute"]["count"] == report.events_executed
        assert report.phases["merge"]["count"] == 1
        counters = report.metrics["counters"]
        assert counters["phase.execute.count"] == report.events_executed
        assert "timers" not in report.metrics

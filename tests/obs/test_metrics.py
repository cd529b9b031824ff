"""The metrics registry and the run-report metrics snapshot contract."""

import json

import pytest

from repro import build_engine
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Histogram,
    MetricsRegistry,
    save_metrics,
    validate_metrics,
)
from repro.obs.metrics import merge_snapshots
from repro.workloads import flood_scenario


class TestHistogram:
    def test_observe_buckets_by_power_of_two(self):
        histogram = Histogram("h", bounds=(1, 2, 4))
        for value in (0, 1, 2, 3, 4, 5, 100):
            histogram.observe(value)
        data = histogram.data()
        assert data["buckets"] == [2, 1, 2, 2]  # <=1, <=2, <=4, overflow
        assert data["count"] == 7
        assert data["total"] == 115
        assert data["min"] == 0 and data["max"] == 100

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 2))

    def test_merge_data_is_exact(self):
        a, b = Histogram("h"), Histogram("h")
        for value in (1, 5, 9):
            a.observe(value)
        for value in (2, 700, 3000):
            b.observe(value)
        merged = Histogram.merge_data([a.data(), None, b.data()])
        assert merged["count"] == 6
        assert merged["total"] == 1 + 5 + 9 + 2 + 700 + 3000
        assert merged["min"] == 1 and merged["max"] == 3000
        assert sum(merged["buckets"]) == 6

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram("h", bounds=(1, 2))
        b = Histogram("h", bounds=(1, 2, 4))
        with pytest.raises(ValueError):
            Histogram.merge_data([a.data(), b.data()])


class TestRegistry:
    def test_metrics_are_idempotent_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_sorted_and_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(2)
        registry.counter("a.first").inc()
        registry.gauge("mid").set(1.5)
        registry.set_label("algorithm", "sds")
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA_VERSION
        assert list(snapshot["counters"]) == ["a.first", "z.last"]
        json.dumps(snapshot)  # must be plain JSON types


class _Subsystem:
    """Holds pre-bound handles, as the mapper, solver and medium do."""

    def __init__(self):
        self.hits = Counter("sub.hits")
        self.sizes = Histogram("sub.sizes", bounds=(1, 2, 4))
        self.handles = (self.hits, self.sizes)


def _adopted(hits=0, sizes=()):
    subsystem, registry = _Subsystem(), MetricsRegistry()
    registry.adopt(subsystem)
    subsystem.hits.value = hits
    for size in sizes:
        subsystem.sizes.observe(size)
    return subsystem, registry


class TestAdoptInstallMerge:
    def test_adopt_shares_the_handles(self):
        subsystem, registry = _adopted()
        subsystem.hits.value += 3
        subsystem.sizes.observe(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"sub.hits": 3}
        assert snapshot["histograms"]["sub.sizes"]["count"] == 1
        assert registry.counter("sub.hits") is subsystem.hits

    def test_second_handle_under_a_taken_name_rejected(self):
        _, registry = _adopted()
        with pytest.raises(ValueError):
            registry.adopt(_Subsystem())

    def test_install_round_trips_into_adopted_handles(self):
        source, registry = _adopted(hits=7, sizes=(1, 3, 9))
        registry.gauge("g").set(2.5)
        registry.set_label("algorithm", "sds")
        snapshot = json.loads(json.dumps(registry.snapshot()))
        target, restored = _adopted()
        restored.install(snapshot)
        assert restored.snapshot() == snapshot
        assert target.hits.value == 7
        assert target.sizes.data() == source.sizes.data()

    def test_install_rejects_foreign_histogram_bounds(self):
        _, registry = _adopted(sizes=(1,))
        snapshot = registry.snapshot()
        snapshot["histograms"]["sub.sizes"]["bounds"] = [1, 2, 3]
        with pytest.raises(ValueError, match="bounds"):
            registry.install(snapshot)

    def test_merge_sums_counters_and_merges_histograms(self):
        parts = [
            _adopted(hits=2, sizes=(1, 5))[1].snapshot(),
            _adopted(hits=3, sizes=(2,))[1].snapshot(),
            _adopted()[1].snapshot(),
        ]
        merged = merge_snapshots(parts)
        assert merged["counters"] == {"sub.hits": 5}
        histogram = merged["histograms"]["sub.sizes"]
        assert (histogram["count"], histogram["total"]) == (3, 8)
        assert (histogram["min"], histogram["max"]) == (1, 5)


class TestReportSnapshot:
    @pytest.fixture(scope="class")
    def report(self):
        return build_engine(flood_scenario(3, rounds=2), "sds").run()

    def test_snapshot_validates(self, report):
        assert validate_metrics(report.metrics) == []

    def test_counters_match_report_fields(self, report):
        counters = report.metrics["counters"]
        assert counters["run.events_executed"] == report.events_executed
        assert counters["states.total"] == report.total_states
        assert counters["mapping.groups"] == report.group_count
        assert counters["solver.queries"] == report.solver_queries
        assert (
            counters["net.broadcasts_sent"]
            == report.net_stats["broadcasts_sent"]
        )

    def test_stats_views_read_the_registry(self, report):
        counters = report.registry["counters"]
        assert report.net_stats["broadcasts_sent"] == counters["net.broadcasts_sent"]
        assert report.cache_stats["miss"] == counters["solver.cache.miss"]
        assert not any(name.startswith("cache.") for name in report.solver_stats)
        assert report.reduce_stats == {}  # no reducer without symmetry/POR

    def test_phases_surface_as_metrics(self, report):
        assert report.metrics["counters"]["phase.execute.count"] > 0
        assert report.metrics["gauges"]["phase.execute.seconds"] >= 0

    def test_query_histogram_included(self, report):
        data = report.metrics["histograms"]["solver.query.conjuncts"]
        assert data["count"] == report.solver_queries

    def test_save_round_trips(self, report, tmp_path):
        path = tmp_path / "metrics.json"
        save_metrics(report.metrics, path)
        loaded = json.loads(path.read_text())
        assert loaded == report.metrics
        assert validate_metrics(loaded) == []


class TestValidateMetrics:
    def test_rejects_non_object(self):
        assert validate_metrics([1, 2]) != []

    def test_rejects_wrong_schema_version(self):
        snapshot = MetricsRegistry().snapshot()
        snapshot["schema"] = 999
        assert any("schema" in e for e in validate_metrics(snapshot))

    def test_rejects_negative_counter(self):
        registry = MetricsRegistry()
        registry.counter("run.events_executed").value = -1
        registry.counter("states.total")
        registry.counter("mapping.groups")
        registry.counter("solver.queries")
        errors = validate_metrics(registry.snapshot())
        assert any("non-negative" in e for e in errors)

    def test_rejects_inconsistent_histogram(self):
        registry = MetricsRegistry()
        for name in (
            "run.events_executed",
            "states.total",
            "mapping.groups",
            "solver.queries",
        ):
            registry.counter(name)
        histogram = registry.histogram("h", bounds=(1, 2))
        histogram.observe(1)
        histogram.count = 5  # bucket sum no longer matches
        errors = validate_metrics(registry.snapshot())
        assert any("bucket counts" in e for e in errors)

    def test_reports_missing_required_counters(self):
        errors = validate_metrics(MetricsRegistry().snapshot())
        assert any("run.events_executed" in e for e in errors)

"""Unit tests for the benchmark harness library (repro.bench)."""

import io

from repro.bench import (
    full_scale,
    log_sparkline,
    render_series,
    render_table1,
    run_algorithms,
    series_csv,
)
from repro.bench.report import memory_label, runtime_label
from repro.core.engine import RunReport
from repro.core.scenario import run_scenario
from repro.workloads import line_scenario


def rows_for(factory=lambda: line_scenario(3, sim_seconds=2)):
    return run_algorithms(factory)


class TestRunner:
    def test_run_scenario_row_fields(self):
        report = run_scenario(line_scenario(3, sim_seconds=2), "sds")
        assert isinstance(report, RunReport)
        assert report.algorithm == "sds"
        assert report.total_states > 0
        assert report.group_count >= 1
        assert not report.aborted
        assert report.samples

    def test_run_algorithms_order(self):
        rows = rows_for()
        assert [r.algorithm for r in rows] == ["cob", "cow", "sds"]

    def test_cob_caps_apply(self):
        rows = run_algorithms(
            lambda: line_scenario(4, sim_seconds=3),
            cob_max_states=1,
        )
        cob = rows[0]
        assert cob.aborted

    def test_unset_caps_keep_the_scenarios_own(self):
        from repro.workloads import grid_scenario

        rows = run_algorithms(
            lambda: grid_scenario(3, sim_seconds=3, max_states=1), ("cob",)
        )
        assert rows[0].aborted

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.delenv("SDE_FULL", raising=False)
        assert not full_scale()
        monkeypatch.setenv("SDE_FULL", "1")
        assert full_scale()

    def test_runtime_labels(self):
        assert runtime_label(0.731) == "0.73s"
        assert runtime_label(75) == "1m:15s"
        assert runtime_label(2 * 3600 + 600) == "2h:10m"

    def test_memory_labels(self):
        assert memory_label(5_000_000) == "5.0 MB"
        assert memory_label(2_500_000_000) == "2.5 GB"


class TestReport:
    def test_render_table1_contains_rows(self):
        rows = rows_for()
        text = render_table1(rows, "test table")
        assert "Copy On Branch (COB)" in text
        assert "Super DStates (SDS)" in text
        assert "test table" in text

    def test_ram_column_is_the_peak(self):
        # The paper's RAM column is peak memory, not the final accounting.
        report = run_scenario(line_scenario(3, sim_seconds=2), "sds")
        report.samples.append(report.samples[-1]._replace(accounted_bytes=7_000_000))
        text = render_table1([report], "t")
        assert "7.0 MB" in text
        assert memory_label(report.accounted_bytes) not in text

    def test_aborted_marker(self):
        rows = run_algorithms(
            lambda: line_scenario(4, sim_seconds=3), cob_max_states=1
        )
        text = render_table1(rows, "t")
        assert "(aborted)" in text

    def test_render_series_both_metrics(self):
        rows = rows_for()
        for metric in ("states", "memory"):
            text = render_series(rows, metric, "series")
            assert "COB" in text and "SDS" in text
            assert "final=" in text

    def test_series_csv_shape(self):
        rows = rows_for()
        buffer = io.StringIO()
        series_csv(rows, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("algorithm,wall_seconds")
        assert len(lines) > 3
        assert all(line.count(",") == 7 for line in lines)

    def test_log_sparkline_monotone_inputs(self):
        line = log_sparkline([1, 10, 100, 1000])
        assert len(line) == 4
        assert line[0] == " " or line[0] == "."
        assert line[-1] == "@"

    def test_log_sparkline_empty_and_zero(self):
        assert log_sparkline([]) == ""
        assert log_sparkline([0, 0]) == "  "

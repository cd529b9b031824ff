"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


class TestRun:
    def test_run_line(self, capsys):
        assert main(["run", "line:3", "--sim-seconds", "2"]) == 0
        out = capsys.readouterr().out
        assert "Super DStates" in out
        assert "line-3" in out

    def test_run_algorithm_choice(self, capsys):
        assert main(
            ["run", "line:3", "--algorithm", "cob", "--sim-seconds", "2"]
        ) == 0
        assert "Copy On Branch" in capsys.readouterr().out

    def test_run_flood(self, capsys):
        assert main(["run", "flood:3", "--sim-seconds", "1"]) == 0
        assert "flood-3" in capsys.readouterr().out

    def test_bad_scenario_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "torus", "--sim-seconds", "1"])

    def test_unknown_scenario_kind(self):
        with pytest.raises(SystemExit):
            main(["run", "torus:3", "--sim-seconds", "1"])


class TestCompare:
    def test_compare_prints_all_algorithms(self, capsys):
        assert main(["compare", "line:3", "--sim-seconds", "2"]) == 0
        out = capsys.readouterr().out
        for label in ("Copy On Branch", "Copy On Write", "Super DStates"):
            assert label in out


class TestCompile:
    def test_compile_and_disassemble(self, tmp_path, capsys):
        source = tmp_path / "node.nsl"
        source.write_text("var x; func on_boot() { x = node_id(); }")
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "func on_boot()" in out
        assert "SYS" in out


class TestTestcases:
    def test_emits_testcases(self, capsys):
        assert main(
            ["testcases", "line:3", "--sim-seconds", "2", "--limit", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "testcase" in out
        assert "drop" in out


class TestResilienceCLI:
    def _report(self, tmp_path, name, extra):
        import json

        path = tmp_path / name
        code = main(
            ["run", "grid:3", "--sim-seconds", "4", "--json", str(path)]
            + extra
        )
        assert code == 0
        return json.loads(path.read_text())

    def test_checkpoint_then_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "run.sdeckpt"
        baseline = self._report(tmp_path, "baseline.json", [])
        checkpointed = self._report(
            tmp_path,
            "checkpointed.json",
            ["--checkpoint-out", str(ckpt), "--checkpoint-every", "40"],
        )
        assert checkpointed["checkpoints_written"] >= 2
        assert ckpt.exists()
        out = capsys.readouterr().out
        assert "checkpoints written" in out

        resumed_path = tmp_path / "resumed.json"
        assert main(
            ["run", "--resume", str(ckpt), "--json", str(resumed_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        import json

        resumed = json.loads(resumed_path.read_text())
        assert resumed["resumed"] is True
        for key in (
            "total_states",
            "group_count",
            "events_executed",
            "instructions",
            "mapping_stats",
            "errors",
            "accounted_bytes",
            "solver_queries",
        ):
            assert resumed[key] == baseline[key], key

    def test_resume_rejects_corrupt_checkpoint(self, tmp_path):
        ckpt = tmp_path / "bad.sdeckpt"
        ckpt.write_bytes(b"not a checkpoint at all")
        with pytest.raises(SystemExit):
            main(["run", "--resume", str(ckpt)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "flood:3", "--checkpoint-out", "c.sdeckpt",
             "--checkpoint-every", "0"],
            ["run", "flood:3", "--checkpoint-out", "c.sdeckpt",
             "--checkpoint-every", "-5"],
            ["run", "flood:3", "--checkpoint-out", "c.sdeckpt",
             "--checkpoint-every-seconds", "0"],
            ["run", "flood:3", "--checkpoint-out", "c.sdeckpt",
             "--checkpoint-every-seconds", "-0.5"],
            ["serve", "--checkpoint-every", "0"],
            ["serve", "--checkpoint-every", "-5"],
        ],
    )
    def test_invalid_cadence_is_a_usage_error(self, capsys, monkeypatch, argv):
        # Before, 0 fell back to the default and a negative cadence
        # checkpointed after every event.  Parsing fails before any run;
        # should it not, fail rather than serve forever.
        monkeypatch.setattr(
            "repro.service.serve_main", lambda *a, **k: pytest.fail("served")
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err

    def test_fractional_cadence_in_seconds_is_accepted(self, tmp_path):
        flags = [
            "--checkpoint-out",
            str(tmp_path / "run.sdeckpt"),
            "--checkpoint-every-seconds",
            "0.5",
        ]
        args = build_parser().parse_args(["run", "grid:3"] + flags)
        assert args.checkpoint_every_seconds == 0.5
        report = self._report(tmp_path, "fractional.json", flags)
        assert not report["aborted"]

    def test_scenario_required_without_resume(self):
        with pytest.raises(SystemExit, match="scenario"):
            main(["run", "--sim-seconds", "2"])

    def test_chaos_kill_recovers_and_reports_retries(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        baseline_path = tmp_path / "seq.json"
        assert main(
            ["run", "flood:4", "--sim-seconds", "6", "--json", str(baseline_path)]
        ) == 0
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        chaos_path = tmp_path / "chaos.json"
        assert main(
            [
                "run",
                "flood:4",
                "--sim-seconds",
                "6",
                "--workers",
                "2",
                "--json",
                str(chaos_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "worker retries   :" in out
        baseline = json.loads(baseline_path.read_text())
        chaos = json.loads(chaos_path.read_text())
        assert chaos["retries"] >= 2
        assert chaos["partial"] is False
        for key in ("total_states", "events_executed", "instructions"):
            assert chaos[key] == baseline[key], key


class TestNetworkFlags:
    def test_run_election(self, capsys):
        assert main(["run", "election:4"]) == 0
        assert "election-ring-4" in capsys.readouterr().out

    def test_run_quorum(self, capsys):
        assert main(["run", "quorum:3"]) == 0
        assert "quorum-ring-3" in capsys.readouterr().out

    def test_link_flags_imply_realistic(self, capsys):
        assert main(
            ["run", "election:4", "--link-loss", "0.2", "--net-seed", "5"]
        ) == 0
        assert "election-ring-4" in capsys.readouterr().out

    def test_medium_flag_on_paper_workload(self, capsys):
        assert main(
            ["run", "line:3", "--sim-seconds", "2", "--medium", "realistic"]
        ) == 0
        assert "line-3" in capsys.readouterr().out

    def test_ideal_with_link_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    "election:4",
                    "--medium",
                    "ideal",
                    "--link-loss",
                    "0.2",
                ]
            )

    def test_net_seed_changes_lossy_outcome(self, tmp_path):
        import json

        reports = {}
        for seed in ("1", "2"):
            path = tmp_path / f"r{seed}.json"
            assert main(
                [
                    "run",
                    "election:4",
                    "--link-loss",
                    "0.3",
                    "--net-seed",
                    seed,
                    "--json",
                    str(path),
                ]
            ) == 0
            reports[seed] = json.loads(path.read_text())["net_stats"]
        assert reports["1"] != reports["2"]

"""Tests for the `python -m repro.experiments` report generator."""

import json

import pytest

from repro.experiments.__main__ import main


class TestCli:
    def test_quick_single_figure(self, capsys, tmp_path):
        exit_code = main(
            ["--quick", "--only", "fig4d", "--out", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Figure 4(d)" in captured.out
        assert (tmp_path / "fig4d.txt").exists()
        assert "Figure 4(d)" in (tmp_path / "fig4d.txt").read_text()

    def test_only_filter_skips_others(self, capsys):
        main(["--quick", "--only", "fig5g"])
        captured = capsys.readouterr()
        assert "Figure 5(g)" in captured.out
        assert "Figure 4(d)" not in captured.out

    def test_unknown_only_runs_nothing(self, capsys):
        exit_code = main(["--quick", "--only", "nonexistent"])
        assert exit_code == 0
        assert "Figure" not in capsys.readouterr().out


class TestObserveFlag:
    def test_observe_prints_breakdown_and_writes_every_export(
        self, capsys, tmp_path
    ):
        from repro.obs.export import validate_chrome_trace

        exit_code = main(
            ["--quick", "--only", "fig5c", "--observe", "--out", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Per-stage breakdown" in out
        assert "fig5c.analytic.02.AnalyticAccuracy" in out
        assert "fig5c.analytic.02.AnalyticAccuracy" in (
            tmp_path / "metrics.txt"
        ).read_text()
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["fig5c.analytic.runs"]["value"] == 1
        trace = validate_chrome_trace((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"]
        dump = json.loads((tmp_path / "trace.provenance.json").read_text())
        assert dump["spans"] and dump["provenance"]


class TestSloFlags:
    def test_slo_evaluates_rules_and_writes_artifacts(
        self, capsys, tmp_path
    ):
        exit_code = main(
            [
                "--quick",
                "--only",
                "fig5c",
                "--slo",
                "ci_width p95 <= 1e6",
                "--slo",
                "de_facto_n p5 >= 2",
                "--health",
                "--out",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 rules" in out
        assert "SLO health" in out
        frames = json.loads((tmp_path / "slo_frames.json").read_text())
        assert frames["frames"]
        for line in (
            (tmp_path / "slo_alerts.jsonl").read_text().splitlines()
        ):
            json.loads(line)
        health = (tmp_path / "slo_health.txt").read_text()
        assert "ci_width p95 <= 1e+06" in health
        assert "de_facto_n p5 >= 2" in health

    def test_health_without_slo_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--quick", "--only", "fig5c", "--health"])
        assert "--health requires" in capsys.readouterr().err

    def test_malformed_rule_raises_before_running(self):
        from repro.errors import ObservabilityError

        with pytest.raises(ObservabilityError):
            main(["--quick", "--only", "fig5c", "--slo", "ci_width ??"])

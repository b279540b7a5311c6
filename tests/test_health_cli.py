"""CLI coverage: repro run's health, dashboard and --metrics outputs."""

import json

import pytest

from repro.cli import main

RUN_ARGS = ["--machine", "frontier", "-p", "2", "--nl", "256", "-b", "64"]


class TestHealthCommand:
    def test_slow_rank_flagged_json(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        rc = main(["run", *RUN_ARGS, "--slow-rank", "1",
                   "--health-json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.health/v1"
        assert 1 in doc["degraded_ranks"]
        assert any(
            f["kind"] == "straggler_drift" for f in doc["findings"]
        )

    def test_clean_run_text_and_exit_zero(self, capsys):
        rc = main(["run", *RUN_ARGS, "--fail-on-findings"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "health report" in out
        assert "none — run looks healthy" in out

    def test_fail_on_findings_gate(self):
        assert main(["run", *RUN_ARGS, "--fail-on-findings"]) == 0
        assert main(["run", *RUN_ARGS, "--slow-rank", "1",
                     "--fail-on-findings"]) == 1

    def test_slow_rank_out_of_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", *RUN_ARGS, "--slow-rank", "99"])

    def test_lint_accepts_generated_report(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        main(["run", *RUN_ARGS, "--slow-rank", "1",
              "--health-json", str(out)])
        rc = main(["lint", str(out), "--select", "health-report"])
        assert rc == 0


class TestDashboardCommand:
    def test_simulated_dashboard_is_self_contained(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        rc = main(["run", *RUN_ARGS, "--slow-rank", "1",
                   "--dashboard", str(out)])
        assert rc == 0
        html = out.read_text()
        assert "<!DOCTYPE html>" in html
        assert "straggler_drift" in html
        for marker in ("http://", "https://", "<script src"):
            assert marker not in html

    def test_dashboard_from_exported_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        health = tmp_path / "health.json"
        assert main(["run", *RUN_ARGS, "--chrome-trace", str(trace),
                     "--health-json", str(health)]) == 0
        out = tmp_path / "dash.html"
        rc = main(["dashboard", "--trace", str(trace),
                   "--health", str(health), "--out", str(out)])
        assert rc == 0
        assert "Per-rank timeline" in out.read_text()

    def test_dashboard_needs_an_input(self):
        with pytest.raises(SystemExit, match="--trace"):
            main(["dashboard"])

    def test_dashboard_takes_no_run_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main(["dashboard", *RUN_ARGS])


class TestMetricsFormat:
    def test_prometheus_format_has_quantiles(self, capsys):
        rc = main(["run", *RUN_ARGS, "--metrics", "prometheus"])
        assert rc == 0
        out = capsys.readouterr().out
        assert 'quantile="0.5"' in out
        assert 'quantile="0.99"' in out
        assert "# TYPE" in out

    def test_table_is_default(self, capsys):
        rc = main(["run", *RUN_ARGS, "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric" in out
        assert "# TYPE" not in out

"""Tests for the fleet observability layer: analytics document, schema
checker, renderers, and the ``repro fleet`` CLI surface.

The axis coverage invariant the tentpole promises: after any sweep,
the fleet heatmap has one cell per stored (grid, bcast, scenario)
combination and explicitly lists the combinations with no row.
"""

import json

import pytest

from repro.campaign import CampaignEngine, Job, JobQueue, ResultStore, RunCache
from repro.errors import ConfigurationError
from repro.obs.fleet import (
    FLEET_SCHEMA,
    build_fleet,
    check_fleet_document,
    render_fleet_csv,
    render_fleet_text,
)

CODE = "fleet-test-v1"

SCENARIO = {
    "schema": "repro.scenario/v1",
    "name": "limp1",
    "injections": [
        {"kind": "limplock", "rank": 1, "factor": 6.0, "onset_frac": 0.25}
    ],
}


def _job(grid=2, bcast="bcast", **kw):
    kw.setdefault("machine", "frontier")
    kw.setdefault("nl", 3072)
    kw.setdefault("block", 768)
    kw.setdefault("num_runs", 2)
    return Job(grid=grid, bcast=bcast, **kw)


@pytest.fixture()
def swept(tmp_path):
    """A 2x2x1 sweep's store (grid × bcast, baseline scenario)."""
    store = ResultStore(tmp_path / "store.jsonl")
    engine = CampaignEngine(
        store, RunCache(tmp_path / "cache"), workers=1, log=lambda _m: None
    )
    jobs = [
        _job(grid=g, bcast=b)
        for g in (2, 4) for b in ("bcast", "ring2m")
    ]
    engine.run_sweep(jobs, JobQueue(tmp_path / "q.json"), code=CODE)
    return store


class TestBuildFleet:
    def test_document_is_valid_and_covers_every_cell(self, swept):
        doc = build_fleet(swept)
        assert doc["schema"] == FLEET_SCHEMA
        assert check_fleet_document(doc) == []
        heatmap = doc["heatmap"]
        assert heatmap["grids"] == ["2x2", "4x4"]
        assert heatmap["bcasts"] == ["bcast", "ring2m"]
        assert heatmap["scenarios"] == ["baseline"]
        assert len(heatmap["cells"]) == 4
        assert heatmap["missing"] == []
        covered = {
            (c["grid"], c["bcast"], c["scenario"])
            for c in heatmap["cells"]
        }
        assert len(covered) == 4

    def test_missing_axis_combinations_listed(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        engine = CampaignEngine(
            store, RunCache(tmp_path / "cache"), log=lambda _m: None
        )
        jobs = [_job(grid=2, bcast="bcast"),
                _job(grid=4, bcast="ring2m")]
        engine.run_sweep(jobs, JobQueue(tmp_path / "q.json"), code=CODE)
        heatmap = build_fleet(store)["heatmap"]
        assert len(heatmap["cells"]) == 2
        assert {(m["grid"], m["bcast"]) for m in heatmap["missing"]} == {
            ("2x2", "ring2m"), ("4x4", "bcast"),
        }

    def test_best_and_worst_cells_identified(self, swept):
        doc = build_fleet(swept)
        cells = doc["heatmap"]["cells"]
        by_gfs = sorted(cells, key=lambda c: c["gflops_per_gcd"])
        assert doc["best"]["cell"]["key"] == by_gfs[-1]["key"]
        assert doc["worst"]["cell"]["key"] == by_gfs[0]["key"]

    def test_phase_attribution_from_profile_artifacts(self, swept, tmp_path):
        doc0 = build_fleet(swept)
        best_key = doc0["best"]["cell"]["key"]
        profile = {
            "schema": "repro.obs.profile/v1",
            "phase_seconds": {"gemm": 1.5, "panel": 0.5},
            "critical_path": {"bounding_phase": "gemm"},
        }
        art = tmp_path / "artifacts"
        art.mkdir()
        (art / f"{best_key}.profile.json").write_text(json.dumps(profile))
        doc = build_fleet(swept, artifacts=art)
        assert doc["best"]["bounding_phase"] == "gemm"
        assert doc["best"]["phase_seconds"]["gemm"] == 1.5
        assert doc["worst"]["phase_seconds"] is None

    def test_health_rollup_counts_findings(self, swept, tmp_path):
        keys = swept.keys()
        art = tmp_path / "artifacts"
        art.mkdir()
        (art / f"{keys[0]}.health.json").write_text(json.dumps({
            "schema": "repro.obs.health/v1",
            "findings": [
                {"kind": "limplock", "severity": "critical"},
                {"kind": "straggler_drift", "severity": "warning"},
            ],
            "watchdog": {"tripped": False},
        }))
        (art / f"{keys[1]}.health.json").write_text(json.dumps({
            "schema": "repro.obs.health/v1",
            "findings": [],
            "watchdog": {"tripped": False},
        }))
        health = build_fleet(swept, artifacts=art)["rollup"]["health"]
        assert health["documents"] == 2
        assert health["findings"] == 2
        assert health["by_severity"] == {"critical": 1, "warning": 1}
        assert health["by_kind"] == {"limplock": 1, "straggler_drift": 1}
        assert health["unhealthy_keys"] == [keys[0]]

    def test_cache_rollup_from_summary(self, swept, tmp_path):
        summary = {
            "schema": "repro.campaign.summary/v1",
            "cache_hit_ratio": 0.5, "computed": 2, "cached": 2,
            "failed": 0, "wall_s": 1.0, "workers": 2,
        }
        p = tmp_path / "summary.json"
        p.write_text(json.dumps(summary))
        cache = build_fleet(swept, summary=p)["rollup"]["cache"]
        assert cache["cache_hit_ratio"] == 0.5
        assert cache["cached"] == 2
        assert build_fleet(swept)["rollup"]["cache"] is None

    def test_worker_utilization_from_row_meta(self, swept):
        workers = build_fleet(swept)["workers"]
        assert workers["jobs"] == 4
        (w,) = workers["per_worker"]
        assert w["worker"] == "MainProcess"
        assert w["jobs"] == 4
        assert w["queue_wait_s"]["max"] >= 0.0
        assert w["run_s"]["total"] > 0.0
        assert len(workers["timeline"]) == 4
        for entry in workers["timeline"]:
            assert entry["end_s"] >= entry["start_s"] >= 0.0

    def test_trend_gate_flags_regressions(self, swept, tmp_path):
        fast = ResultStore(tmp_path / "fast.jsonl")
        for key in swept.keys():
            row = json.loads(json.dumps(swept.get(key)))
            row["best"]["elapsed_s"] *= 0.5
            fast.put(row)
        doc = build_fleet(swept, baselines=[str(fast.path)])
        assert doc["regressed"] is True
        (entry,) = doc["trend"]
        assert entry["regressed"] is True
        assert all(c["regressed"] for c in entry["cells"])
        clean = build_fleet(swept, baselines=[str(swept.path)])
        assert clean["regressed"] is False

    def test_store_export_input(self, swept, tmp_path):
        export = tmp_path / "export.json"
        export.write_text(json.dumps(swept.export_document()))
        doc = build_fleet(export)
        assert len(doc["heatmap"]["cells"]) == 4

    def test_rejects_non_store_input(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"schema": "repro.trace/v1"}))
        with pytest.raises(ConfigurationError, match="not a campaign store"):
            build_fleet(p)


class TestRenderers:
    def test_text_report_names_the_axes(self, swept):
        text = render_fleet_text(build_fleet(swept))
        assert "GF/s per GCD — scenario: baseline" in text
        assert "ring2m" in text and "4x4" in text
        assert "worker utilization" in text
        assert "MainProcess" in text

    def test_csv_has_one_row_per_cell(self, swept):
        lines = render_fleet_csv(build_fleet(swept)).strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("grid,bcast,scenario,key,label")


class TestFleetChecker:
    def _findings(self, path, checker="fleet-schema"):
        from repro.analyze import run_analysis

        return run_analysis([str(path)], select=[checker]).findings

    def test_valid_document_passes(self, swept, tmp_path):
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(build_fleet(swept)))
        assert self._findings(p) == []

    def test_broken_document_flagged(self, swept, tmp_path):
        doc = build_fleet(swept)
        del doc["heatmap"]["cells"][0]["key"]
        doc["regressed"] = "nope"
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(doc))
        messages = " ".join(f.message for f in self._findings(p))
        assert "key" in messages and "regressed" in messages

    def test_wrong_schema_tag_still_recognized(self, swept, tmp_path):
        doc = build_fleet(swept)
        doc["schema"] = "repro.obs.fleet/v999"
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(doc))
        assert self._findings(p)

    def test_other_documents_ignored(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"schema": "repro.trace/v1", "events": []}))
        assert self._findings(p) == []

    def test_registered_in_default_suite(self):
        from repro.analyze.checkers import all_checkers

        assert "fleet-schema" in {c.id for c in all_checkers()}

    def test_trace_schema_skips_fleet_documents(self, swept, tmp_path):
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(build_fleet(swept)))
        assert self._findings(p, checker="trace-schema") == []


class TestFleetCli:
    def _store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", CODE)
        from repro.cli import main

        store = tmp_path / "store.jsonl"
        rc = main([
            "campaign", "--nl", "3072", "-b", "768", "--grids", "2,4",
            "--bcasts", "bcast,ring2m", "--runs", "1",
            "--store", str(store),
        ])
        assert rc == 0
        return store

    def test_json_output_round_trips(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        store = self._store(tmp_path, monkeypatch)
        out = tmp_path / "fleet.json"
        rc = main(["fleet", str(store), "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert check_fleet_document(doc) == []
        assert len(doc["heatmap"]["cells"]) == 4

    def test_against_regressed_baseline_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store = self._store(tmp_path, monkeypatch)
        fast = tmp_path / "baseline.jsonl"
        rows = [json.loads(line) for line in
                store.read_text().splitlines() if line.strip()]
        with fast.open("w") as f:
            for row in rows:
                row["best"]["elapsed_s"] *= 0.5
                f.write(json.dumps(row) + "\n")
        rc = main(["fleet", str(store), "--against", str(fast)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "regression gate" in out

    def test_against_clean_baseline_exits_0(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        store = self._store(tmp_path, monkeypatch)
        rc = main(["fleet", str(store), "--against", str(store)])
        assert rc == 0

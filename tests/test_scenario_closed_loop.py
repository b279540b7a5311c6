"""Closed-loop tests: a scenario injects a fault, the health layer
must diagnose it — right detector, right rank, plausible onset — and
the watchdog must not cry wolf over a survivable crash/restart."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import BenchmarkConfig
from repro.core.driver import simulate_run
from repro.machine import FRONTIER
from repro.obs import Observability
from repro.obs.health import HealthMonitor
from repro.scenario import (
    Limplock,
    LinkJitter,
    RankCrash,
    Scenario,
    compile_scenario,
)

EXAMPLES = Path(__file__).parent.parent / "examples" / "scenarios"

RUN_ARGS = ["--machine", "frontier", "-p", "4", "--nl", "256", "-b", "64"]


def _cfg(nl=256):
    # 4x4 grid: the limplock detector needs a fleet median to lag behind
    return BenchmarkConfig(n=nl * 4, block=64, machine=FRONTIER,
                           p_rows=4, p_cols=4)


def _monitored(cfg, scenario):
    obs = Observability(health=HealthMonitor())
    return simulate_run(cfg, scenario=scenario, obs=obs)


class TestLimplockClosedLoop:
    def test_injected_limplock_is_diagnosed(self):
        # a run long enough (nl=384) for the lag detector to build a
        # 2-step deficit after the mid-run onset
        cfg = _cfg(nl=384)
        sc = Scenario(injections=(
            Limplock(rank=5, factor=8.0, onset_frac=0.15),
        ))
        compiled = compile_scenario(sc, cfg)
        onset = 0.15 * compiled.horizon
        res = _monitored(cfg, sc)
        rep = res.health
        limp = [f for f in rep.findings if f["kind"] == "limplock"]
        assert limp, f"no limplock finding in {rep.findings}"
        # the injected rank is the first one diagnosed, at/after onset
        first = min(limp, key=lambda f: f["t_s"])
        assert first["ranks"] == [5]
        assert first["t_s"] >= onset
        assert 5 in rep.degraded_ranks

    def test_no_limplock_before_onset(self):
        cfg = _cfg(nl=384)
        sc = Scenario(injections=(
            Limplock(rank=5, factor=8.0, onset_frac=0.15),
        ))
        compiled = compile_scenario(sc, cfg)
        onset = 0.15 * compiled.horizon
        rep = _monitored(cfg, sc).health
        assert all(f["t_s"] >= onset for f in rep.findings
                   if f["kind"] == "limplock")

    def test_clean_scenario_raises_no_findings(self):
        cfg = _cfg()
        sc = Scenario(injections=(LinkJitter(amplitude_s=1e-7),))
        rep = _monitored(cfg, sc).health
        assert [f for f in rep.findings if f["kind"] == "limplock"] == []


class TestWatchdogUnderCrash:
    def test_survivable_crash_restart_does_not_trip(self):
        # A crashed-and-regenerated rank stretches the run but stays
        # far inside the watchdog's 25x analytic margin: no false stall.
        cfg = _cfg()
        sc = Scenario(injections=(
            RankCrash(rank=9, at_frac=0.45, restart_delay_s=0.002),
        ))
        res = _monitored(cfg, sc)
        assert res.health.watchdog.get("tripped") is False
        # the run completed, slower than clean
        clean = simulate_run(cfg)
        assert res.elapsed > clean.elapsed

    def test_acceptance_scenario_end_to_end(self):
        # The shipped composed scenario: limplock + crash/restart +
        # jitter in one file, one run, every layer in the loop.
        cfg = _cfg()
        sc = Scenario.load(EXAMPLES / "limplock_crash_jitter.json")
        res = _monitored(cfg, sc)
        rep = res.health
        limp_ranks = {r for f in rep.findings
                      if f["kind"] == "limplock" for r in f["ranks"]}
        assert 5 in limp_ranks
        assert rep.watchdog.get("tripped") is False


class TestScenarioCli:
    def test_run_scenario_flag_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        rc = main(["run", *RUN_ARGS,
                   "--scenario",
                   str(EXAMPLES / "limplock_crash_jitter.json"),
                   "--health-json", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "scenario: limplock-crash-jitter" in text
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.obs.health/v1"
        assert doc["watchdog"]["tripped"] is False
        limp_ranks = {r for f in doc["findings"]
                      if f["kind"] == "limplock" for r in f["ranks"]}
        assert 5 in limp_ranks

    def test_model_scenario_flag(self, capsys):
        rc = main(["model", *RUN_ARGS, "--scenario",
                   str(EXAMPLES / "limplock_crash_jitter.json")])
        assert rc == 0
        assert "elapsed" in capsys.readouterr().out

    def test_health_scenario_flag(self, capsys):
        rc = main(["run", *RUN_ARGS, "--scenario",
                   str(EXAMPLES / "limplock.json")])
        assert rc == 0
        # the injected rank is implicated (on this small grid the
        # drift detector flags it before the lag detector can)
        assert "(rank [5])" in capsys.readouterr().out

    def test_health_scenario_composes_with_slow_rank_sugar(self, capsys):
        rc = main(["run", *RUN_ARGS,
                   "--scenario", str(EXAMPLES / "crash_restart.json"),
                   "--slow-rank", "1", "--slow-factor", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank(s) 1" in out or "rank 1" in out

    def test_campaign_scenario_flag(self, capsys):
        rc = main(["campaign", "--machine", "frontier", "-p", "4",
                   "--nl", "256", "-b", "64", "--runs", "2",
                   "--scenario", str(EXAMPLES / "limplock.json")])
        assert rc == 0

    def test_rank_outside_grid_exits_cleanly(self):
        # the acceptance scenario targets rank 5/9: impossible on 2x2
        with pytest.raises(SystemExit, match="scenario"):
            main(["run", "--machine", "frontier", "-p", "2",
                  "--nl", "256", "-b", "64",
                  "--scenario",
                  str(EXAMPLES / "limplock_crash_jitter.json")])

    def test_missing_scenario_file_exits_cleanly(self):
        with pytest.raises(SystemExit, match="scenario"):
            main(["run", *RUN_ARGS, "--scenario", "/nonexistent.json"])

    def test_slow_rank_sugar_still_works_without_scenario(self, capsys):
        rc = main(["run", *RUN_ARGS, "--slow-rank", "1"])
        assert rc == 0
        assert "straggler_drift" in capsys.readouterr().out


class TestCampaignScenario:
    def test_campaign_throughput_degrades_under_scenario(self):
        from repro.tools.campaign import run_campaign

        cfg = _cfg()
        sc = Scenario(injections=(Limplock(rank=5, factor=6.0),))
        clean = run_campaign(cfg, num_runs=2)
        degraded = run_campaign(cfg, num_runs=2, scenario=sc)
        assert degraded.runs[0].elapsed_s > clean.runs[0].elapsed_s * 2

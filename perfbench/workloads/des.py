"""The two discrete-event-simulation workloads.

``des_phantom`` is the DES hot path: Frontier's defaults (B=3072,
``ring2m``, look-ahead) on a 12x12 grid, obs off, no scenario.  The
local matrix is cut to N_L=12288 (4 local block columns, 48 panel steps)
so that many runs fit in one measuring window and their median is
steady on a noisy machine; the per-step work the engine, rank programs
and cost model do is that of the full-size run.

``des_observed`` is the ``repro health`` / ``repro trace`` user path:
a 6x6 grid under the composed limplock, crash and jitter scenario, with
the health monitor on, followed by a sorted Chrome-trace export.  N_L is
cut to 30720 (10 local block columns) for the same reason.

Phantom timing does not depend on the matrix values, so the seed only
sets the generated matrix's LCG seed and every pin holds for any seed.
The pins were taken with obs off: ``des_observed`` matching them is the
check that observing a run does not change its virtual timing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List

from perfbench import harness, layers
from perfbench.harness import Context, Outcome

INPUTS = Path(__file__).resolve().parents[1] / "inputs"
SCENARIO = INPUTS / "limplock_crash_jitter.json"

PHANTOM = dict(grid=12, nl=12288)
OBSERVED = dict(grid=6, nl=30720)


def make_config(grid: int, nl: int, seed: int):
    """Frontier's default run at ``grid`` x ``grid`` with local size ``nl``."""
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    return BenchmarkConfig(
        n=nl * grid, block=3072, machine=get_machine("frontier"),
        p_rows=grid, p_cols=grid, bcast_algorithm="ring2m", lookahead=True,
        seed=seed,
    )


def load_scenario():
    from repro.scenario import Scenario

    return Scenario.load(SCENARIO)


def setup_phantom(seed: int) -> None:
    """Imports and inputs of ``des_phantom`` (timed in a fresh process)."""
    import repro.core.driver  # noqa: F401

    make_config(seed=seed, **PHANTOM)


def setup_observed(seed: int) -> None:
    """Imports and inputs of ``des_observed`` (timed in a fresh process)."""
    import repro.core.driver  # noqa: F401
    import repro.obs.export  # noqa: F401
    from repro.obs.health import HealthMonitor  # noqa: F401

    load_scenario().validate_for(make_config(seed=seed, **OBSERVED).num_ranks)


def rank_stats_digest(stats) -> str:
    """Content hash of every rank's times and traffic counters."""
    doc = [
        [sorted((k, float(v).hex()) for k, v in st.times.items()),
         st.bytes_sent, st.messages_sent]
        for st in stats
    ]
    blob = json.dumps(doc, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def finding_signature(report) -> List[list]:
    """(kind, ranks) of every health finding, in report order."""
    return [[f.get("kind"), list(f.get("ranks", []))]
            for f in report.findings]


def _check_run(ctx: Context, res, pin: Dict) -> None:
    t = ctx.tally
    t.check("elapsed", float(res.elapsed).hex(), pin["elapsed"])
    t.check("engine_events", res.engine_events, pin["engine_events"])
    t.check("rank_stats_digest", rank_stats_digest(res.stats),
            pin["rank_stats_digest"])


def _facts(res) -> Dict[str, float]:
    facts = {"simulate.events": float(res.engine_events),
             "core.ir_iterations": float(res.ir_iterations)}
    facts.update(layers.rank_stats_totals(res.stats))
    return facts


def run_phantom(ctx: Context, pins: Dict) -> Outcome:
    from repro.core.driver import simulate_run

    cfg = make_config(seed=ctx.seed, **PHANTOM)
    pin = pins["des_phantom"]

    def unit():
        t0 = time.perf_counter()
        try:
            res = simulate_run(cfg)
        except Exception as exc:  # a failed run is counted, not fatal
            ctx.tally.record(False, "simulate_run", repr(exc))
            wall = time.perf_counter() - t0
            return wall, wall, None
        wall = time.perf_counter() - t0
        ctx.tally.record(True, "simulate_run")
        _check_run(ctx, res, pin)
        return wall, wall, _facts(res)

    return harness.measure(ctx, unit, _setup_code("setup_phantom", ctx.seed))


def run_observed(ctx: Context, pins: Dict) -> Outcome:
    from repro.core.driver import simulate_run
    from repro.obs import Observability
    from repro.obs.health import HealthMonitor

    cfg = make_config(seed=ctx.seed, **OBSERVED)
    scenario = load_scenario()
    pin = pins["des_observed"]
    trace_path = ctx.work / "trace.json"

    def unit():
        obs = Observability(health=HealthMonitor())
        t0 = time.perf_counter()
        try:
            res = simulate_run(cfg, scenario=scenario, obs=obs)
            t_sim = time.perf_counter()
            path = obs.export_chrome_trace(trace_path, sort=True)
        except Exception as exc:  # a failed run is counted, not fatal
            ctx.tally.record(False, "observed_run", repr(exc))
            wall = time.perf_counter() - t0
            return wall, wall, None
        t1 = time.perf_counter()
        ctx.tally.record(True, "observed_run")
        _check_run(ctx, res, pin)
        t = ctx.tally
        t.check("spans", len(obs.tracer), pin["spans"])
        t.check("findings", finding_signature(res.health), pin["findings"])
        t.check("degraded_ranks", list(res.health.degraded_ranks),
                pin["degraded_ranks"])
        size = os.path.getsize(path)
        t.record(size > 0, "trace_export", f"{path} is empty")
        os.remove(path)
        facts = _facts(res)
        facts["obs.spans"] = float(len(obs.tracer))
        return t1 - t0, t_sim - t0, facts

    return harness.measure(ctx, unit, _setup_code("setup_observed", ctx.seed))


def _setup_code(fn: str, seed: int) -> str:
    return f"from perfbench.workloads.des import {fn}; {fn}({int(seed)})"

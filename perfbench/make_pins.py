"""Regenerate ``perfbench/pins.json``, the expected outputs the
benchmark checks against.

Run from the root of a checkout, only when a change is meant to alter
the program's outputs::

    python3 perfbench/make_pins.py

The DES pins come from runs with observability off, so ``des_observed``
matching them shows that observing a run leaves its timing unchanged.
``exact_solve`` has no pins: each run checks its solution against a
reference solve of the same matrix.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    os.environ.update(harness.BLAS_THREADS)  # as run.py, before NumPy loads
    from perfbench.workloads import des, serve
    from repro.campaign import CampaignEngine, JobQueue, ResultStore, RunCache
    from repro.core.driver import simulate_run
    from repro.obs import Observability
    from repro.obs.health import HealthMonitor

    def run_pin(res):
        return {"elapsed": float(res.elapsed).hex(),
                "engine_events": res.engine_events,
                "rank_stats_digest": des.rank_stats_digest(res.stats)}

    pins = {"des_phantom": run_pin(simulate_run(
        des.make_config(seed=1, **des.PHANTOM)))}
    print("des_phantom", pins["des_phantom"], flush=True)

    cfg = des.make_config(seed=1, **des.OBSERVED)
    scenario = des.load_scenario()
    observed = run_pin(simulate_run(cfg, scenario=scenario))
    obs = Observability(health=HealthMonitor())
    res = simulate_run(cfg, scenario=scenario, obs=obs)
    if run_pin(res) != observed:
        raise SystemExit("obs-on run differs from obs-off: refusing to pin")
    observed.update(spans=len(obs.tracer),
                    findings=des.finding_signature(res.health),
                    degraded_ranks=list(res.health.degraded_ranks))
    pins["des_observed"] = observed
    print("des_observed", observed, flush=True)

    work = harness.make_work_dir()
    try:
        store = ResultStore(work / "store.jsonl")
        out = CampaignEngine(store, RunCache(work / "cache"),
                             workers=serve.WORKERS,
                             log=lambda _m: None).run_sweep(
            serve.sweep_jobs(), JobQueue(work / "queue.json"))
        if out.failed:
            raise SystemExit(f"{out.failed} sweep job(s) failed")
        pins["campaign_serve"] = {"sweep_digest": serve.sweep_digest(store)}
    finally:
        harness.remove_work_dir(work)
    print("campaign_serve", pins["campaign_serve"], flush=True)

    path = ROOT / "perfbench" / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pins -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

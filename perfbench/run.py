"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des_phantom --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's boundary functions and reports the per-layer metrics instead.
Every output is checked against its expected value; a mismatch, an
exception, a non-2xx response or a failed job counts as a failure, and
any failure makes the command exit 1.  Human-readable lines come first;
the last line of standard output is the JSON result.

``--workload all`` runs every workload in turn, each in its own process,
prints each one's metrics and exits 1 if any of them failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("des_phantom", "des_observed", "exact_solve", "campaign_serve")
#: starts the line that carries a workload's own figures as JSON
FIGURES_PREFIX = "figures "


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring window (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _default_seconds() -> float:
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["run_seconds"])


def _run_all(args) -> int:
    """Each workload in its own process; exit 1 if any failed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            doc = {"correct": False, "attempted": 1, "failed": 1,
                   "metrics": {}}
        total["correct"] = (total["correct"] and doc["correct"]
                            and proc.returncode == 0)
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for metric, val in doc["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(total, sort_keys=True))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.workload == "all":
        return _run_all(args)

    # The script's own directory would shadow the standard library's
    # ``trace`` module with perfbench/trace.py.
    sys.path[:] = [p for p in sys.path
                   if Path(p or ".").resolve() != ROOT / "perfbench"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    os.environ.update(harness.BLAS_THREADS)  # before NumPy loads
    from perfbench.workloads import des, exact, serve

    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    runners = {
        "des_phantom": des.run_phantom,
        "des_observed": des.run_observed,
        "exact_solve": exact.run,
        "campaign_serve": serve.run,
    }
    work = harness.make_work_dir()
    ctx = harness.Context(args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    t0 = time.perf_counter()
    try:
        out = runners[args.workload](ctx, pins)
    finally:
        harness.remove_work_dir(work)
    metrics = out.per_layer if args.trace else out.end_to_end
    tally = ctx.tally
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"({time.perf_counter() - t0:.1f}s)")
    for line in ctx.notes:
        print(f"  {line}")
    for name, (value, unit) in {**metrics, **out.extra}.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<30} {tally.failed_ratio:>14.6g} "
          f"failed/attempted ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    if out.extra:
        # the workload's own figures, machine-readable for repeat.py
        print(FIGURES_PREFIX + json.dumps(
            {name: {"value": value, "unit": unit}
             for name, (value, unit) in out.extra.items()}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())

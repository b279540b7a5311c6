"""Run the benchmark over several seeds and summarize each metric.

For every workload and end-to-end (or, with ``--trace 1``, per-layer)
metric, and for the workload's own figures that a run prints besides its
result line (``campaign_serve``'s throughputs and serve latencies), this
prints the median of the per-run values and their spread:
the distance between the first and third quartile as a share of the
median, the rule a benchmark's bounds are checked against.  Run from
the root of a checkout::

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --workloads exact_solve --seeds 11,12 \\
        --out perfbench/baseline.json

``--out`` writes every run's values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> List[int]:
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _figures(result: dict) -> Dict[str, dict]:
    """A run's metrics and its workload's own figures, by name."""
    return {**result["metrics"], **result.get("figures", {})}


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT)]
    from perfbench.run import FIGURES_PREFIX, WORKLOADS
    from perfbench.stats import median, quartile_spread

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    doc: Dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(seed=seed, exit_code=proc.returncode)
            for line in lines[:-1]:
                if line.startswith(FIGURES_PREFIX):
                    result["figures"] = json.loads(
                        line[len(FIGURES_PREFIX):])
            ok = ok and proc.returncode == 0 and result["correct"]
            runs.append(result)
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in _figures(result).items()),
                  flush=True)
        summary = {}
        for name, first in _figures(runs[0]).items():
            values = [_figures(r)[name]["value"] for r in runs]
            spread = (quartile_spread(values)
                      if len(values) > 1 and median(values) else 0.0)
            summary[name] = {"median": median(values), "spread": spread,
                             "unit": first["unit"]}
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f" (bound {bound:g}, {'ok' if spread <= bound else 'WIDE'})")
            print(f"  {workload} {name}: median {median(values):.6g} "
                  f"spread {spread:.4f}{verdict}", flush=True)
        doc[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"-> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""BENCHMARK.json agrees with the benchmark's own metric lists."""

import json
import re
from pathlib import Path

from perfbench.layers import CATALOG
from perfbench.run import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_per_layer_metrics_follow_the_catalog():
    assert DOC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in CATALOG
    ]


def test_workloads_are_the_runners():
    assert tuple(w["name"] for w in DOC["workloads"]) == WORKLOADS


def test_names_units_and_bounds_are_well_formed():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DOC[key]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in DOC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in DOC["workloads"])

"""Golden pin: every artifact ``repro run`` emits for one small config.

The expected files under ``tests/fixtures/golden_run/`` were exported,
at ``--machine frontier -p 2 --nl 256 -b 64``, by the single-artifact
subcommands that ``run``'s output flags replaced:

- ``trace --out/--jsonl/--json``  -> ``trace.json``, ``spans.jsonl``,
  ``report.json`` (now ``run --chrome-trace/--span-log/--json``);
- ``metrics --format prometheus``  -> ``metrics.prom``
  (now ``run --metrics prometheus``);
- ``health --json --out`` with and without ``--slow-rank 1`` ->
  ``health.json`` / ``health_slow_rank1.json`` (now ``run --health-json``).

Only provenance fields that differ between two identical runs are
masked (:data:`MASKED`).

``gantt.txt`` pins ``run --gantt 100``, which renders from the tracer's
executor + engine spans.  ``gantt_parent.txt`` is the former ``gantt
--width 100`` output, drawn from the engine's separate tuple recorder:
restricted to the kinds that recorder kept (compute + ``wait_recv``),
the tracer spans render it byte for byte.  The new chart also draws the
``wait_send``/``wait_reduce``/``wait_allreduce``/``wait_barrier`` spans,
and its elapsed line reports ``RunResult.elapsed``.
"""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import Observability
from repro.simulate.timeline import render_gantt

GOLDEN = Path(__file__).parent / "fixtures" / "golden_run"
SRC = str(Path(repro.__file__).resolve().parent.parent)
RUN = ["run", "--machine", "frontier", "-p", "2", "--nl", "256", "-b", "64"]

#: provenance fields that vary between two runs of the same command
MASKED = ("timestamp_utc", "argv", "hostname", "platform")


def _golden(name: str) -> str:
    path = GOLDEN / name
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes()).decode()
    return path.read_text()


def _masked(text: str) -> str:
    """Canonical text of a JSON document with :data:`MASKED` blanked.

    Key order and float spelling survive, so equal results mean the
    documents agree field for field, not merely up to reordering.
    """
    doc = json.loads(text)

    def walk(node):
        if isinstance(node, dict):
            prov = node.get("provenance")
            if isinstance(prov, dict):
                for key in MASKED:
                    if key in prov:
                        prov[key] = "<masked>"
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(doc)
    return json.dumps(doc)


def _run(*extra) -> str:
    """Stdout of one ``python -m repro.cli run`` (asserting exit code 0).

    A fresh interpreter, as the goldens were made: the health series
    sample process-wide state (the LCG tile cache's hit ratio) that
    earlier in-process tests would have warmed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *RUN, *map(str, extra)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _run("--chrome-trace", d / "trace.json", "--span-log",
         d / "spans.jsonl", "--json", d / "report.json")
    _run("--health-json", d / "health.json")
    _run("--slow-rank", "1", "--health-json", d / "health_slow_rank1.json")
    return d


@pytest.mark.parametrize("name", [
    "trace.json", "report.json", "health.json", "health_slow_rank1.json",
])
def test_json_artifact_matches_golden(out, name):
    assert (_masked((out / name).read_text())
            == _masked(_golden(name + ".gz")))


def test_span_log_is_byte_identical(out):
    assert (out / "spans.jsonl").read_text() == _golden("spans.jsonl.gz")


def test_prometheus_text_is_byte_identical():
    stdout = _run("--metrics", "prometheus")
    assert stdout.endswith(_golden("metrics.prom"))


def test_gantt_matches_golden():
    stdout = _run("--gantt", "100")
    gantt = stdout[stdout.index("gantt:"):]
    assert gantt == _golden("gantt.txt")


def test_tracer_spans_redraw_the_former_gantt():
    from repro.cli import _build_config, build_parser
    from repro.core.driver import simulate_run

    cfg = _build_config(build_parser().parse_args(RUN))
    obs = Observability()
    simulate_run(cfg, obs=obs)
    old_kinds = [
        span for span in obs.tracer.as_timeline(cats=["executor", "engine"])
        if span[3] == "wait_recv" or not span[3].startswith("wait_")
    ]
    chart = _golden("gantt_parent.txt").split("\n\nelapsed")[0]
    assert render_gantt(old_kinds, width=100) == chart

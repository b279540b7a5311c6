"""Validators for the ``trace-schema`` and ``profile-schema`` documents.

:func:`check_trace` validates a parsed Chrome-trace export and
:func:`check_profile_report` a ``repro profile --format json`` report
(:data:`~repro.obs.analysis.report.PROFILE_SCHEMA`).  Which of them
sees a given file is decided by :mod:`repro.analyze.checkers.documents`.

Trace checks (see docs/OBSERVABILITY.md):

- top level is an object with a ``traceEvents`` list and an
  ``otherData`` object carrying the schema version;
- every event has ``name``/``ph``/``pid``/``tid``, phases are ``X``
  (complete span), ``M`` (metadata) or ``C`` (counter), and ``X``
  events carry a category plus non-negative ``ts``/``dur``
  microsecond numbers;
- with ``require_layers``, spans from the ``engine``, ``executor`` and
  ``comm`` layers must all be present (what any instrumented benchmark
  run produces).
"""

from __future__ import annotations

from typing import List

from repro.obs.analysis.report import PROFILE_SCHEMA

#: layers an instrumented benchmark run must emit spans from
REQUIRED_LAYERS = ("engine", "executor", "comm")

VALID_PHASES = {"X", "M", "C"}


def check_trace(doc: dict, require_layers: bool = False) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["top-level 'traceEvents' list is missing"]
    other = doc.get("otherData")
    if not isinstance(other, dict):
        problems.append("top-level 'otherData' object is missing")
    elif not isinstance(other.get("schema"), int):
        problems.append("otherData.schema version (int) is missing")

    cats = set()
    span_count = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: event must be an object")
            continue
        for key, types in (("name", str), ("ph", str),
                           ("pid", int), ("tid", int)):
            if not isinstance(ev.get(key), types):
                problems.append(f"{where}: missing/invalid {key!r}")
        ph = ev.get("ph")
        if ph not in VALID_PHASES:
            problems.append(
                f"{where}: phase {ph!r} not in {sorted(VALID_PHASES)}"
            )
        if ph == "X":
            span_count += 1
            if not isinstance(ev.get("cat"), str):
                problems.append(f"{where}: span missing 'cat'")
            else:
                cats.add(ev["cat"])
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or val < 0:
                    problems.append(
                        f"{where}: {key!r} must be a non-negative number, "
                        f"got {val!r}"
                    )
            if "args" in ev and not isinstance(ev["args"], dict):
                problems.append(f"{where}: 'args' must be an object")

    if span_count == 0:
        problems.append("trace contains no 'X' (complete span) events")
    if require_layers:
        missing = [c for c in REQUIRED_LAYERS if c not in cats]
        if missing:
            problems.append(
                f"missing spans from required layer(s): {', '.join(missing)} "
                f"(found categories: {sorted(cats) or 'none'})"
            )
    return problems


def check_profile_report(doc) -> List[str]:
    """Validate a ``repro profile --format json`` document.

    Returns a list of problem strings (empty = valid).
    """
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != PROFILE_SCHEMA:
        problems.append(
            f"schema must be {PROFILE_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    elapsed = doc.get("elapsed_s")
    if not isinstance(elapsed, (int, float)) or elapsed < 0:
        problems.append("'elapsed_s' must be a non-negative number")
    num_ranks = doc.get("num_ranks")
    if not isinstance(num_ranks, int) or num_ranks < 1:
        problems.append("'num_ranks' must be a positive int")
    if not isinstance(doc.get("num_spans"), int):
        problems.append("'num_spans' must be an int")

    path_sec = doc.get("critical_path")
    if not isinstance(path_sec, dict):
        problems.append("'critical_path' object is missing")
    else:
        cov = path_sec.get("coverage")
        if not isinstance(cov, (int, float)) or not 0 <= cov <= 1:
            problems.append("critical_path.coverage must be in [0, 1]")
        if not isinstance(path_sec.get("phase_seconds"), dict):
            problems.append("critical_path.phase_seconds object is missing")

    imb = doc.get("imbalance")
    if not isinstance(imb, dict):
        problems.append("'imbalance' object is missing")
    else:
        ranks = imb.get("ranks")
        if not isinstance(ranks, list):
            problems.append("imbalance.ranks list is missing")
        elif isinstance(num_ranks, int) and len(ranks) != num_ranks:
            problems.append(
                f"imbalance.ranks has {len(ranks)} entries for "
                f"{num_ranks} ranks"
            )
        if not isinstance(imb.get("phases"), list):
            problems.append("imbalance.phases list is missing")
        if not isinstance(imb.get("stragglers"), list):
            problems.append("imbalance.stragglers list is missing")

    comm = doc.get("comm")
    if not isinstance(comm, dict):
        problems.append("'comm' object is missing")
    else:
        for key in ("total_bytes", "total_messages"):
            val = comm.get(key)
            if not isinstance(val, int) or val < 0:
                problems.append(f"comm.{key} must be a non-negative int")
        if not isinstance(comm.get("bytes_by_phase"), dict):
            problems.append("comm.bytes_by_phase object is missing")
        if not isinstance(comm.get("top_pairs"), list):
            problems.append("comm.top_pairs list is missing")

    phase_seconds = doc.get("phase_seconds")
    if not isinstance(phase_seconds, dict):
        problems.append("'phase_seconds' object is missing")
    elif not all(
        isinstance(v, (int, float)) for v in phase_seconds.values()
    ):
        problems.append("phase_seconds values must be numbers")

    dev = doc.get("deviation")
    if dev is not None:
        if not isinstance(dev, dict) or not isinstance(
            dev.get("phases"), list
        ):
            problems.append("deviation.phases list is missing")
        else:
            for i, p in enumerate(dev["phases"]):
                if not isinstance(p, dict) or not isinstance(
                    p.get("phase"), str
                ):
                    problems.append(f"deviation.phases[{i}] is malformed")
                    break
    return problems

"""Validator for the ``health-report`` document.

:func:`check_health_report` validates a parsed ``repro run --health-json``
report (:data:`~repro.obs.health.report.HEALTH_SCHEMA`); the
:mod:`repro.analyze.checkers.documents` registry routes those files
to it, so ``repro lint health.json`` is the CI entry point.
"""

from __future__ import annotations

from typing import List

from repro.obs.health.report import HEALTH_SCHEMA

#: fields every finding entry must carry (mirrors HealthEvent.to_dict)
_FINDING_KEYS = ("kind", "t_s", "severity", "ranks", "message")

_SEVERITIES = {"info", "warning", "critical"}


def check_health_report(doc) -> List[str]:
    """Return a list of problem strings (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != HEALTH_SCHEMA:
        problems.append(
            f"schema must be {HEALTH_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    num_ranks = doc.get("num_ranks")
    if not isinstance(num_ranks, int) or num_ranks < 0:
        problems.append("'num_ranks' must be a non-negative int")
    if not isinstance(doc.get("num_samples"), int):
        problems.append("'num_samples' must be an int")
    cadence = doc.get("cadence_s")
    if not isinstance(cadence, (int, float)) or cadence <= 0:
        problems.append("'cadence_s' must be a positive number")

    findings = doc.get("findings")
    if not isinstance(findings, list):
        problems.append("'findings' list is missing")
        findings = []
    implicated = set()
    for i, f in enumerate(findings):
        where = f"findings[{i}]"
        if not isinstance(f, dict):
            problems.append(f"{where}: finding must be an object")
            continue
        for key in _FINDING_KEYS:
            if key not in f:
                problems.append(f"{where}: missing {key!r}")
        sev = f.get("severity")
        if sev is not None and sev not in _SEVERITIES:
            problems.append(
                f"{where}: severity {sev!r} not in {sorted(_SEVERITIES)}"
            )
        t = f.get("t_s")
        if t is not None and (
            not isinstance(t, (int, float)) or t < 0
        ):
            problems.append(f"{where}: 't_s' must be a non-negative number")
        ranks = f.get("ranks")
        if ranks is not None:
            if not isinstance(ranks, list) or not all(
                isinstance(r, int) for r in ranks
            ):
                problems.append(f"{where}: 'ranks' must be a list of ints")
            else:
                implicated.update(ranks)
                if isinstance(num_ranks, int) and any(
                    not 0 <= r < max(num_ranks, 1) for r in ranks
                ):
                    problems.append(
                        f"{where}: ranks {ranks} outside the "
                        f"{num_ranks}-rank run"
                    )

    degraded = doc.get("degraded_ranks")
    if not isinstance(degraded, list) or not all(
        isinstance(r, int) for r in degraded or []
    ):
        problems.append("'degraded_ranks' must be a list of ints")
    elif set(degraded) != implicated:
        problems.append(
            f"'degraded_ranks' {sorted(degraded)} does not match the "
            f"ranks implicated by findings {sorted(implicated)}"
        )

    wd = doc.get("watchdog")
    if not isinstance(wd, dict):
        problems.append("'watchdog' object is missing")
    else:
        if not isinstance(wd.get("tripped"), bool):
            problems.append("watchdog.tripped must be a bool")
        if not isinstance(wd.get("deadlines_s"), dict):
            problems.append("watchdog.deadlines_s object is missing")

    series = doc.get("series")
    if not isinstance(series, dict):
        problems.append("'series' object is missing")
    else:
        for name, s in series.items():
            if not isinstance(s, dict) or not isinstance(
                s.get("t"), list
            ) or not isinstance(s.get("v"), list):
                problems.append(f"series[{name!r}] must have 't'/'v' lists")
            elif len(s["t"]) != len(s["v"]):
                problems.append(
                    f"series[{name!r}]: {len(s['t'])} timestamps for "
                    f"{len(s['v'])} values"
                )
    return problems

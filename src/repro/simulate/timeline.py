"""Timeline (Gantt) rendering for engine runs.

An observed run's tracer holds every compute span (category
``executor``) and blocking wait (``engine``); ``obs.tracer.as_timeline(
cats=["executor", "engine"])`` turns them into ``(rank, start, end,
kind)`` tuples, and these helpers render those as a terminal Gantt
chart or CSV — the visual counterpart of the paper's per-iteration
breakdown (Fig 10), but per rank.  ``repro run --gantt WIDTH`` prints
one.  Unknown span kinds draw as ``'?'`` and raise a one-time warning
naming them, so newly instrumented categories are never silently lumped
together.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError

Span = Tuple[int, float, float, str]

#: kind -> glyph used in the Gantt; unknown kinds fall back to '?'
GLYPHS: Dict[str, str] = {
    "gemm": "#",
    "getrf": "G",
    "trsm": "T",
    "cast": "c",
    "fill": "f",
    "d2h": "d",
    "gemv": "v",
    "trsv": "t",
    "ir_gemv": "i",
    "ir_setup": "s",
    "ir_update": "u",
    "wait_recv": ".",
    "wait_send": ",",
    "wait_allreduce": ":",
    "wait_reduce": ";",
    "wait_barrier": "|",
    "comm_post": "'",
    "xfer": "x",
}

#: kinds already reported by :func:`_warn_unknown_kinds` (warn once each)
_warned_kinds: Set[str] = set()


def _warn_unknown_kinds(kinds) -> None:
    """One-time warning for kinds with no glyph (they all render '?')."""
    unknown = sorted(k for k in kinds if k not in GLYPHS)
    fresh = [k for k in unknown if k not in _warned_kinds]
    if fresh:
        _warned_kinds.update(fresh)
        warnings.warn(
            "timeline contains span kind(s) with no Gantt glyph: "
            f"{', '.join(fresh)} — all render as '?'; add them to "
            "repro.simulate.timeline.GLYPHS to tell them apart",
            stacklevel=3,
        )


def render_gantt(
    timeline: Sequence[Span],
    width: int = 100,
    ranks: Sequence[int] | None = None,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """Render spans as one text row per rank.

    Each column is a time bucket; the glyph shown is the kind occupying
    the largest share of that bucket (idle = space).
    """
    if not timeline:
        raise ConfigurationError("timeline is empty; run with an enabled "
                                 "observability handle")
    lo = t0 if t0 is not None else min(s[1] for s in timeline)
    hi = t1 if t1 is not None else max(s[2] for s in timeline)
    if hi <= lo:
        raise ConfigurationError("empty time window")
    all_ranks = sorted({s[0] for s in timeline})
    ranks = list(ranks) if ranks is not None else all_ranks
    dt = (hi - lo) / width

    lines = [f"gantt: {lo:.4f}s .. {hi:.4f}s  ({dt * 1e3:.2f} ms/col)"]
    for rank in ranks:
        buckets: List[Dict[str, float]] = [dict() for _ in range(width)]
        for r, s, e, kind in timeline:
            if r != rank or e <= lo or s >= hi:
                continue
            first = max(int((s - lo) / dt), 0)
            last = min(int((e - lo) / dt), width - 1)
            for b in range(first, last + 1):
                b_lo = lo + b * dt
                b_hi = b_lo + dt
                overlap = min(e, b_hi) - max(s, b_lo)
                if overlap > 0:
                    d = buckets[b]
                    d[kind] = d.get(kind, 0.0) + overlap
        row = []
        for d in buckets:
            if not d:
                row.append(" ")
            else:
                kind = max(d, key=d.get)
                row.append(GLYPHS.get(kind, "?"))
        lines.append(f"r{rank:<3d}|" + "".join(row) + "|")
    used = {k for _r, _s, _e, k in timeline}
    _warn_unknown_kinds(used)
    legend = "  ".join(
        f"{GLYPHS.get(k, '?')}={k}" for k in sorted(used)
    )
    lines.append("legend: " + legend + "  (space=idle)")
    return "\n".join(lines)


def timeline_to_csv(timeline: Sequence[Span], path) -> Path:
    """Write the spans as CSV (rank, start_s, end_s, kind).

    The first line is a ``#``-prefixed comment carrying the kind legend
    (``kind=glyph`` pairs for every kind present), so a CSV consumed
    outside Python still documents its own vocabulary.
    """
    if not timeline:
        raise ConfigurationError("timeline is empty")
    used = sorted({k for _r, _s, _e, k in timeline})
    _warn_unknown_kinds(used)
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(
            "# legend: "
            + "  ".join(f"{k}={GLYPHS.get(k, '?')}" for k in used)
            + "\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["rank", "start_s", "end_s", "kind"])
        writer.writerows(timeline)
    return path


"""Span loading and normalization for the analysis layer.

Every analysis in this package runs off one normalized input — a flat
list of :class:`~repro.obs.tracer.Span` objects plus whatever metadata
rode along (provenance, metrics snapshot) — so the same critical-path /
imbalance / comm-matrix code works on:

- a live :class:`~repro.obs.SpanTracer` (or ``Observability`` handle),
- an exported Chrome-trace JSON file (``repro run --chrome-trace``), or
- an exported JSONL span log (``repro run --span-log``).

The loaders also own the *semantic* mapping from raw span names to
benchmark phases (:func:`phase_of_span`): executor kernel kinds map to
themselves, refinement kernels collapse into ``ir``, and comm/wait
spans are decoded through their wire-tag attr
(:func:`repro.obs.phases.decode_wire_tag`) into ``diag_bcast`` /
``panel_bcast`` / ``ir`` traffic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.phases import decode_wire_tag
from repro.obs.tracer import Span, SpanTracer

#: executor span names that are benchmark phases of their own
_EXECUTOR_PHASES = {"getrf", "trsm", "cast", "gemm", "fill", "d2h"}

#: executor span names that belong to the refinement solve
_IR_KERNELS = {"gemv", "trsv", "ir_gemv", "ir_setup", "ir_update"}

#: engine wait kinds that are synchronization, not point-to-point comm
_COLLECTIVE_WAITS = {"wait_allreduce", "wait_reduce", "wait_barrier"}


@dataclass
class ProfileInput:
    """Normalized analysis input: spans + run metadata."""

    spans: List[Span]
    #: wall time of the observed window (max span end, virtual seconds)
    elapsed: float
    #: world size implied by the spans (max rank + 1)
    num_ranks: int
    provenance: Optional[dict] = None
    #: metrics snapshot exported alongside the trace, if any
    metrics: Optional[dict] = None
    source: str = "<tracer>"


def _bounds(spans: List[Span]) -> Tuple[float, int]:
    elapsed = max((s.end for s in spans), default=0.0)
    num_ranks = max((s.rank for s in spans), default=-1) + 1
    return elapsed, num_ranks


def from_tracer(
    tracer: SpanTracer,
    provenance: Optional[dict] = None,
    metrics: Optional[dict] = None,
) -> ProfileInput:
    """Wrap a live tracer's spans as analysis input."""
    spans = tracer.spans
    elapsed, num_ranks = _bounds(spans)
    return ProfileInput(
        spans=spans, elapsed=elapsed, num_ranks=num_ranks,
        provenance=provenance, metrics=metrics,
    )


def from_observability(obs) -> ProfileInput:
    """Wrap an :class:`~repro.obs.Observability` handle as input."""
    metrics = obs.metrics.snapshot() if len(obs.metrics) else None
    return from_tracer(obs.tracer, provenance=obs.provenance, metrics=metrics)


def _rank_of_tid(tid: int, labels: dict) -> int:
    label = labels.get(tid)
    if label == "driver":
        return -1
    if label is not None and label.startswith("rank "):
        try:
            return int(label.split()[1])
        except ValueError:
            pass
    return tid


def _spans_from_chrome(doc: dict) -> List[Span]:
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ConfigurationError(
            "not a Chrome trace: top-level 'traceEvents' list is missing"
        )
    labels = {
        ev.get("tid"): ev.get("args", {}).get("name")
        for ev in events
        if isinstance(ev, dict) and ev.get("ph") == "M"
        and ev.get("name") == "thread_name"
    }
    spans = []
    for ev in events:
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        start = float(ev.get("ts", 0.0)) / 1e6
        dur = float(ev.get("dur", 0.0)) / 1e6
        spans.append(Span(
            name=ev.get("name", ""),
            cat=ev.get("cat", ""),
            start=start,
            end=start + dur,
            rank=_rank_of_tid(ev.get("tid", -1), labels),
            attrs=dict(ev.get("args", {})),
        ))
    return spans


def _spans_from_jsonl(path: Path) -> List[Span]:
    spans = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            spans.append(Span(
                name=rec.get("name", ""),
                cat=rec.get("cat", ""),
                start=float(rec.get("start_s", 0.0)),
                end=float(rec.get("end_s", 0.0)),
                rank=int(rec.get("rank", -1)),
                attrs=dict(rec.get("attrs") or {}),
            ))
    return spans


def load_profile_input(path) -> ProfileInput:
    """Load an exported trace artifact (Chrome JSON or JSONL spans)."""
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"trace file {p} does not exist")
    text_head = p.open().read(1).strip()
    if p.suffix == ".jsonl" or text_head not in ("{",):
        spans = _spans_from_jsonl(p)
        prov = metrics = None
    else:
        try:
            doc = json.loads(p.read_text())
        except ValueError as exc:
            raise ConfigurationError(f"{p}: not valid JSON: {exc}") from None
        if isinstance(doc, dict) and "traceEvents" in doc:
            spans = _spans_from_chrome(doc)
            other = doc.get("otherData") or {}
            prov = other.get("provenance")
            metrics = other.get("metrics")
        else:
            raise ConfigurationError(
                f"{p}: neither a Chrome trace (no 'traceEvents') nor a "
                "JSONL span log"
            )
    elapsed, num_ranks = _bounds(spans)
    return ProfileInput(
        spans=spans, elapsed=elapsed, num_ranks=num_ranks,
        provenance=prov, metrics=metrics, source=str(p),
    )


# -- semantic mapping -------------------------------------------------------

def phase_of_span(span: Span) -> str:
    """Benchmark-phase bucket of one span (see module docstring)."""
    if span.cat == "executor":
        if span.name in _EXECUTOR_PHASES:
            return span.name
        if span.name in _IR_KERNELS:
            return "ir"
        return span.name or "other"
    if span.cat in ("comm", "engine"):
        if span.name in _COLLECTIVE_WAITS:
            return "collective"
        tag = span.attrs.get("tag") if span.attrs else None
        if tag is not None:
            return decode_wire_tag(int(tag))[0]
        return "comm"
    if span.cat == "driver":
        return span.name
    return span.cat or "other"


def step_of_span(span: Span) -> Optional[int]:
    """Factorization step ``k`` a comm span belongs to (None if unknown)."""
    tag = span.attrs.get("tag") if span.attrs else None
    if tag is None:
        return None
    return decode_wire_tag(int(tag))[1]


def config_from_provenance(prov: dict):
    """Rebuild the :class:`~repro.core.config.BenchmarkConfig` a
    provenance block describes (for model-vs-measured comparison).

    Raises :class:`~repro.errors.ConfigurationError` when the block has
    no usable ``config`` section.
    """
    from repro.core.config import BenchmarkConfig
    from repro.machine import get_machine

    desc = (prov or {}).get("config")
    if not isinstance(desc, dict):
        raise ConfigurationError(
            "provenance block carries no 'config' section; cannot rebuild "
            "the run configuration"
        )
    try:
        machine = get_machine(str(desc["machine"]))
        p_rows, p_cols = (int(v) for v in str(desc["grid"]).split("x"))
        q_rows, q_cols = (int(v) for v in str(desc["node_grid"]).split("x"))
        kwargs = dict(
            n=int(desc["N"]),
            block=int(desc["B"]),
            machine=machine,
            p_rows=p_rows,
            p_cols=p_cols,
            bcast_algorithm=str(desc["bcast"]),
            lookahead=bool(desc["lookahead"]),
            # older traces predate these fields; their defaults match
            allreduce_algorithm=(
                str(desc["allreduce"]) if desc.get("allreduce") else None
            ),
            progression=str(desc.get("progression", "routed")),
            gpu_aware=bool(desc["gpu_aware"]),
            port_binding=bool(desc["port_binding"]),
        )
        # Sub-node grids record the 1-rank-per-node fallback, which the
        # explicit q_rows/q_cols path (rightly) rejects; passing None
        # re-derives the identical default deterministically.
        if q_rows * q_cols == machine.node.gcds_per_node:
            kwargs["q_rows"] = q_rows
            kwargs["q_cols"] = q_cols
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"provenance config section is incomplete: {exc}"
        ) from None
    if "seed" in prov:
        kwargs["seed"] = int(prov["seed"])
    if "panel_precision" in prov:
        kwargs["panel_precision"] = str(prov["panel_precision"])
    if "refinement_solver" in prov:
        kwargs["refinement_solver"] = str(prov["refinement_solver"])
    return BenchmarkConfig(**kwargs)

"""Trace conformance: replay a recorded run against the static model.

A trace artifact (``repro run --chrome-trace`` / ``--span-log`` / a
campaign store's span export) carries one ``xfer`` span per point-to-point transfer the
engine charged, attributed with ``dst``, ``bytes`` and the wire ``tag``.
The extracted static schedule for the same configuration predicts
exactly which ``(src, dst, wire_tag)`` channels may carry traffic, how
many messages each carries, and which factorization step each message
belongs to.  Conformance checking joins the two:

* **out-of-model tag** (error) — an observed transfer whose wire tag
  the model never emits anywhere;
* **unmatched transfer** (error) — a known tag on a (src, dst) pair the
  model never connects;
* **count mismatch** (error) — a channel observed more or fewer times
  than the model schedules it;
* **unobserved channel** (warning) — the model schedules a channel the
  trace never exercised (e.g. a filtered/truncated export);
* **phase-order violation** (error) — a rank's factorization-window
  traffic runs more than one step ahead of its slowest outstanding
  step (the look-ahead pipeline is one panel deep by construction).

Wire tags in the refinement window encode the iteration index, so they
are canonicalized (iteration stripped) before the join; the
factorization window is compared tag-exact.  The replayed run must be
phantom-flow (``repro run`` is): exact-mode
runs with data-dependent refinement depth would legitimately diverge
in the refinement window.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analyze.schedule.extract import extract_config
from repro.analyze.schedule.model import P2P_SEND_KINDS, Schedule
from repro.comm.bcast import TAG_STRIDE
from repro.obs.phases import GMRES_TAG_BASE, IR_TAG_BASE, decode_wire_tag

#: the FP64-HPL tag window lives above every HPL-AI window
_HPL_TAG_BASE = 1 << 24


@dataclass
class ConformanceIssue:
    rule: str        # trace-conformance
    severity: str    # error | warning
    message: str

    def format(self) -> str:
        """severity [rule] message, printer-ready."""
        return f"{self.severity} [trace-conformance] {self.message}"

    def to_dict(self) -> dict:
        """JSON form of this issue."""
        return {
            "rule": self.rule, "severity": self.severity,
            "message": self.message,
        }


@dataclass
class ConformanceReport:
    source: str
    label: str
    issues: List[ConformanceIssue] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def to_dict(self) -> dict:
        """JSON form of the report (issues + stats)."""
        return {
            "source": self.source, "label": self.label, "ok": self.ok,
            "stats": dict(self.stats),
            "issues": [i.to_dict() for i in self.issues],
        }


def _canonical_tag(wire: int, nb: int) -> Tuple:
    """Collapse a wire tag to its iteration-independent identity.

    Factorization-window tags are already unique per (step, phase,
    offset) and compare exact.  Refinement sweep tags encode the IR
    iteration (``(it*2+upper)*nb + j``), which data-dependent runs vary,
    so they collapse to ``(upper, j)``; the GMRES window collapses to
    one bucket for the same reason.
    """
    logical = wire // TAG_STRIDE
    if logical >= _HPL_TAG_BASE:
        return ("hpl", logical)
    if logical >= IR_TAG_BASE:
        offset = logical - IR_TAG_BASE
        if nb > 0:
            chunk, j = divmod(offset, nb)
            _iteration, upper = divmod(chunk, 2)
            return ("ir", upper, j)
        return ("ir", offset)
    if logical >= GMRES_TAG_BASE:
        return ("gmres",)
    return ("fact", wire)


def _is_refinement(wire: int) -> bool:
    return _HPL_TAG_BASE > (wire // TAG_STRIDE) >= GMRES_TAG_BASE


Channel = Tuple[int, int, Tuple]


def _model_channels(schedule: Schedule, nb: int) -> Dict[Channel, int]:
    """Per-channel message counts the static schedule predicts.

    The engine charges one transfer per route *edge* per pipeline
    segment for a routed broadcast, so a ``bcast_start`` op contributes
    ``segments`` messages on every edge of its route — not just the
    root's own hops.
    """
    counts: Dict[Channel, int] = defaultdict(int)
    for op in schedule.all_ops():
        if op.kind in P2P_SEND_KINDS:
            key = (op.rank, op.peer, _canonical_tag(op.wire_tag, nb))
            counts[key] += 1
        elif op.kind == "bcast_start" and op.edges:
            tag = _canonical_tag(op.wire_tag, nb)
            for src, dst in op.edges:
                counts[(src, dst, tag)] += op.segments
    return counts


def _observed_channels(spans, nb: int) -> Tuple[
    Dict[Channel, int], List
]:
    """Per-channel counts in a recorded trace, plus the comm spans
    (rank-sorted, time-ordered) for the phase-order check."""
    counts: Dict[Channel, int] = defaultdict(int)
    comm_spans = []
    for span in spans:
        if span.cat != "comm" or span.name != "xfer":
            continue
        attrs = span.attrs or {}
        tag = attrs.get("tag")
        dst = attrs.get("dst")
        if tag is None or dst is None:
            continue
        counts[(span.rank, int(dst), _canonical_tag(int(tag), nb))] += 1
        comm_spans.append(span)
    return counts, comm_spans


def check_conformance(profile_input, schedule: Schedule,
                      nb: int) -> ConformanceReport:
    """Join a recorded trace against a static schedule."""
    report = ConformanceReport(
        source=profile_input.source, label=schedule.label(),
    )
    issues = report.issues

    model = _model_channels(schedule, nb)
    observed, comm_spans = _observed_channels(profile_input.spans, nb)

    model_tags = {tag for _s, _d, tag in model}
    for key in sorted(observed, key=str):
        src, dst, tag = key
        if key in model:
            continue
        if tag not in model_tags:
            issues.append(ConformanceIssue(
                rule="trace-conformance", severity="error",
                message=(
                    f"out-of-model tag: rank {src} -> rank {dst} "
                    f"carried tag {tag!r}, which the static schedule "
                    "never emits"
                ),
            ))
        else:
            issues.append(ConformanceIssue(
                rule="trace-conformance", severity="error",
                message=(
                    f"unmatched transfer: rank {src} -> rank {dst} with "
                    f"tag {tag!r} — the model routes this tag, but never "
                    "between this rank pair"
                ),
            ))

    refinement_exempt = 0
    for key in sorted(model, key=str):
        got = observed.get(key, 0)
        want = model[key]
        if got == want:
            continue
        src, dst, tag = key
        if got == 0:
            issues.append(ConformanceIssue(
                rule="trace-conformance", severity="warning",
                message=(
                    f"unobserved channel: the model schedules {want} "
                    f"message(s) rank {src} -> rank {dst} tag {tag!r} "
                    "but the trace shows none"
                ),
            ))
        elif tag[0] in ("ir", "gmres"):
            # iteration counts are data-dependent in exact-mode runs;
            # any positive multiple of the per-iteration structure is
            # conformant once the iteration index is stripped
            refinement_exempt += 1
        else:
            issues.append(ConformanceIssue(
                rule="trace-conformance", severity="error",
                message=(
                    f"count mismatch: rank {src} -> rank {dst} tag "
                    f"{tag!r} observed {got} time(s), model schedules "
                    f"{want}"
                ),
            ))

    _check_phase_order(comm_spans, issues)

    report.stats = {
        "observed_channels": len(observed),
        "model_channels": len(model),
        "observed_transfers": sum(observed.values()),
        "model_transfers": sum(model.values()),
        "refinement_channels_collapsed": refinement_exempt,
    }
    return report


def _check_phase_order(comm_spans, issues: List[ConformanceIssue],
                       lookahead_depth: int = 1) -> None:
    """Factorization traffic must advance step-monotonically per rank,
    modulo the look-ahead pipeline depth: with depth 1, step ``k+1``
    panel traffic may overlap step ``k``'s trailing update, but step
    ``k+2`` traffic before ``k`` finishes is a schedule violation."""
    by_rank: Dict[int, List] = defaultdict(list)
    for span in comm_spans:
        tag = int(span.attrs["tag"])
        if _is_refinement(tag):
            continue
        step = decode_wire_tag(tag)[1]
        if step is None:
            continue
        by_rank[span.rank].append((span.start, step, tag))
    for rank in sorted(by_rank):
        events = sorted(by_rank[rank])
        max_step = -1
        for start, step, tag in events:
            if max_step - step > lookahead_depth:
                phase = decode_wire_tag(tag)[0]
                issues.append(ConformanceIssue(
                    rule="trace-conformance", severity="error",
                    message=(
                        f"phase-order violation on rank {rank}: {phase} "
                        f"traffic for step {step} at t={start:.6f} after "
                        f"step {max_step} traffic already ran "
                        f"(look-ahead depth {lookahead_depth})"
                    ),
                ))
                break
            max_step = max(max_step, step)


def conformance_from_trace(path, program: str = "hplai",
                           progression: Optional[str] = None
                           ) -> ConformanceReport:
    """Load a trace artifact, rebuild its config from provenance,
    extract the matching static schedule, and check conformance."""
    from repro.errors import ConfigurationError
    from repro.obs.analysis import config_from_provenance, \
        load_profile_input

    pi = load_profile_input(path)
    if not pi.provenance:
        raise ConfigurationError(
            f"{path}: trace carries no provenance block; cannot rebuild "
            "the run configuration for conformance checking"
        )
    cfg = config_from_provenance(pi.provenance)
    if progression is not None:
        from dataclasses import replace

        cfg = replace(cfg, progression=progression)
    result = extract_config(cfg, program=program)
    if not result.completed:
        raise ConfigurationError(
            f"static schedule extraction failed for {path}: "
            f"{result.error or 'deadlock'}"
        )
    return check_conformance(pi, result.schedule, cfg.num_blocks)

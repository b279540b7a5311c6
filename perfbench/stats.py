"""Order statistics and failure accounting for the benchmark.

Every timing is reported as a median plus the highest percentile that
still has at least ten samples beyond it, together with its sample
count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: a tail percentile is reported only when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Interpolates between the two closest ranks of the sorted sample, the
    same rule as NumPy's default ``"linear"`` method.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    """The sample median; raises on an empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail_quantile(n: int, candidates=(99.9, 99.0, 90.0)) -> Optional[float]:
    """Highest candidate percentile with ``MIN_TAIL_SAMPLES`` beyond it.

    ``None`` when even the lowest candidate lacks the samples.
    """
    for q in candidates:
        if n * (100.0 - q) / 100.0 + 1e-9 >= MIN_TAIL_SAMPLES:
            return q
    return None


@dataclass(frozen=True)
class Summary:
    """Median and tail of one timing sample, with its size."""

    count: int
    p50: float
    #: the percentile ``tail`` reports, or None when the sample is too
    #: small for any tail figure
    tail_q: Optional[float]
    tail: Optional[float]

    def describe(self, unit: str) -> str:
        """``p50=... p99=... (n=...)`` for the human-readable report."""
        text = f"p50={self.p50:.4g} {unit}"
        if self.tail_q is not None:
            text += f", p{self.tail_q:g}={self.tail:.4g} {unit}"
        return text + f" (n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    """Median plus the highest tail percentile the sample supports."""
    q = tail_quantile(len(values))
    return Summary(
        count=len(values),
        p50=median(values),
        tail_q=q,
        tail=percentile(values, q) if q is not None else None,
    )


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    Uses :func:`statistics.quantiles` with ``n=4`` (its default
    ``"exclusive"`` method), the rule the benchmark's acceptance check
    applies to repeated runs.
    """
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two values")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("quartile spread of a sample with median 0")
    return (q3 - q1) / abs(mid)


@dataclass
class Tally:
    """Attempted and failed operations of one benchmark run.

    An operation is one unit of work (a simulation, a solve, a sweep
    job, an HTTP request) or one correctness check.  An exception, a
    non-2xx response, a failed job and an output that differs from its
    expected value each count as one failure.
    """

    attempted: int = 0
    failed: int = 0
    #: first few failure messages, for the report
    reasons: List[str] = field(default_factory=list)

    MAX_REASONS = 20

    def record(self, ok: bool, kind: str, reason: str = "") -> bool:
        """Count one operation; returns ``ok`` for chaining."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{kind}: {reason}" if reason else kind)
        return ok

    def check(self, kind: str, actual, expected) -> bool:
        """Count one equality check of an output against its pin."""
        ok = actual == expected
        return self.record(
            ok, kind, "" if ok else f"got {actual!r}, expected {expected!r}"
        )

    @property
    def failed_ratio(self) -> float:
        """Failures per attempted operation (0 when nothing was tried)."""
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

"""Tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.tracer import Span, SpanTracer
from repro.simulate.timeline import render_gantt


class TestSpanBasics:
    def test_add_and_iterate(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.5, rank=3, attrs={"k": 2})
        tr.add("wait_recv", "engine", 1.5, 2.0, rank=3)
        assert len(tr) == 2
        spans = tr.spans
        assert spans[0].name == "gemm"
        assert spans[0].duration == pytest.approx(1.5)
        assert spans[0].attrs == {"k": 2}
        assert spans[1].cat == "engine"

    def test_rejects_backwards_span(self):
        tr = SpanTracer()
        with pytest.raises(ConfigurationError):
            tr.add("gemm", "executor", 2.0, 1.0)

    def test_categories(self):
        tr = SpanTracer()
        for _ in range(3):
            tr.add("a", "engine", 0.0, 1.0)
        tr.add("b", "comm", 0.0, 1.0)
        assert tr.categories() == {"engine": 3, "comm": 1}

    def test_total_by_name(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0)
        tr.add("gemm", "executor", 2.0, 2.5)
        tr.add("fill", "executor", 0.0, 0.25)
        totals = tr.total_by_name()
        assert totals["gemm"] == pytest.approx(1.5)
        assert totals["fill"] == pytest.approx(0.25)


class TestStartEnd:
    def test_explicit_times(self):
        tr = SpanTracer()
        token = tr.start("phase", "driver", rank=0, at=1.0)
        span = tr.end(token, at=3.0)
        assert span.start == 1.0 and span.end == 3.0

    def test_unknown_token_rejected(self):
        tr = SpanTracer()
        with pytest.raises(ConfigurationError):
            tr.end(99)

    def test_double_end_rejected(self):
        tr = SpanTracer()
        t = tr.start("x", "driver", at=0.0)
        tr.end(t, at=1.0)
        with pytest.raises(ConfigurationError):
            tr.end(t, at=2.0)

    def test_nesting_records_parent(self):
        tr = SpanTracer()
        outer = tr.start("outer", "driver", at=0.0)
        inner = tr.start("inner", "driver", at=0.5)
        tr.end(inner, at=0.7)
        tr.end(outer, at=1.0)
        inner_span, outer_span = tr.spans
        assert inner_span.parent == outer
        assert outer_span.parent is None

    def test_virtual_clock(self):
        clock = iter([10.0, 12.0])
        tr = SpanTracer(clock=lambda: next(clock))
        with tr.span("step", "driver", rank=1, k=4):
            pass
        (s,) = tr.spans
        assert (s.start, s.end) == (10.0, 12.0)
        assert s.attrs == {"k": 4}


class TestRing:
    def test_capacity_bounds_memory(self):
        tr = SpanTracer(capacity=3)
        for i in range(10):
            tr.add(f"s{i}", "engine", float(i), float(i) + 1)
        assert len(tr) == 3
        assert tr.dropped == 7
        assert [s.name for s in tr] == ["s7", "s8", "s9"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SpanTracer(capacity=0)

    def test_merge_respects_capacity(self):
        a = SpanTracer(capacity=2)
        b = SpanTracer()
        for i in range(4):
            b.add(f"s{i}", "engine", 0.0, 1.0)
        a.merge(b)
        assert len(a) == 2
        assert a.dropped == 2


class TestMerge:
    def test_merge_keeps_overlapping_rank_spans(self):
        """Per-rank tracers merged into one keep every overlapping span."""
        a, b = SpanTracer(), SpanTracer()
        a.add("gemm", "executor", 0.0, 2.0, rank=0)
        b.add("gemm", "executor", 1.0, 3.0, rank=1)  # overlaps rank 0's
        b.add("wait_recv", "engine", 3.0, 4.0, rank=1)
        a.merge(b)
        assert len(a) == 3
        assert a.categories() == {"executor": 2, "engine": 1}
        assert a.total_by_name()["gemm"] == pytest.approx(4.0)

    def test_merge_accepts_plain_iterable(self):
        tr = SpanTracer()
        tr.merge([
            Span("gemm", "executor", 0.0, 1.0, rank=0),
            Span("gemm", "executor", 0.5, 1.5, rank=1),
        ])
        assert len(tr) == 2

    def test_merged_timeline_interleaves_ranks(self):
        """as_timeline on a merged tracer exposes the concurrency: both
        ranks' tuples survive even where their intervals overlap."""
        merged = SpanTracer()
        for rank in range(3):
            per_rank = SpanTracer()
            per_rank.add("gemm", "executor", 0.25 * rank, 2.0, rank=rank)
            per_rank.add("fill", "executor", 2.0, 2.5 + 0.25 * rank,
                         rank=rank)
            merged.merge(per_rank)
        tl = merged.as_timeline()
        assert len(tl) == 6
        assert {t[0] for t in tl} == {0, 1, 2}
        # every rank's gemm overlaps t=1.0
        covering = [t for t in tl if t[1] <= 1.0 <= t[2] and t[3] == "gemm"]
        assert len(covering) == 3


class TestTimelineAdapter:
    def test_as_timeline_tuples(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, rank=0)
        tr.add("wait_recv", "engine", 1.0, 2.0, rank=1)
        tr.add("factorization", "driver", 0.0, 2.0, rank=-1)  # no rank lane
        tl = tr.as_timeline()
        assert tl == [(0, 0.0, 1.0, "gemm"), (1, 1.0, 2.0, "wait_recv")]

    def test_category_filter(self):
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 1.0, rank=0)
        tr.add("xfer", "comm", 0.0, 0.5, rank=0)
        assert len(tr.as_timeline(cats=["executor"])) == 1

    def test_gantt_renders_spans(self):
        """The Gantt renderer draws tracer output."""
        tr = SpanTracer()
        tr.add("gemm", "executor", 0.0, 0.6, rank=0)
        tr.add("wait_recv", "engine", 0.6, 1.0, rank=0)
        tr.add("gemm", "executor", 0.0, 1.0, rank=1)
        out = render_gantt(tr.as_timeline(), width=20)
        assert "r0" in out and "r1" in out
        assert "#=gemm" in out

"""Lightweight span tracer: the package's common telemetry event.

A :class:`Span` is one closed interval of work attributed to a rank and
a category (the layer that emitted it: ``engine``, ``executor``,
``comm``, ``driver``, ...).  Times are *virtual seconds* when the spans
come from the event engine and wall seconds when they come from real
code; the tracer does not care — it only requires ``end >= start``.

Three emission styles are supported:

- :meth:`SpanTracer.add` — record a finished span with explicit times
  (what the engine uses: it already knows both clock values);
- :meth:`SpanTracer.start` / :meth:`SpanTracer.end` — open/close API for
  code that discovers the end time later;
- :meth:`SpanTracer.span` — a context manager reading a clock callable
  (defaults to :func:`time.perf_counter`), with nesting tracked so child
  spans carry their parent's id.

Memory is bounded with ``capacity``: the tracer becomes a ring that
evicts the oldest spans and counts :attr:`SpanTracer.dropped` — the
"don't let telemetry OOM the run" option for large simulations.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: the (rank, start, end, kind) tuple consumed by repro.simulate.timeline
TimelineSpan = Tuple[int, float, float, str]


@dataclass
class Span:
    """One closed interval of attributed work."""

    name: str
    cat: str
    start: float
    end: float
    rank: int = -1
    attrs: Dict[str, Any] = field(default_factory=dict)
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_timeline(self) -> TimelineSpan:
        """The ``(rank, start, end, kind)`` tuple the Gantt renderer draws."""
        return (self.rank, self.start, self.end, self.name)


class _OpenSpan:
    __slots__ = ("name", "cat", "rank", "start", "attrs", "parent")

    def __init__(self, name, cat, rank, start, attrs, parent) -> None:
        self.name = name
        self.cat = cat
        self.rank = rank
        self.start = start
        self.attrs = attrs
        self.parent = parent


class SpanTracer:
    """Collects spans, optionally into a bounded ring.

    Parameters
    ----------
    capacity:
        ``None`` keeps every span; a positive int keeps only the newest
        ``capacity`` spans and counts evictions in :attr:`dropped`.
    clock:
        Default clock for :meth:`span` / :meth:`start` when no explicit
        time is given.  Engine-side emitters always pass explicit
        virtual times, so the default (:func:`time.perf_counter`) only
        matters for real-world instrumentation.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"tracer capacity must be positive or None, got {capacity}"
            )
        self.capacity = capacity
        self.clock = clock
        self._spans: deque = deque(maxlen=capacity)
        self.dropped = 0
        self._open: Dict[int, _OpenSpan] = {}
        self._next_token = 1
        #: per-thread-of-control nesting stack (token ids)
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    def add(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        rank: int = -1,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional[int] = None,
    ) -> None:
        """Record a finished span with explicit times."""
        if end < start:
            raise ConfigurationError(
                f"span {name!r} ends ({end}) before it starts ({start})"
            )
        if self.capacity is not None and len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(
            Span(name, cat, start, end, rank, attrs or {}, parent)
        )

    def start(
        self,
        name: str,
        cat: str,
        rank: int = -1,
        at: Optional[float] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns a token for :meth:`end`."""
        token = self._next_token
        self._next_token += 1
        parent = self._stack[-1] if self._stack else None
        t = at if at is not None else self.clock()
        self._open[token] = _OpenSpan(name, cat, rank, t, attrs, parent)
        self._stack.append(token)
        return token

    def end(self, token: int, at: Optional[float] = None) -> Span:
        """Close a previously started span and record it."""
        open_span = self._open.pop(token, None)
        if open_span is None:
            raise ConfigurationError(f"unknown or already-ended span token {token}")
        if token in self._stack:
            self._stack.remove(token)
        t = at if at is not None else self.clock()
        self.add(
            open_span.name,
            open_span.cat,
            open_span.start,
            max(t, open_span.start),
            open_span.rank,
            open_span.attrs,
            open_span.parent,
        )
        return self._spans[-1]

    def span(self, name: str, cat: str, rank: int = -1, **attrs: Any):
        """Context manager recording one span around a code block."""
        return _SpanContext(self, name, cat, rank, attrs)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def categories(self) -> Dict[str, int]:
        """Span count per category."""
        out: Dict[str, int] = {}
        for s in self._spans:
            out[s.cat] = out.get(s.cat, 0) + 1
        return out

    def clear(self) -> None:
        """Drop all spans (including open ones) and reset the counters."""
        self._spans.clear()
        self._open.clear()
        self._stack.clear()
        self.dropped = 0

    def merge(self, other: "SpanTracer | Iterable[Span]") -> None:
        """Fold another tracer's (or iterable's) spans into this one."""
        for s in other:
            if self.capacity is not None and len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(s)

    # -- adapters ----------------------------------------------------------

    def as_timeline(
        self, cats: Optional[Iterable[str]] = None
    ) -> List[TimelineSpan]:
        """``(rank, start, end, kind)`` tuples for the Gantt renderer.

        ``cats`` restricts to the given categories (default: everything
        attributed to a real rank, i.e. ``rank >= 0``).
        """
        allow = set(cats) if cats is not None else None
        return [
            s.as_timeline()
            for s in self._spans
            if s.rank >= 0 and (allow is None or s.cat in allow)
        ]

    def total_by_name(self) -> Dict[str, float]:
        """Summed duration per span name (all ranks)."""
        out: Dict[str, float] = {}
        for s in self._spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration
        return out


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_cat", "_rank", "_attrs", "_token")

    def __init__(self, tracer, name, cat, rank, attrs) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._rank = rank
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._token = self._tracer.start(
            self._name, self._cat, self._rank, **self._attrs
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end(self._token)

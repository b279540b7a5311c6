"""Host-time spans recorded around the program's layer boundaries.

The traced run wraps public functions and methods of each layer from
outside the program: the wrapper replaces the name the caller looks up
(a module global, a class attribute or a dispatch-table entry), records
one span per call and restores the original when the run ends.  Nothing
under ``src/`` changes.

Spans live in memory as columns (name id, start, end, parent index,
unit id) so that a few million of them stay cheap, and are written out
as one ``.npz`` file when the run ends.  A span's parent is the span
open on the calling stack when it began; the wrappers assume the traced
code runs on one thread, which holds for every traced workload (the
campaign sweep runs inline when traced).

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_clock = time.perf_counter


class SpanRecorder:
    """Columnar in-memory span store with a call-stack parent link."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("H")
        #: per-name work totals reported by call hooks (flops, bytes, hits)
        self.work: Dict[Tuple[int, str], float] = {}
        self._stack: List[int] = []
        #: id of the unit of work spans are attributed to (0 = none)
        self.current_unit = 0

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, nid: int) -> int:
        """Open a span now; returns its index for :meth:`finish`."""
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name.append(nid)
        self.unit.append(self.current_unit)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        """Close the span ``idx`` (the innermost open one)."""
        self.end[idx] = _clock()
        self._stack.pop()

    def add_work(self, key: str, amount: float) -> None:
        """Accumulate a hook-reported quantity for the current unit."""
        k = (self.current_unit, key)
        self.work[k] = self.work.get(k, 0.0) + amount

    def columns(self) -> Dict[str, np.ndarray]:
        """The span table as NumPy columns."""
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.uint16).copy(),
        }

    def write(self, path: Path, run_id: str) -> Path:
        """Write every span (and the name table) to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), run_id=np.array(run_id),
                 **self.columns())
        return path


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once (their union is subtracted), so a parent's self
    time is never negative and never double-subtracted.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return dur
    par = parent[kids]
    cs = np.maximum(start[kids], start[par])
    ce = np.minimum(end[kids], end[par])
    # Sort children by (parent, clipped start) and detect overlaps with
    # the previous sibling; the common, non-overlapping case is a plain
    # weighted bincount.
    order = np.lexsort((cs, par))
    par, cs, ce = par[order], cs[order], ce[order]
    same = np.empty(par.size, dtype=bool)
    same[0] = False
    same[1:] = par[1:] == par[:-1]
    prev_end = np.empty_like(ce)
    prev_end[0] = -np.inf
    prev_end[1:] = ce[:-1]
    if not np.any(same & (cs < prev_end)):
        covered += np.bincount(
            par, weights=np.maximum(ce - cs, 0.0), minlength=dur.size
        )[: dur.size]
        return dur - covered
    # Overlapping siblings: merge intervals per parent.
    group_start = np.nonzero(~same)[0]
    bounds = np.append(group_start, par.size)
    for g in range(group_start.size):
        lo, hi = bounds[g], bounds[g + 1]
        total = 0.0
        run_s, run_e = cs[lo], ce[lo]
        for i in range(lo + 1, hi):
            if cs[i] <= run_e:
                run_e = max(run_e, ce[i])
            else:
                total += max(run_e - run_s, 0.0)
                run_s, run_e = cs[i], ce[i]
        total += max(run_e - run_s, 0.0)
        covered[par[lo]] = total
    return dur - covered


# -- wrappers ----------------------------------------------------------------

Hook = Callable[[tuple, dict, object], Iterable[Tuple[str, float]]]


def wrap_call(fn: Callable, rec: SpanRecorder, name: str,
              hook: Optional[Hook] = None) -> Callable:
    """``fn`` recording one span per call (and hook-reported work)."""
    nid = rec.name_id(name)
    begin, finish = rec.begin, rec.finish

    if hook is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            for key, amount in hook(args, kwargs, result):
                rec.add_work(key, amount)
            return result

    traced.__perfbench_original__ = fn
    return traced


def wrap_generator(fn: Callable, rec: SpanRecorder, name: str) -> Callable:
    """A generator function whose every resumption is one span.

    The event engine drives rank programs with ``send`` only, so the
    wrapper forwards sent values and the return value; it does not
    forward ``throw``.
    """
    nid = rec.name_id(name)
    begin, finish = rec.begin, rec.finish

    def drive(gen):
        send = gen.send
        value = None
        while True:
            idx = begin(nid)
            try:
                op = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                finish(idx)
            value = yield op

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return drive(fn(*args, **kwargs))

    traced.__perfbench_original__ = fn
    return traced


class Patcher:
    """Replaces attributes and puts every original back on :meth:`undo`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        """``setattr`` that remembers the old value."""
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else
                            getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, table: dict, key, value) -> None:
        """Replace one dispatch-table entry."""
        self._saved.append((table, key, table[key]))
        table[key] = value

    def everywhere(self, original: Callable, replacement: Callable,
                   prefix: str = "repro") -> int:
        """Rebind ``original`` in every loaded module under ``prefix``.

        Modules that did ``from x import f`` hold their own binding; each
        is a name some caller looks up, so each is replaced.  Returns the
        number of bindings replaced.
        """
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    n += 1
        return n

    def undo(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def wrap_methods(patcher: Patcher, cls: type, names: Sequence[str],
                 rec: SpanRecorder, span: str,
                 hook: Optional[Hook] = None) -> None:
    """Wrap plain methods of ``cls`` (class attributes) under one span."""
    for attr in names:
        fn = cls.__dict__[attr]
        patcher.set(cls, attr, wrap_call(fn, rec, span, hook))


def public_methods(cls: type, suffix: str = "") -> List[str]:
    """Names of ``cls``'s own public plain methods ending in ``suffix``."""
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and name.endswith(suffix)
        and callable(value) and not isinstance(value, (staticmethod,
                                                       classmethod, type))
    ]

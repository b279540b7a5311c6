"""Span recording, wrapping, patching and self-time subtraction."""

import sys
import types

import numpy as np
import pytest

from perfbench.layers import CATALOG, UNITS, layer_metrics, unit_table
from perfbench.trace import (
    Patcher,
    SpanRecorder,
    self_times,
    wrap_call,
    wrap_generator,
)


def _self(spans):
    """self_times over (start, end, parent) triples."""
    start, end, parent = (np.array(c, dtype=float) for c in zip(*spans))
    return self_times(start, end, parent.astype(np.int32))


def test_leaf_self_time_is_its_duration():
    assert _self([(0.0, 5.0, -1)]).tolist() == [5.0]


def test_nested_children_are_subtracted_once_per_level():
    # root 0..10 > child 1..6 > grandchild 2..4; second child 7..9
    own = _self([(0, 10, -1), (1, 6, 0), (2, 4, 1), (7, 9, 0)])
    assert own.tolist() == [3.0, 3.0, 2.0, 2.0]


def test_overlapping_children_subtract_their_union():
    # children 1..5 and 3..8 overlap on 3..5: covered is 1..8 = 7
    own = _self([(0, 10, -1), (1, 5, 0), (3, 8, 0)])
    assert own.tolist() == [3.0, 4.0, 5.0]


def test_overlap_in_one_parent_does_not_disturb_another():
    own = _self([(0, 10, -1), (1, 5, 0), (3, 8, 0),
                 (20, 30, -1), (21, 22, 3), (23, 25, 3)])
    assert own.tolist() == [3.0, 4.0, 5.0, 7.0, 1.0, 2.0]


def test_children_are_clipped_to_the_parent_interval():
    # a child reported as running past its parent's end covers 8..10 only
    own = _self([(0, 10, -1), (8, 12, 0), (-3, 1, 0)])
    assert own[0] == pytest.approx(7.0)


def test_recorder_links_parents_and_units():
    rec = SpanRecorder()
    rec.current_unit = 2
    outer = rec.begin(rec.name_id("outer"))
    inner = rec.begin(rec.name_id("inner"))
    rec.finish(inner)
    rec.finish(outer)
    rec.current_unit = 0
    after = rec.begin(rec.name_id("outer"))
    rec.finish(after)
    cols = rec.columns()
    assert cols["parent"].tolist() == [-1, 0, -1]
    assert cols["unit"].tolist() == [2, 2, 0]
    assert rec.names == ["outer", "inner"]
    assert cols["name"].tolist() == [0, 1, 0]
    assert np.all(cols["end"] >= cols["start"])


def test_wrap_call_records_spans_and_hook_work_even_on_error():
    rec = SpanRecorder()

    def boom(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced = wrap_call(boom, rec, "layer.op",
                       hook=lambda a, k, r: [("layer.items", float(a[0]))])
    assert traced(3) == 6
    with pytest.raises(ValueError):
        traced(-1)
    assert len(rec) == 2 and rec._stack == []
    assert rec.work == {(0, "layer.items"): 3.0}
    assert traced.__perfbench_original__ is boom
    assert traced.__name__ == "boom"


def test_wrap_generator_times_each_resumption_and_keeps_return():
    rec = SpanRecorder()

    def program(n):
        total = 0
        for _ in range(n):
            total += yield "op"
        return total

    gen = wrap_generator(program, rec, "core.program")(3)
    assert gen.send(None) == "op"
    assert gen.send(1) == "op"
    assert gen.send(2) == "op"
    with pytest.raises(StopIteration) as stop:
        gen.send(4)
    assert stop.value.value == 7
    assert len(rec) == 4  # three yields plus the final resumption


def test_nested_generators_nest_their_spans():
    rec = SpanRecorder()

    def inner():
        yield "a"
        return 5

    wrapped_inner = wrap_generator(inner, rec, "inner")

    def outer():
        value = yield from wrapped_inner()
        yield value

    ops = list(wrap_generator(outer, rec, "outer")())
    assert ops == ["a", 5]
    cols = rec.columns()
    names = [rec.names[i] for i in cols["name"]]
    parents = cols["parent"].tolist()
    for idx, name in enumerate(names):
        if name == "inner":
            assert names[parents[idx]] == "outer"


def test_patcher_rebinds_every_module_binding_and_restores():
    original = lambda: "orig"  # noqa: E731
    mods = {name: types.ModuleType(name) for name in
            ("fakepkg", "fakepkg.a", "fakepkg.b", "otherpkg")}
    mods["fakepkg.a"].f = original
    mods["fakepkg.b"].alias = original
    mods["otherpkg"].f = original
    sys.modules.update(mods)
    try:
        p = Patcher()
        replacement = lambda: "new"  # noqa: E731
        assert p.everywhere(original, replacement, prefix="fakepkg") == 2
        assert mods["fakepkg.a"].f is replacement
        assert mods["fakepkg.b"].alias is replacement
        assert mods["otherpkg"].f is original  # outside the prefix
        table = {"k": original}
        p.set_item(table, "k", replacement)

        class C:
            def m(self):
                return 1

        p.set(C, "m", lambda self: 2)
        assert C().m() == 2
        p.undo()
        assert mods["fakepkg.a"].f is original
        assert mods["fakepkg.b"].alias is original
        assert table["k"] is original
        assert C().m() == 1
    finally:
        for name in mods:
            sys.modules.pop(name, None)


def test_unit_table_counts_outermost_same_name_time_once():
    rec = SpanRecorder()
    rec.current_unit = 1
    a = rec.name_id("machine.link_pricing")
    outer = rec.begin(a)
    inner = rec.begin(a)  # a pricing method calling another
    rec.finish(inner)
    rec.finish(outer)
    table = unit_table(rec, 1)
    cols = rec.columns()
    assert table.value([1], "machine.link_pricing", "count") == 2
    assert table.value([1], "machine.link_pricing", "incl") == pytest.approx(
        cols["end"][0] - cols["start"][0])
    assert table.value([1], "absent.name", "incl") == 0.0


def test_layer_metrics_reports_every_catalog_metric():
    rec = SpanRecorder()
    rec.current_unit = 1
    idx = rec.begin(rec.name_id("blas.gemm"))
    rec.finish(idx)
    rec.add_work("blas.gemm_flops", 2e9)
    out = layer_metrics(unit_table(rec, 1), [1], {"simulate.events": 7.0})
    assert list(out) == [row[0] for row in CATALOG]
    assert all(out[name][1] == UNITS[name] for name in out)
    assert out["blas.gemm_calls"][0] == 1.0
    assert out["blas.flops"][0] == 2e9
    assert out["simulate.events"][0] == 7.0
    assert out["model.estimates"][0] == 0.0
    with pytest.raises(KeyError):
        layer_metrics(unit_table(rec, 1), [1], {"not.in.catalog": 1.0})

"""Spans, self time and the matvec count of the traced run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tracing import Tracer, layer_metrics, self_times, span_totals  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; inner holds leaf [1.5, 2]
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0]))
    leaf = tracer.wrap(lambda: None, "leaf")

    def inner_body():
        if len(tracer.spans) == 2:
            leaf()

    inner = tracer.wrap(inner_body, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "leaf", "inner"]
    assert [s[1] for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])
    totals = span_totals(tracer.spans)
    assert totals["inner"] == pytest.approx((2, 3.0, 2.5))
    assert totals["outer"] == pytest.approx((1, 10.0, 7.0))


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        ["parent", None, 0.0, 10.0],
        ["a", 0, 1.0, 5.0],
        ["b", 0, 3.0, 7.0],  # overlaps a: together they cover [1, 7]
        ["c", 0, 9.0, 12.0],  # runs past the parent's end: only [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_end_when_the_call_raises():
    tracer = Tracer(clock=fake_clock([0.0, 2.0]))

    def fail():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(fail, "f")()
    assert tracer.spans == [["f", None, 0.0, 2.0]]
    assert tracer._stack == []


def test_matvecs_are_laplacians_inside_the_solve():
    tracer = Tracer()
    lap = tracer.wrap(lambda: None, "grid.array_laplacian")

    def solve():
        tracer.counters["stepper.krylov_iters"] += 1
        lap()
        lap()

    step = tracer.wrap(lambda: (tracer.wrap(solve, "stepper.solve_intermediate")(), lap()),
                       "stepper.step")
    step()
    step()
    m = layer_metrics(tracer)
    assert m["grid.array_laplacian.calls"] == 6
    assert m["stepper.matvecs.total"] == 4
    assert m["stepper.krylov_iters.total"] == 2
    assert m["stepper.krylov_iters.per_step"] == 1.0
    assert m["stepper.iters_per_matvec"] == 0.5


def test_patch_and_unpatch_restore_the_namespace():
    class Owner:
        @staticmethod
        def f():
            return 3

    original = Owner.__dict__["f"]
    tracer = Tracer()
    tracer.patch(Owner, "f", "owner.f")
    assert Owner.f() == 3
    assert tracer.spans[0][0] == "owner.f"
    tracer.unpatch()
    assert Owner.__dict__["f"] is original


def test_patch_points_a_refactor_removed_are_listed_not_fatal():
    class Owner:
        pass

    tracer = Tracer()
    tracer.patch(Owner, "gone", "owner.gone")
    assert tracer.missing == ["Owner.gone"]
    assert tracer._undo == []

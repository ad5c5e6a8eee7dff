import pytest

from spans import Span, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10]: runner [1, 7] (execute [2, 4], timing [4, 6.5]),
    # figures [8, 9.5]
    tree = [
        Span("harness.suite", 0.0, 10.0, -1),
        Span("harness.runner", 1.0, 7.0, 0),
        Span("sim.execute", 2.0, 4.0, 1),
        Span("sim.timing", 4.0, 6.5, 1),
        Span("harness.figures", 8.0, 9.5, 0),
    ]
    assert self_times(tree) == pytest.approx([2.5, 1.5, 2.0, 2.5, 1.5])
    assert sum(self_times(tree)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    tree = [
        Span("parent", 0.0, 10.0, -1),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 6.0, 0),      # overlaps a: union is [1, 6]
        Span("c", 9.0, 12.0, 0),     # clipped to [9, 10]
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nesting_and_app():
    tracer = Tracer()
    tracer.app = "GEM"
    with tracer.span("outer"):
        with tracer.span("inner") as rec:
            rec[-1] = "serial"
    outer, inner = (Span(*s) for s in tracer.spans)
    assert (outer.parent, inner.parent) == (-1, 0)
    assert inner.app == "GEM" and inner.label == "serial"
    assert outer.start <= inner.start <= inner.end <= outer.end

import types

from tracing import Span, Tracer, median_self_ms, self_times


def test_self_time_subtracts_children_only_from_their_parent():
    spans = [
        Span("attack", 0.0, 10.0, None, 0),
        Span("build", 1.0, 4.0, 0, 0),
        Span("products", 1.5, 3.5, 1, 0),
        Span("solve", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 1.0, 2.0, 4.0]


def test_median_self_ms_sums_per_instance_then_takes_the_median():
    spans = [
        Span("solve", 0.0, 0.001, None, 0),
        Span("solve", 0.001, 0.002, None, 0),
        Span("solve", 0.0, 0.005, None, 1),
        Span("solve", 0.0, 0.010, None, 2),
    ]
    out = median_self_ms(spans, [1.0, 1.0, 1.0])
    assert round(out["solve"], 9) == 5.0
    scaled = median_self_ms(spans, [10.0, 1.0, 0.1])
    assert round(scaled["solve"], 9) == 5.0  # instance 1 stays the median: 20, 5, 1 ms


def test_spans_nest_and_record_their_instance():
    tr = Tracer()
    tr.instance = 3
    with tr.span("outer"):
        tr.call("inner", lambda: None)
    outer, inner = tr.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert outer.instance == inner.instance == 3
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_patched_routes_calls_through_spans_and_restores():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    tr = Tracer()
    with tr.patched([("mod.f", mod, "f"), ("mod.gone", mod, "gone")]):
        assert mod.f(1) == 2
    assert mod.f is orig
    assert [s.name for s in tr.spans] == ["mod.f"]

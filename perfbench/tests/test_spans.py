"""Self-time arithmetic and span stitching."""

import types

import pytest

from perfbench import spans
from perfbench.spans import Span


def _span(name, start, end, span_id, parent=None, request=1):
    return Span(name, start, end, span_id, parent, request)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert spans.covered_ns((0, 100), []) == 0
    assert spans.covered_ns((0, 100), [(10, 20), (30, 40)]) == 20
    assert spans.covered_ns((0, 100), [(10, 30), (20, 40)]) == 30
    assert spans.covered_ns((0, 100), [(10, 20), (15, 18), (20, 25)]) == 15
    assert spans.covered_ns((0, 100), [(-10, 10), (90, 120)]) == 20
    assert spans.covered_ns((0, 100), [(200, 300)]) == 0


def test_self_time_is_duration_minus_child_coverage():
    recorded = [
        _span("model_server", 0, 100, 1),
        _span("kernel_server", 10, 40, 2, parent=1),
        _span("graphs.assemble", 50, 70, 3, parent=1),
        _span("sim", 55, 65, 4, parent=3),
        # Children running in parallel threads overlap: count the union.
        _span("cache.get", 15, 30, 5, parent=2),
        _span("cache.get", 20, 35, 6, parent=2),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {1: 50, 2: 10, 3: 10, 4: 10, 5: 15, 6: 15}


def test_layer_table_counts_nested_same_layer_busy_once():
    recorded = [
        _span("sim", 0, 100, 1),
        _span("sim", 10, 60, 2, parent=1),
        _span("codegen", 70, 90, 3, parent=1),
        _span("sim", 200, 230, 4),
    ]
    table = spans.layer_table(recorded)
    assert table["sim"] == {"calls": 3, "busy_ns": 130, "self_ns": 30 + 50 + 30}
    assert table["codegen"] == {"calls": 1, "busy_ns": 20, "self_ns": 20}


def test_recorder_stitches_parents_and_requests():
    recorder = spans.SpanRecorder()

    def inner(x):
        return x + 1

    def outer(x):
        return recorder.call("inner", inner, (x,), {})

    assert recorder.call("outer", outer, (1,), {}) == 2
    assert recorder.call("outer", outer, (5,), {}) == 6
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    first_outer, second_outer = sorted(by_name["outer"], key=lambda s: s.start_ns)
    first_inner, second_inner = sorted(by_name["inner"], key=lambda s: s.start_ns)
    assert first_inner.parent == first_outer.span_id
    assert first_inner.request == first_outer.request
    assert second_outer.parent is None
    assert second_inner.parent == second_outer.span_id
    assert second_outer.request != first_outer.request
    assert all(s.end_ns >= s.start_ns for s in recorder.spans)


def test_recorder_records_failed_calls_and_reraises():
    recorder = spans.SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.call("boom", boom, (), {})
    assert recorder.spans[0].attrs == {"error": "KeyError"}


def test_installed_wraps_methods_and_restores_them(monkeypatch):
    class Engine:
        def search(self, value):
            return value * 2

    module = types.ModuleType("perfbench_fake_module")
    module.Engine = Engine
    module.helper = lambda value: value + 1
    monkeypatch.setitem(__import__("sys").modules, "perfbench_fake_module", module)
    original = Engine.__dict__["search"]
    recorder = spans.SpanRecorder()
    targets = [
        spans.Target("perfbench_fake_module:Engine.search", "search",
                      after=lambda state, args, kwargs, result: {"result": result}),
        spans.Target("perfbench_fake_module:helper", "helper"),
    ]
    with spans.Installed(recorder, targets):
        assert Engine().search(3) == 6
        assert module.helper(1) == 2
    assert Engine.__dict__["search"] is original
    assert module.helper(1) == 2
    assert [(s.name, s.attrs) for s in recorder.spans] == [
        ("search", {"result": 6}),
        ("helper", {}),
    ]
    assert spans.durations_us(recorder.spans, "search", result=6)
    assert spans.durations_us(recorder.spans, "search", result=7) == []

import threading

import pytest

from benchmarks.suite.spans import (
    Span,
    SpanRecorder,
    children_of,
    descendants,
    self_seconds,
    wrap,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def span(name, start, end, parent=None):
    made = Span(name, start, parent)
    made.end = end
    return made


def test_self_time_subtracts_only_what_direct_children_cover():
    root = span("system.run", 0.0, 10.0)
    pre = span("preprocessor.run", 1.0, 6.0, root)
    sql1 = span("sqlengine.execute", 1.5, 3.0, pre)
    sql2 = span("sqlengine.execute", 3.5, 5.5, pre)
    core = span("core.simple", 6.5, 9.0, root)
    spans = [root, pre, sql1, sql2, core]
    index = children_of(spans)
    assert self_seconds(root, index[id(root)]) == pytest.approx(2.5)
    assert self_seconds(pre, index[id(pre)]) == pytest.approx(1.5)
    assert self_seconds(core, index.get(id(core), ())) == pytest.approx(2.5)
    # self times of the whole tree add up to the root's duration
    total = sum(self_seconds(s, index.get(id(s), ())) for s in spans)
    assert total == pytest.approx(root.seconds)
    assert set(map(id, descendants(root, index))) == set(map(id, spans[1:]))


def test_overlapping_and_overhanging_children_are_counted_once():
    root = span("root", 0.0, 10.0)
    children = [
        span("a", 1.0, 5.0, root),
        span("b", 4.0, 7.0, root),    # overlaps a
        span("c", 9.0, 12.0, root),   # ends after the parent
    ]
    assert self_seconds(root, children) == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrap_nests_spans_and_runs_hooks():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def inner(x):
        clock.advance(2.0)
        return x * 2

    traced_inner = wrap(recorder, "inner", inner,
                        after=lambda s, a, k, r: s.attrs.update(result=r))

    def outer(x):
        clock.advance(1.0)
        value = traced_inner(x)
        clock.advance(0.5)
        return value

    traced_outer = wrap(recorder, "outer", outer,
                        before=lambda s, a, k, r: s.attrs.update(arg=a[0]))
    assert traced_outer(21) == 42
    outer_span, inner_span = recorder.spans
    assert (outer_span.name, inner_span.name) == ("outer", "inner")
    assert inner_span.parent is outer_span and outer_span.parent is None
    assert outer_span.seconds == pytest.approx(3.5)
    assert self_seconds(outer_span, [inner_span]) == pytest.approx(1.5)
    assert outer_span.attrs == {"arg": 21}
    assert inner_span.attrs == {"result": 42}


def test_a_raising_function_still_closes_its_span():
    recorder = SpanRecorder(FakeClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        wrap(recorder, "boom", boom)()
    assert recorder.spans[0].end is not None
    follower = recorder.open("next")
    assert follower.parent is None


def test_threads_keep_separate_span_stacks():
    recorder = SpanRecorder()
    parent = recorder.open("main")
    seen = []

    def worker():
        seen.append(recorder.open("worker"))
        recorder.close(seen[0])

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    recorder.close(parent)
    assert seen[0].parent is None

"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    render_chrome_trace,
    render_obs_report,
    trace_events,
    write_chrome_trace,
)


class TestTracerSpans:
    def test_span_records_duration_and_order(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", category="a"):
            clock.advance(1.0)
            with tracer.span("inner", category="b"):
                clock.advance(0.5)
        # spans complete in end order: inner first
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.seconds == pytest.approx(0.5)
        assert outer.seconds == pytest.approx(1.5)

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        depths = {s.name: s.depth for s in tracer.spans}
        assert depths == {"a": 0, "b": 1, "c": 2}

    def test_begin_end_without_context_manager(self):
        tracer = Tracer()
        span = tracer.begin("work", category="x", detail="d")
        assert tracer.end(span) >= 0.0
        assert tracer.spans[0].args == {"detail": "d"}
        # ending twice is harmless
        tracer.end(span)
        assert len(tracer.spans) == 1

    def test_annotate_merges_args(self):
        tracer = Tracer()
        with tracer.span("q", rows=1) as span:
            span.annotate(plan="Scan t")
        assert tracer.spans[0].args == {"rows": 1, "plan": "Scan t"}

    def test_tracer_annotate_reaches_the_innermost_open_span(self):
        tracer = Tracer()
        tracer.annotate(lost=True)  # no span open: nothing to mark
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(mark="inner")
            tracer.annotate(mark="outer")
        assert {s.name: s.args for s in tracer.spans} == {
            "inner": {"mark": "inner"},
            "outer": {"mark": "outer"},
        }
        Tracer(enabled=False).annotate(ignored=True)

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert len(tracer.spans) == 1
        assert tracer.spans[0].end is not None

    def test_instants_keep_category_and_args(self):
        tracer = Tracer()
        tracer.instant("marker", category="flow", detail="first")
        tracer.instant("other")
        assert [(i.name, i.category, i.args) for i in tracer.instants] == [
            ("marker", "flow", {"detail": "first"}),
            ("other", "", {}),
        ]

    def test_category_seconds_and_slowest(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("q1", category="sql"):
            clock.advance(2.0)
        with tracer.span("q2", category="sql"):
            clock.advance(1.0)
        assert tracer.category_seconds()["sql"] == pytest.approx(3.0)
        assert tracer.slowest(1)[0].name == "q1"


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as span:
            span.annotate(x=1)
        tracer.instant("ignored")
        assert tracer.spans == []
        assert tracer.instants == []

    def test_disabled_hands_out_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin("a") is NULL_SPAN
        assert tracer.begin("b") is NULL_SPAN
        assert tracer.end(NULL_SPAN) == 0.0

    def test_analyze_requires_enabled(self):
        assert Tracer(enabled=False, analyze=True).analyze is False
        assert Tracer(enabled=True, analyze=True).analyze is True

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestChromeTraceExport:
    def test_events_are_valid_trace_format(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("phase", category="component"):
            clock.advance(0.010)
        tracer.instant("marker", category="flow")
        events = trace_events(tracer)
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i"} == phases
        complete = next(e for e in events if e["ph"] == "X")
        assert complete["name"] == "phase"
        assert complete["cat"] == "component"
        assert complete["dur"] == pytest.approx(10_000)  # microseconds
        for event in events:
            assert "pid" in event
            if event["ph"] in ("X", "i"):
                assert "tid" in event and "ts" in event

    def test_render_is_json_with_trace_events_key(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        data = json.loads(render_chrome_trace(tracer))
        assert isinstance(data["traceEvents"], list)
        assert data["displayTimeUnit"] == "ms"

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", category="c"):
            pass
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        names = [e["name"] for e in data["traceEvents"] if e["ph"] == "X"]
        assert names == ["s"]

    def test_unserializable_args_fall_back_to_repr(self):
        tracer = Tracer()
        with tracer.span("s", obj=object()):
            pass
        json.loads(render_chrome_trace(tracer))  # must not raise


class TestObsReport:
    def test_report_lists_categories_and_slowest_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("q", category="sql"):
            clock.advance(0.5)
        text = render_obs_report(tracer)
        assert "time by category:\n  sql" in text
        assert "slowest spans (top 1):\n  q " in text

    def test_disabled_tracer_reports_so(self):
        assert "disabled" in render_obs_report(Tracer(enabled=False))


class FakeClock:
    """Deterministic perf-counter stand-in."""

    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now

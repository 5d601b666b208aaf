"""Units for the metrics registry, Prometheus rendering, slow-query
log and structured JSON logging."""

import io
import json
import threading

import pytest

from repro.obs.jsonlog import JsonLogger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    MetricsRegistry,
)
from repro.obs.promtext import CONTENT_TYPE, render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import Tracer


# ----------------------------------------------------------------------
# registry basics
# ----------------------------------------------------------------------


def test_counter_accumulates_and_labels_partition():
    reg = MetricsRegistry()
    c = reg.counter("hits_total", "hits", ("cache",))
    c.inc(cache="plan")
    c.inc(2, cache="plan")
    c.inc(cache="statement")
    assert c.value(cache="plan") == 3
    assert c.value(cache="statement") == 1


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c_total").inc(-1)


def test_gauge_set_and_inc():
    reg = MetricsRegistry()
    g = reg.gauge("rows")
    g.set(10)
    g.inc(5)
    assert g.value() == 15


def test_histogram_buckets_cumulative():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        h.observe(value)
    state = h.state()
    assert state.count == 5
    assert state.counts == [1, 2, 1, 1]  # per-bucket, +Inf last
    assert state.cumulative() == [1, 3, 4, 5]
    assert state.sum == pytest.approx(5.605)


def test_histogram_value_on_boundary_falls_in_bucket():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0))
    h.observe(0.1)
    assert h.state().counts == [1, 0, 0]  # le="0.1" is inclusive


def test_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "help", ("k",))
    b = reg.counter("x_total", "other help", ("k",))
    assert a is b


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")


def test_labelnames_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x_total", labelnames=("a",))
    with pytest.raises(ValueError):
        reg.counter("x_total", labelnames=("b",))


def test_wrong_labels_on_observation_raises():
    reg = MetricsRegistry()
    c = reg.counter("x_total", labelnames=("a",))
    with pytest.raises(ValueError):
        c.inc(b="nope")


def test_disabled_registry_hands_out_null_instrument():
    assert not NULL_REGISTRY.enabled
    c = NULL_REGISTRY.counter("x_total")
    assert c is NULL_INSTRUMENT
    c.inc()
    c.observe(1.0)
    c.set(2.0)
    assert c.value() == 0
    assert NULL_REGISTRY.collect() == []


def test_snapshot_is_json_ready():
    reg = MetricsRegistry()
    reg.counter("c_total", "c", ("k",)).inc(3, k="v")
    reg.histogram("h", "h", buckets=(1.0,)).observe(0.5)
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    assert snap["c_total"]["samples"][0] == {"labels": {"k": "v"}, "value": 3}
    hist = snap["h"]["samples"][0]
    assert hist["count"] == 1
    assert hist["buckets"]["+Inf"] == 1


# ----------------------------------------------------------------------
# tracer feed
# ----------------------------------------------------------------------


def test_tracer_span_close_feeds_span_histogram():
    reg = MetricsRegistry()
    tracer = Tracer(enabled=True, metrics=reg)
    with tracer.span("work", category="core"):
        pass
    state = reg.get("repro_span_seconds").state(category="core")
    assert state is not None and state.count == 1


def test_pipeline_series_derive_from_span_names_and_attributes():
    reg = MetricsRegistry()
    tracer = Tracer(enabled=True, metrics=reg)
    with tracer.span("minerule.run", category="minerule") as root:
        with tracer.span("preprocessor.Q1", category="preprocessor",
                         stage="Q1", purpose="count groups"):
            pass
        with tracer.span("preprocessor.CLEAN", category="preprocessor"):
            pass  # setup: no stage, no series
        with tracer.span("postprocessor.store", category="postprocessor",
                         rules=5):
            pass
        with pytest.raises(ValueError):
            with tracer.span("postprocessor", category="component"):
                raise ValueError("the unit did not complete")
        root.annotate(totg=4, mingroups=2, encoded_rows={"Bset": 7})
    assert reg.get("repro_preprocess_stage_seconds").state(
        stage="Q1").count == 1
    assert reg.get("repro_postprocess_seconds").state(
        step="store").count == 1
    assert reg.get("repro_rules_stored_total").value() == 5
    # a span left on an exception feeds nothing
    assert reg.get("repro_component_seconds") is None
    assert reg.get("repro_preprocess_totg").value() == 4
    assert reg.get("repro_encoded_table_rows").value(table="Bset") == 7


# ----------------------------------------------------------------------
# prometheus text rendering
# ----------------------------------------------------------------------


def test_render_prometheus_counter_and_gauge():
    reg = MetricsRegistry()
    reg.counter("req_total", "requests", ("kind",)).inc(2, kind="sql")
    reg.gauge("temp", "temperature").set(1.5)
    text = render_prometheus(reg)
    assert "# HELP req_total requests" in text
    assert "# TYPE req_total counter" in text
    assert 'req_total{kind="sql"} 2' in text
    assert "# TYPE temp gauge" in text
    assert "temp 1.5" in text
    assert text.endswith("\n")
    assert "version=0.0.4" in CONTENT_TYPE


def test_render_prometheus_histogram_shape():
    reg = MetricsRegistry()
    h = reg.histogram("lat_seconds", "latency", ("op",), buckets=(0.1, 1.0))
    h.observe(0.05, op="q")
    h.observe(0.5, op="q")
    text = render_prometheus(reg)
    assert 'lat_seconds_bucket{op="q",le="0.1"} 1' in text
    assert 'lat_seconds_bucket{op="q",le="1"} 2' in text
    assert 'lat_seconds_bucket{op="q",le="+Inf"} 2' in text
    assert 'lat_seconds_count{op="q"} 2' in text
    assert 'lat_seconds_sum{op="q"} 0.55' in text


def test_render_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("c_total", "c", ("q",)).inc(q='say "hi"\nback\\slash')
    text = render_prometheus(reg)
    assert '\\"hi\\"' in text
    assert "\\n" in text
    assert "\\\\slash" in text


def test_default_buckets_are_sorted_and_span_the_range():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert DEFAULT_BUCKETS[0] <= 0.001
    assert DEFAULT_BUCKETS[-1] >= 5.0


# ----------------------------------------------------------------------
# thread safety
# ----------------------------------------------------------------------


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()
    c = reg.counter("n_total")
    h = reg.histogram("h", buckets=(0.5,))

    def work():
        for _ in range(500):
            c.inc()
            h.observe(0.1)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value() == 4000
    assert h.state().count == 4000


# ----------------------------------------------------------------------
# slow-query log
# ----------------------------------------------------------------------


def test_slowlog_threshold_and_ring_buffer():
    log = SlowQueryLog(threshold=0.010, capacity=3, clock=lambda: 123.0)
    assert not log.record("sql.Select", 0.001)
    for i in range(5):
        assert log.record(f"q{i}", 0.020 + i / 1000)
    entries = log.entries()
    assert [e.name for e in entries] == ["q2", "q3", "q4"]  # oldest evicted
    assert log.total_recorded == 5
    assert entries[0].at == 123.0


def test_slowlog_render_and_dicts():
    log = SlowQueryLog(threshold=0.0)
    log.record("minerule.run", 0.2, detail="MINE  RULE   x")
    rendered = log.render()
    assert "minerule.run" in rendered
    assert "200.00 ms" in rendered
    dicts = log.as_dicts()
    assert dicts[0]["ms"] == 200.0
    assert dicts[0]["detail"] == "MINE RULE x"  # whitespace squeezed
    json.dumps(dicts)


def test_slowlog_rejects_bad_construction():
    with pytest.raises(ValueError):
        SlowQueryLog(capacity=0)
    with pytest.raises(ValueError):
        SlowQueryLog(threshold=-1)


def test_slowlog_empty_render_mentions_threshold():
    assert "50.0 ms" in SlowQueryLog(threshold=0.050).render()


# ----------------------------------------------------------------------
# json logging
# ----------------------------------------------------------------------


def test_jsonlog_one_line_per_event():
    stream = io.StringIO()
    logger = JsonLogger(stream=stream, clock=lambda: 1700000000.0)
    logger.log("statement", kind="mine", ms=12.5, ok=True)
    logger.error("boom", error="KeyError: 'x'")
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["event"] == "statement"
    assert first["level"] == "info"
    assert first["kind"] == "mine"
    assert first["ts"] == 1700000000.0
    second = json.loads(lines[1])
    assert second["level"] == "error"


def test_jsonlog_survives_broken_stream():
    class Broken:
        def write(self, data):
            raise OSError("gone")

        def flush(self):
            raise OSError("gone")

    logger = JsonLogger(stream=Broken())
    logger.log("event")  # must not raise

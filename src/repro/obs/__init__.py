"""Unified observability: spans, metrics, logs, trace export, serving.

Replaces the scattered ad-hoc timing of earlier revisions with one
subsystem:

* :class:`Tracer` collects hierarchical spans and instants;
  :data:`NULL_TRACER` is the shared disabled instance that makes the
  un-traced path a single attribute check.
* :class:`MetricsRegistry` aggregates counters, gauges and histograms
  process-wide (:data:`REGISTRY` is the default instance,
  :data:`NULL_REGISTRY` the disabled null object); a tracer wired with
  ``metrics=`` feeds every closed span into it automatically.
* :func:`render_prometheus` renders a registry in Prometheus text
  exposition format 0.0.4; :class:`MonitoringServer` serves it over
  HTTP together with ``/healthz`` (:class:`HealthState`),
  ``/stats.json`` and ``/trace.json``.
* :class:`SlowQueryLog` keeps the latency tail,
  :class:`JsonLogger` emits structured JSON log lines, and
  :func:`write_chrome_trace` / :func:`render_obs_report` export traces.
"""

from repro.obs.context import (
    TraceContext,
    activated,
    current,
    ensure,
    new_trace_id,
)
from repro.obs.export import (
    render_chrome_trace,
    trace_events,
    write_chrome_trace,
)
from repro.obs.httpd import HealthState, MonitoringServer
from repro.obs.jsonlog import JsonLogger
from repro.obs.metrics import (
    NULL_REGISTRY,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.promtext import CONTENT_TYPE, render_prometheus
from repro.obs.report import render_obs_report
from repro.obs.runlog import RunLog, statement_fingerprint
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.spans import NULL_SPAN, NULL_TRACER, Instant, Span, Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "HealthState",
    "Histogram",
    "Instant",
    "JsonLogger",
    "MetricsRegistry",
    "MonitoringServer",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "REGISTRY",
    "RunLog",
    "Span",
    "SlowQuery",
    "SlowQueryLog",
    "TraceContext",
    "Tracer",
    "activated",
    "current",
    "ensure",
    "new_trace_id",
    "render_chrome_trace",
    "render_obs_report",
    "render_prometheus",
    "statement_fingerprint",
    "trace_events",
    "write_chrome_trace",
]

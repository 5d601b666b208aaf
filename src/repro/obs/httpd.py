"""Monitoring HTTP server (stdlib ``http.server``).

Serves the observability surfaces of a running mining system on a side
thread, so a long-lived ``repro serve`` process is scrape-able like any
production service:

* ``GET /metrics``    — Prometheus text exposition of the registry
* ``GET /healthz``    — 200 while healthy, 503 while the last run is
  failing (JSON body with the health snapshot either way)
* ``GET /stats.json`` — registry snapshot + slow-query log + health
* ``GET /trace.json`` — Chrome trace-event JSON of the session so far
* ``GET /runs``       — run-history summaries from the persistent
  journal (``?limit=&kind=``), when a ``runlog`` is mounted;
  ``/runs/<id>`` returns one full record, ``/runs/<id>/trace`` the
  run's own Chrome trace slice
* ``/jobs...``        — the REST job API (submit / poll / result /
  cancel), when an ``api`` router (:class:`repro.jobs.api.JobsApi`)
  is mounted; POST and DELETE are accepted on those paths only

Thread model: :class:`ThreadingHTTPServer` handles each scrape on its
own thread; the registry, health state and slow log are internally
locked, so concurrent scrapes during an active run read consistent
values.  A request whose handler raises is answered 500 and counted in
``repro_http_errors_total{method}`` of the exported registry (also when
the 500 itself cannot be sent).  No external dependencies — stdlib only.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import CONTENT_TYPE, render_prometheus


class HealthState:
    """Thread-safe run-state tracker behind ``/healthz``.

    A view of a :class:`~repro.obs.spans.Tracer`: a statement's root
    span (``minerule`` category) opening makes a run active, and its
    ``status`` attribute at close makes it a success (``ok`` or
    ``cancelled``) or a failure (``error``).  The server answers 503
    from the first failed run until the next success, which is what a
    load balancer draining a faulty replica needs to see.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._lock = threading.Lock()
        self._clock = clock
        self.healthy = True
        self.active = 0
        self.runs = 0
        self.failures = 0
        self.last_error: Optional[str] = None
        self.started_at = clock()

    def span_started(self, span: Any) -> None:
        if span.category == "minerule":
            with self._lock:
                self.active += 1

    def observe_span(self, span: Any) -> None:
        if span.category != "minerule":
            return
        failed = span.args.get("status") == "error"
        with self._lock:
            self.active = max(0, self.active - 1)
            self.runs += 1
            self.failures += failed
            self.healthy = not failed
            self.last_error = span.args.get("error") if failed else None

    @property
    def ok(self) -> bool:
        with self._lock:
            return self.healthy

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "status": "ok" if self.healthy else "failing",
                "active_runs": self.active,
                "runs": self.runs,
                "failures": self.failures,
                "last_error": self.last_error,
                "uptime_seconds": round(self._clock() - self.started_at, 3),
            }


class MonitoringServer:
    """The ``/metrics`` + ``/healthz`` + ``/stats.json`` +
    ``/trace.json`` endpoint on a daemon thread.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports
    the bound one.  ``stats`` and ``trace`` are optional callables
    returning the ``/stats.json`` dict and the ``/trace.json`` body —
    endpoints without a provider answer 404.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        health: Optional[HealthState] = None,
        stats: Optional[Callable[[], Dict[str, Any]]] = None,
        trace: Optional[Callable[[], str]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        api: Optional[Any] = None,
        runlog: Optional[Any] = None,
    ):
        self.registry = registry
        self._errors = registry.counter(
            "repro_http_errors_total",
            "Monitoring requests answered 500 by method",
            ("method",),
        )
        self.health = health if health is not None else HealthState()
        self._stats = stats
        self._trace = trace
        #: run-history journal (:class:`repro.obs.runlog.RunLog`)
        #: behind ``/runs``; None leaves the endpoints unmounted
        self.runlog = runlog
        #: optional request router (``handle(method, path, body, query)
        #: -> (code, payload) | None``); owns every /jobs path
        self.api = api
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------

    def start(self) -> "MonitoringServer":
        if self._httpd is not None:
            return self
        handler = self._make_handler()
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-monitoring",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MonitoringServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            # the monitor must not spam the serving process's stderr
            def log_message(self, *args: Any) -> None:
                pass

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                self._answer(self._get)

            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                self._answer(self._mutating)

            def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
                self._answer(self._mutating)

            def _answer(self, handle: Callable[[], None]) -> None:
                """The one error path: a handler that raises (a
                provider or router bug) yields a counted 500, not a
                hung connection."""
                try:
                    handle()
                except BrokenPipeError:  # the client went away mid-answer
                    pass
                except Exception as exc:
                    server._errors.inc(method=self.command)
                    try:
                        self._send_json(500, {"error": str(exc)})
                    except OSError:  # counted above; nobody to tell
                        pass

            def _get(self) -> None:
                path = self.path.split("?", 1)[0]
                if self._maybe_api("GET"):
                    return
                if path == "/metrics":
                    self._send(
                        200, CONTENT_TYPE, render_prometheus(server.registry)
                    )
                elif path == "/healthz":
                    snapshot = server.health.snapshot()
                    code = 200 if snapshot["status"] == "ok" else 503
                    self._send_json(code, snapshot)
                elif path == "/stats.json":
                    if server._stats is None:
                        self._send_json(404, {"error": "no stats provider"})
                    else:
                        self._send_json(200, server._stats())
                elif path == "/trace.json":
                    if server._trace is None:
                        self._send_json(404, {"error": "no trace provider"})
                    else:
                        self._send(200, "application/json", server._trace())
                elif path == "/runs" or path.startswith("/runs/"):
                    self._runs(path)
                else:
                    endpoints = ["/metrics", "/healthz", "/stats.json",
                                 "/trace.json"]
                    endpoints += ["/runs"] if server.runlog is not None else []
                    endpoints += ["/jobs"] if server.api is not None else []
                    self._send_json(
                        404,
                        {"error": f"unknown path {path!r}",
                         "endpoints": endpoints},
                    )

            def _runs(self, path: str) -> None:
                """The run-history endpoints over the mounted journal."""
                runlog = server.runlog
                run_id, _, tail = path[len("/runs/"):].partition("/")
                if runlog is None:
                    self._send_json(404, {"error": "no run history"})
                elif path == "/runs":
                    query = self._query()
                    limit = query.get("limit", "")
                    runs = runlog.list(
                        limit=int(limit) if limit.isdigit() else None,
                        kind=query.get("kind") or None,
                    )
                    self._send_json(200, {"runs": runs, "total": len(runlog)})
                elif tail == "trace":
                    events = runlog.trace(run_id)
                    if events is None:
                        self._send_json(
                            404, {"error": f"no trace for run {run_id!r}"}
                        )
                    else:
                        trace = {"traceEvents": events, "displayTimeUnit": "ms"}
                        self._send_json(200, trace)
                elif tail:
                    self._send_json(404, {"error": f"unknown path {path!r}"})
                else:
                    record = runlog.get(run_id)
                    if record is None:
                        self._send_json(
                            404, {"error": f"no such run: {run_id!r}"}
                        )
                    else:
                        self._send_json(200, record)

            def _query(self) -> Dict[str, str]:
                """The request's ``?key=value&...`` parameters."""
                chunks = self.path.partition("?")[2].split("&")
                return {
                    key: value
                    for key, _, value in (c.partition("=") for c in chunks)
                    if key
                }

            def _mutating(self) -> None:
                if not self._maybe_api(self.command):
                    self._send_json(
                        404,
                        {"error": f"{self.command} {self.path!r} not routed"},
                    )

            def _maybe_api(self, method: str) -> bool:
                """Offer the request to the mounted API router; True
                when it produced the response."""
                if server.api is None:
                    return False
                path = self.path.partition("?")[0]
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else None
                response = server.api.handle(method, path, body, self._query())
                if response is None:
                    return False
                code, payload = response
                self._send_json(code, payload)
                return True

            def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
                body = json.dumps(payload, indent=1, default=repr)
                self._send(code, "application/json", body)

            def _send(self, code: int, content_type: str, body: str) -> None:
                data = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        return Handler

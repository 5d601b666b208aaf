"""The serving-mode monitoring endpoint, scraped like Prometheus would.

A hand-rolled exposition-format parser (no client library — the point
is to validate the bytes on the wire) checks ``/metrics`` for the
well-known series; ``/healthz`` is driven through a fault-injected
failing run and back to recovery; concurrent scrapes race against
active MINE RULE runs; and a fully-observed run (metrics + slow log +
JSON logging + tracing) must stay bit-identical to a plain run on the
golden statements.
"""

import io
import json
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import Database, MiningSystem, faults
from repro.faults import FaultSchedule
from repro.datagen import load_purchase_figure1
from repro.obs import (
    HealthState,
    JsonLogger,
    MetricsRegistry,
    SlowQueryLog,
    Tracer,
)
from repro.serve import MineRuleService
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Minimal exposition-format parser: {family: kind} and
    {series name: [(labels dict, value)]}."""
    types = {}
    samples = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, labelstr, value = match.groups()
        labels = dict(LABEL_RE.findall(labelstr)) if labelstr else {}
        samples.setdefault(name, []).append((labels, float(value)))
    return types, samples


def fetch(url):
    """(status, body text); non-2xx statuses don't raise."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


@pytest.fixture
def service():
    svc = MineRuleService(scenario="purchase", port=0)
    with svc:
        yield svc


def mine(service, name="simple_associations"):
    output = service.feed(GOLDEN_STATEMENTS[name].strip() + ";\n")
    assert output is not None
    return output


def test_metrics_endpoint_exposes_wellknown_series(service):
    mine(service)
    status, body = fetch(service.monitor.url + "/metrics")
    assert status == 200
    types, samples = parse_prometheus(body)

    assert types["repro_sql_statement_seconds"] == "histogram"
    assert types["repro_preprocess_stage_seconds"] == "histogram"
    assert types["repro_minerule_runs_total"] == "counter"
    assert types["repro_sql_statements_total"] == "counter"

    # per-statement SQL latency, partitioned by statement kind
    kinds = {
        labels["kind"]
        for labels, _ in samples["repro_sql_statement_seconds_count"]
    }
    assert "Select" in kinds and "InsertSelect" in kinds

    # per-Q preprocessor stage timings
    stages = {
        labels["stage"]
        for labels, _ in samples["repro_preprocess_stage_seconds_count"]
    }
    assert "Q1" in stages

    # exactly one successful MINE RULE run so far
    assert samples["repro_minerule_runs_total"] == [({"status": "ok"}, 1.0)]

    # core-operator series exist (simple variant, apriori member)
    assert "repro_core_runs_total" in samples
    assert "repro_core_candidates_total" in samples


def test_histogram_invariants_on_the_wire(service):
    mine(service)
    _, body = fetch(service.monitor.url + "/metrics")
    _, samples = parse_prometheus(body)
    buckets = {}
    for labels, value in samples["repro_sql_statement_seconds_bucket"]:
        key = labels["kind"]
        buckets.setdefault(key, []).append((labels["le"], value))
    counts = dict(
        (labels["kind"], value)
        for labels, value in samples["repro_sql_statement_seconds_count"]
    )
    for kind, series in buckets.items():
        values = [v for _, v in series]
        assert values == sorted(values), kind  # cumulative, non-decreasing
        assert series[-1][0] == "+Inf"
        assert series[-1][1] == counts[kind]  # +Inf bucket == count


def test_healthz_flips_to_503_on_failing_run_and_recovers(service):
    status, body = fetch(service.monitor.url + "/healthz")
    assert status == 200

    faults.install(FaultSchedule.parse("postprocessor.store:1*9"))
    try:
        output = mine(service)
        assert "error" in output
        status, body = fetch(service.monitor.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "failing"
        assert payload["failures"] == 1
        assert "postprocessor.store" in payload["last_error"]
    finally:
        faults.uninstall()

    # the next successful run clears the condition
    mine(service)
    status, body = fetch(service.monitor.url + "/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"

    # ... and both outcomes are on the counter
    _, metrics_body = fetch(service.monitor.url + "/metrics")
    _, samples = parse_prometheus(metrics_body)
    outcomes = dict(
        (labels["status"], value)
        for labels, value in samples["repro_minerule_runs_total"]
    )
    assert outcomes == {"error": 1.0, "ok": 1.0}


def test_stats_and_trace_endpoints_are_valid_json(service):
    mine(service)
    status, body = fetch(service.monitor.url + "/stats.json")
    assert status == 200
    stats = json.loads(body)
    assert stats["health"]["status"] == "ok"
    assert stats["statements_executed"] > 0
    assert "repro_minerule_run_seconds" in stats["metrics"]

    status, body = fetch(service.monitor.url + "/trace.json")
    assert status == 200
    trace = json.loads(body)
    names = {e["name"] for e in trace["traceEvents"]}
    assert "minerule.run" in names

    status, body = fetch(service.monitor.url + "/nope")
    assert status == 404


def test_concurrent_scrapes_during_active_runs(service):
    """Scrapes racing MINE RULE runs must neither error nor observe a
    corrupted histogram (cumulative buckets stay monotone)."""
    errors = []
    stop = threading.Event()

    def scrape():
        while not stop.is_set():
            try:
                status, body = fetch(service.monitor.url + "/metrics")
                assert status == 200
                _, samples = parse_prometheus(body)
                for labels, value in samples.get(
                    "repro_sql_statement_seconds_bucket", []
                ):
                    assert value >= 0
            except Exception as exc:  # noqa: BLE001 - collected for the test
                errors.append(exc)
                return

    scrapers = [threading.Thread(target=scrape) for _ in range(4)]
    for thread in scrapers:
        thread.start()
    try:
        for name in ("simple_associations", "filtered_ordered_sets",
                     "ordered_sets"):
            mine(service, name)
    finally:
        stop.set()
        for thread in scrapers:
            thread.join()
    assert errors == []


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_fully_observed_run_is_bit_identical(name):
    """Metrics + slow log + JSON logging + tracing enabled together
    must not change the mined rules."""
    plain_db = Database()
    load_purchase_figure1(plain_db)
    plain = MiningSystem(database=plain_db).run(GOLDEN_STATEMENTS[name])

    observed_db = Database()
    load_purchase_figure1(observed_db)
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, analyze=True, metrics=registry)
    health = tracer.attach(HealthState())
    slowlog = SlowQueryLog(threshold=0.0)  # record everything
    system = MiningSystem(
        database=observed_db, tracer=tracer, metrics=registry,
        slowlog=slowlog,
    )
    system.json_log = JsonLogger(stream=io.StringIO())
    observed = system.run(GOLDEN_STATEMENTS[name])

    assert observed.rule_set() == plain.rule_set()
    assert health.ok
    assert slowlog.total_recorded > 0
    assert registry.get("repro_minerule_run_seconds") is not None


def test_a_raising_handler_is_one_counted_500():
    """``GET`` and ``POST`` share one error path: a provider or router
    that raises answers 500 once and counts it by method."""
    from repro.obs import MonitoringServer

    class BrokenApi:
        def handle(self, method, path, body, query):
            if method == "GET":
                return None  # not an API path: the monitor answers
            raise RuntimeError("router bug")

    def broken_stats():
        raise RuntimeError("provider bug")

    registry = MetricsRegistry()
    with MonitoringServer(registry, stats=broken_stats,
                          api=BrokenApi()) as monitor:
        status, body = fetch(monitor.url + "/stats.json")
        assert status == 500 and "provider bug" in json.loads(body)["error"]
        errors = registry.get("repro_http_errors_total")
        assert errors.value(method="GET") == 1
        request = urllib.request.Request(
            monitor.url + "/jobs", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(request, timeout=10)
        assert raised.value.code == 500
        assert errors.value(method="POST") == 1
        assert errors.value(method="GET") == 1

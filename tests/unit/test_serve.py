"""Units for serving mode: service wiring, line protocol, CLI args."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.serve import MineRuleService


def test_service_wires_one_observability_bundle():
    """Every sink is a view of the one tracer the shell, the system and
    the engine share."""
    service = MineRuleService(scenario="purchase")
    tracer = service.tracer
    assert tracer.enabled
    assert service.shell.system.tracer is tracer
    assert service.shell.db.tracer is tracer
    assert tracer.views == [
        service.metrics, service.slowlog, service.health, service.runlog,
    ]
    assert service.json_log is None  # default: no JSON logging


def test_line_protocol_accumulates_until_semicolon():
    service = MineRuleService(scenario="purchase")
    assert service.feed("SELECT item\n") is None
    assert service.shell.pending
    output = service.feed("FROM Purchase WHERE item = 'ski_pants';\n")
    assert output is not None and "ski_pants" in output


def test_meta_commands_work_in_serving_mode():
    service = MineRuleService(scenario="purchase")
    service.feed("SELECT 1;\n")
    metrics_text = service.feed(".metrics\n")
    assert "repro_sql_statement_seconds" in metrics_text
    slowlog_text = service.feed(".slowlog\n")
    assert "slow-query log" in slowlog_text


def test_stats_payload_is_json_ready():
    service = MineRuleService(scenario="purchase", slow_threshold=0.0)
    service.feed("SELECT COUNT(*) FROM Purchase;\n")
    stats = service.stats()
    json.dumps(stats)
    assert stats["health"]["status"] == "ok"
    assert stats["statements_executed"] == 1
    assert stats["slow_threshold_ms"] == 0.0
    assert stats["slow_queries_total"] >= 1


def test_errors_mark_health_without_killing_the_loop():
    service = MineRuleService(scenario="purchase")
    output = service.feed("SELECT nope FROM Missing;\n")
    assert "error" in output
    # plain SQL errors are shell-level, not run failures
    assert service.health.ok
    output = service.feed("SELECT item FROM Purchase WHERE item = 'col_shirts';\n")
    assert "col_shirts" in output


def test_external_registry_can_be_injected():
    registry = MetricsRegistry()
    service = MineRuleService(scenario="purchase", metrics=registry)
    service.feed("SELECT 1;\n")
    assert registry.get("repro_sql_statements_total") is not None


def test_monitor_binds_ephemeral_port():
    service = MineRuleService(port=0)
    with service:
        assert service.monitor.port > 0
        assert str(service.monitor.port) in service.monitor.url


GOLDEN = (
    "MINE RULE SimpleAssociations AS SELECT DISTINCT 1..n item AS BODY, "
    "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
    "GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)


def test_one_observation_per_sql_statement_per_sink():
    """A stdin SELECT and a SQL job are each one ``engine.Select`` span,
    and every sink reads that span once."""
    service = MineRuleService(scenario="purchase", slow_threshold=0.0)

    def counts():
        metrics = service.metrics
        statement = metrics.get("repro_sql_statement_seconds")
        span = metrics.get("repro_span_seconds")
        return (
            statement.state(kind="Select").count
            if statement is not None and statement.state(kind="Select")
            else 0,
            span.state(category="engine").count
            if span is not None and span.state(category="engine") else 0,
            sum(e.name == "sql.Select" for e in service.slowlog.entries()),
        )

    before = counts()
    service.feed("SELECT COUNT(*) FROM Purchase;\n")
    after_stdin = counts()
    assert after_stdin == tuple(count + 1 for count in before)
    with service:
        job = service.jobs.submit("SELECT item FROM Purchase")
        assert service.jobs.wait(job.id).state == "done"
    assert counts() == tuple(count + 1 for count in after_stdin)


def test_a_registry_given_twice_counts_once():
    """``Tracer(metrics=r)`` and ``MiningSystem(metrics=r)`` together
    (the benchmark suite's observed system) attach *r* once."""
    from repro import Database, MiningSystem
    from repro.datagen import load_purchase_figure1
    from repro.obs import Tracer

    registry = MetricsRegistry()
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(
        database=database, tracer=Tracer(metrics=registry), metrics=registry,
    )
    assert system.tracer.views == [registry]
    system.db.execute("SELECT COUNT(*) FROM Purchase")
    statement = registry.get("repro_sql_statement_seconds")
    assert statement.state(kind="Select").count == 1
    system.run(GOLDEN)
    runs = registry.get("repro_minerule_runs_total")
    assert runs.value(status="ok") == 1


def test_a_sink_without_a_tracer_gets_one():
    """A registry alone still records the SQL series: the system makes
    an enabled tracer to carry it and shares it with the engine."""
    from repro import Database, MiningSystem

    registry = MetricsRegistry()
    system = MiningSystem(database=Database(), metrics=registry)
    assert system.tracer.enabled and system.tracer.views == [registry]
    assert system.db.tracer is system.tracer
    system.db.execute("SELECT 1")
    assert registry.get("repro_sql_statements_total").value(kind="Select") == 1


def test_a_long_session_keeps_the_newest_spans(monkeypatch):
    """Past the cap a served session holds at most MAX_SPANS spans and
    says how many it dropped; a MINE RULE run after that reads its own
    record, so its flow, timings and journal match a fresh session's."""
    from repro.obs import spans
    from repro.obs.export import render_chrome_trace

    monkeypatch.setattr(spans, "MAX_SPANS", 40)

    def mined(service):
        result = service.shell.system.run(GOLDEN)
        record = service.runlog.list(kind="mine")[-1]
        trace = service.runlog.trace(record["id"])
        return (
            [(event.component, event.action) for event in result.flow.events],
            list(result.timings),
            list(record["stages"]),
            sorted(event["name"] for event in trace if event["ph"] == "X"),
        )

    expected = mined(MineRuleService(scenario="purchase"))
    service = MineRuleService(scenario="purchase")
    for _ in range(50):
        service.feed("SELECT COUNT(*) FROM Purchase;\n")
    tracer = service.tracer
    assert len(tracer.spans) == 40 and tracer.dropped_spans == 10
    assert mined(service) == expected
    assert len(tracer.spans) == 40
    other = json.loads(render_chrome_trace(tracer))["otherData"]
    assert other["dropped_spans"] == tracer.dropped_spans > 10

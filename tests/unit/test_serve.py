"""Units for serving mode: service wiring, line protocol, CLI args."""

import json

from repro.obs.metrics import MetricsRegistry
from repro.serve import MineRuleService


def test_service_wires_one_observability_bundle():
    service = MineRuleService(scenario="purchase")
    assert service.tracer.enabled
    assert service.tracer.metrics is service.metrics
    assert service.shell.system.metrics is service.metrics
    assert service.shell.db.metrics is service.metrics
    assert service.shell.system.slowlog is service.slowlog
    assert service.shell.system.health is service.health
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

"""End-to-end observability over the golden MINE RULE statements.

Runs each Appendix-A statement with a tracing, analyzing system and
checks three things:

* tracing changes nothing — the mined rule sets equal the un-traced
  run's, so the golden dumps stay bit-identical;
* every preprocessing query (Q0..Q11 as emitted for that statement
  classification) captured an EXPLAIN ANALYZE plan whose node row
  counts respect the engine's structural invariants;
* the Chrome trace export is valid JSON covering the whole pipeline
  (translator -> preprocessor -> core -> postprocessor).
"""

import json

import pytest

from benchmarks.suite import workloads
from repro import Database, FaultSchedule, MiningSystem, RetryPolicy, faults
from repro.obs import (
    MetricsRegistry,
    RunLog,
    SlowQueryLog,
    Tracer,
    render_chrome_trace,
    trace_events,
)
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

from repro.datagen import load_purchase_figure1

COMPONENTS = ["translator", "preprocessor", "core", "postprocessor"]


def traced_run(name):
    database = Database()
    load_purchase_figure1(database)
    tracer = Tracer(enabled=True, analyze=True)
    system = MiningSystem(database=database, tracer=tracer)
    result = system.run(GOLDEN_STATEMENTS[name])
    return system, result, tracer


def captured(result, key):
    """*key* (``"nodes"`` or ``"plan"``) of every preprocessing query
    span of the run that carries it, by query label."""
    return {
        span.name.partition(".")[2]: span.args[key]
        for span in result.flow.spans()
        if span.category == "preprocessor" and key in span.args
    }


def plain_run(name):
    database = Database()
    load_purchase_figure1(database)
    return MiningSystem(database=database).run(GOLDEN_STATEMENTS[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_tracing_does_not_change_results(name):
    _, traced, _ = traced_run(name)
    assert traced.rule_set() == plain_run(name).rule_set()


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_every_preprocessing_query_is_analyzed(name):
    _, result, _ = traced_run(name)
    assert result.preprocess_stats is not None
    stages = {
        span.args["stage"] for span in result.flow.spans()
        if "stage" in span.args
    }
    nodes, plans = captured(result, "nodes"), captured(result, "plan")
    # every timed (non-setup) query captured a plan with node stats;
    # setup queries (CLEAN, SEQ) are analyzed too but stay quiet
    assert set(nodes) >= stages
    assert set(plans) == set(nodes)
    for label, text in plans.items():
        assert "Execution:" in text, label


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_analyzed_node_invariants(name):
    """Structural invariants of the actual row counts: loops are
    positive wherever rows flowed, and an operator that produced rows
    was opened at least once."""
    _, result, _ = traced_run(name)
    for label, nodes in captured(result, "nodes").items():
        for node in nodes:
            assert node["rows"] >= 0, (label, node)
            assert node["loops"] >= 1, (label, node)
            assert node["seconds"] >= 0.0, (label, node)


def test_chrome_trace_covers_the_pipeline():
    _, _, tracer = traced_run("simple_associations")
    data = json.loads(render_chrome_trace(tracer))
    events = data["traceEvents"]
    complete = [e["name"] for e in events if e["ph"] == "X"]
    for component in COMPONENTS:
        assert component in complete, component
    # component ordering by start time follows Figure 3a
    starts = {
        e["name"]: e["ts"]
        for e in events
        if e["ph"] == "X" and e["name"] in COMPONENTS
    }
    ordered = sorted(COMPONENTS, key=starts.__getitem__)
    assert ordered == COMPONENTS
    # engine spans nest inside the run: every event fits in the
    # minerule.run envelope
    run = next(e for e in events if e["name"] == "minerule.run")
    for event in events:
        if event["ph"] == "X":
            assert event["ts"] >= run["ts"] - 1e-6
            assert (
                event["ts"] + event["dur"]
                <= run["ts"] + run["dur"] + 1e-6
            )


def root_spans(tracer):
    return [span for span in tracer.spans if span.name == "minerule.run"]


def test_trace_export_registry_snapshot():
    system, result, tracer = traced_run("simple_associations")
    [root] = root_spans(tracer)
    assert root is result.flow.root
    assert root.args["run"] == result.run_id
    assert root.args["rules"] == len(result.rules)
    assert root.args["totg"] == result.preprocess_stats.totg
    events = trace_events(tracer)
    assert any(e["ph"] == "i" for e in events)  # flow markers exported
    run = next(e for e in events if e["name"] == "minerule.run")
    assert run["args"]["rules"] == len(result.rules)


def test_repeated_runs_keep_distinct_gauges():
    """Regression: end-of-run gauges used to share one key per name, so
    the second run's snapshot silently overwrote the first's
    (last-writer-wins).  Per-run values are attributes of each run's
    own root span, so nothing is shared."""
    database = Database()
    load_purchase_figure1(database)
    tracer = Tracer(enabled=True)
    system = MiningSystem(database=database, tracer=tracer)
    first = system.run(GOLDEN_STATEMENTS["simple_associations"])
    second = system.run(GOLDEN_STATEMENTS["filtered_ordered_sets"])
    assert first.run_id != second.run_id
    assert [(root.args["run"], root.args["rules"])
            for root in root_spans(tracer)] == [
        (first.run_id, len(first.rules)),
        (second.run_id, len(second.rules)),
    ]
    # the two statements mine different rule counts, so the old
    # overwrite bug would have lost real information
    assert len(first.rules) != len(second.rules)


#: what can be attached to a system; none of it may change what a run
#: records (the view is read from the run's spans either way)
SINKS = {
    "none": dict,
    "metrics+slowlog+journal": lambda: {
        "metrics": MetricsRegistry(),
        "slowlog": SlowQueryLog(threshold=0.0),
        "runlog": RunLog(),
    },
    "tracer": lambda: {"tracer": Tracer(enabled=True)},
}


def flow_view(sinks, schedule):
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database, **sinks())
    with faults.injected(schedule):
        result = system.run(
            GOLDEN_STATEMENTS["simple_associations"],
            retry=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
    return (
        [(event.component, event.action) for event in result.flow.events],
        list(result.timings),
        result.resilience._asdict(),
    )


@pytest.mark.parametrize("fault", [False, True])
def test_attached_sinks_do_not_change_the_view(fault):
    views = {}
    for name, sinks in SINKS.items():
        schedule = FaultSchedule()
        if fault:
            schedule.arm("core.bitset", call=1)
        views[name] = flow_view(sinks, schedule)
    expected = views.pop("none")
    for name, view in views.items():
        assert view == expected, name
    events, timings, resilience = expected
    assert timings == COMPONENTS
    assert (("core", "retry") in events) == fault
    assert resilience["retries"] == resilience["faults_injected"] == int(fault)


def test_disabled_tracer_captures_no_analysis():
    database = Database()
    load_purchase_figure1(database)
    system = MiningSystem(database=database)
    result = system.run(GOLDEN_STATEMENTS["simple_associations"])
    assert captured(result, "nodes") == {}
    assert system.tracer.spans == []


# ---------------------------------------------------------------------------
# one executor: no statement of a run falls back
# ---------------------------------------------------------------------------


def all_ran(nodes):
    """Every EXPLAIN ANALYZE node reports a run."""
    return all(node["loops"] >= 1 for node in nodes)


def _load_figure1(database, seed, size):
    load_purchase_figure1(database)


#: the Appendix-A goldens and the standing benchmark's three statements
FALLBACK_CASES = {
    **{
        name: (_load_figure1, text)
        for name, text in GOLDEN_STATEMENTS.items()
    },
    "retail": (workloads.load_retail, workloads.RETAIL.text(0.2)),
    "quest": (
        workloads.load_quest_table,
        workloads.quest_statement("quick").text(0.3),
    ),
    "clicks": (workloads.load_clicks, workloads.CLICKS.text(0.3)),
}

@pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
def test_row_executor_fallbacks_are_pinned(name):
    """The pinned set of row-executor fallbacks is empty by
    construction: every plan node of every preprocessing query of a
    run is annotated with its runs."""
    load, text = FALLBACK_CASES[name]
    database = Database()
    load(database, 19, "quick")
    tracer = Tracer(enabled=True, analyze=True)
    result = MiningSystem(database=database, tracer=tracer).run(text)
    analyzed = captured(result, "nodes")
    assert any(analyzed.values())
    for label, nodes in analyzed.items():
        assert all_ran(nodes), label


def join_probes(nodes):
    """The probe kernel of each hash join among EXPLAIN ANALYZE nodes."""
    return [
        node.get("probe") for node in nodes
        if node["operator"].endswith("HashJoin")
    ]


def test_encoding_and_decoding_joins_take_the_unique_probe():
    """Q4 joins the source with ValidGroups and Bset, P1/P2 join the
    rule bodies and heads with Bset: every build side has distinct
    keys, so each probe is one dict lookup per row.  A change that
    falls back to bucket lists fails here, not in a benchmark."""
    database = Database()
    workloads.load_retail(database, 19, "quick")
    tracer = Tracer(enabled=True, analyze=True)
    result = MiningSystem(database=database, tracer=tracer).run(
        workloads.RETAIL.text(0.2)
    )
    q4 = captured(result, "nodes")["Q4"]
    assert join_probes(q4) == ["unique", "unique"]
    assert "probe=unique" in captured(result, "plan")["Q4"]
    assert [query.label for query in result.program.postprocessing] == [
        "P1", "P2",
    ]
    for query in result.program.postprocessing:
        assert join_probes(database.analyze(query.sql).nodes) == ["unique"]


@pytest.mark.parametrize("load, statement", [
    # INTEGER minutes: the suite's clicks_general statement
    (lambda db: workloads.load_clicks(db, 19, "quick"),
     workloads.CLICKS.text(0.3)),
    # DATE columns: the paper's cluster condition
    (load_purchase_figure1, GOLDEN_STATEMENTS["ordered_sets"]),
], ids=["clicks_minute", "purchase_date"])
def test_cluster_condition_runs_as_a_band_probe(load, statement):
    """Q7 pairs the clusters of one group that pass the cluster
    condition ``BC.x < HC.x``: each group's clusters are sorted once and
    every probe bisects them, no same-group pair is formed and then
    filtered.  A change that falls back to bucket lists fails here."""
    database = Database()
    load(database)
    tracer = Tracer(enabled=True, analyze=True)
    result = MiningSystem(database=database, tracer=tracer).run(statement)
    assert join_probes(captured(result, "nodes")["Q7"]) == ["band"]
    assert "probe=band]" in captured(result, "plan")["Q7"]


def test_service_select_shapes_stay_on_the_batch_executor():
    """The three SELECT shapes ``service_mixed`` polls (a qualified
    ``ORDER BY h.item`` used to send two to a row executor)."""
    from benchmarks.suite import service

    database = Database()
    workloads.load_quest_table(database, 19, "quick")
    statement = workloads.quest_statement("quick")
    MiningSystem(database=database).run(
        statement.text(workloads.QUEST_SETUP_CONFIDENCE, table=service.BASE_TABLE)
    )
    for sql in service.queries(statement.min_support):
        assert database.query(sql)
        assert "executor" not in database.explain(sql)
        nodes = database.analyze(sql).nodes
        assert nodes and all_ran(nodes)


def test_a_lowering_bug_is_not_a_fallback(monkeypatch):
    """There is no second executor to degrade to: anything out of the
    plan builder is a bug and must surface."""
    from repro.sqlengine.planner import SelectPlanner

    def broken(*args, **kwargs):
        raise RuntimeError("bug in a lowering")

    monkeypatch.setattr(SelectPlanner, "plan", broken)
    database = Database()
    load_purchase_figure1(database)
    with pytest.raises(RuntimeError, match="bug in a lowering"):
        database.query("SELECT item FROM Purchase")

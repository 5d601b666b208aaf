"""Kernel plumbing: workspace names, the process flow view, rewriting,
preprocessor statistics."""

import pytest

from repro.kernel import Translator, Workspace
from repro.kernel.context import FlowEvent, RunContext, RunFlow
from repro.kernel.names import Workspace as WS
from repro.kernel.preprocessor import Preprocessor
from repro.kernel.rewrite import (
    collect_cluster_aggregates,
    requalify,
    rewrite_cluster_condition,
    transform,
)
from repro.minerule.errors import MineRuleValidationError
from repro.obs.spans import Tracer
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.parser import parse_sql
from repro.sqlengine.render import render_expr


def expr_of(text):
    return parse_sql(f"SELECT {text}").items[0].expr


class TestWorkspace:
    def test_all_names_share_prefix(self):
        ws = WS("ABC")
        for name in ws.all_tables() + ws.all_views() + ws.all_sequences():
            assert name.startswith("ABC_")

    def test_distinct_workspaces_do_not_collide(self):
        a, b = WS("A"), WS("B")
        assert set(a.all_tables()).isdisjoint(b.all_tables())

    def test_coded_source_listed_as_table_and_view(self):
        ws = WS()
        assert ws.coded_source in ws.all_tables()
        assert ws.coded_source in ws.all_views()


def run_context():
    """A context recording on a tracer of its own, as an untraced run
    does."""
    tracer = Tracer()
    return RunContext(RunFlow(tracer, tracer.span("minerule.run")))


class TestProcessFlow:
    """The process flow is a view of the run's instants and component
    spans."""

    def test_events_in_order(self):
        ctx = run_context()
        ctx.event("translator", "a")
        ctx.event("core", "b")
        ctx.event("translator", "c")
        assert ctx.flow.components() == ["translator", "core"]

    def test_timings_accumulate(self):
        ctx = run_context()
        with ctx.phase("core"):
            pass
        first = ctx.flow.timings["core"]
        with ctx.phase("core"):
            pass
        assert ctx.flow.timings["core"] >= first

    def test_phase_closes_when_its_block_raises(self):
        ctx = run_context()
        with pytest.raises(ValueError):
            with ctx.phase("core"):
                raise ValueError("stage failed")
        assert list(ctx.flow.timings) == ["core"]
        assert ctx.tracer.spans[-1].args == {"error": "ValueError"}

    def test_event_str(self):
        event = FlowEvent("core", "ran", "detail")
        assert "[core] ran — detail" == str(event)

    def test_render_contains_events_and_timings(self):
        ctx = run_context()
        ctx.event("core", "did")
        with ctx.phase("core"):
            pass
        text = ctx.flow.render()
        assert "[core] did" in text and "timings" in text

    def test_sealed_view_ignores_later_records(self):
        """The root's close seals the view."""
        ctx = run_context()
        ctx.event("core", "in the run")
        ctx.tracer.end(ctx.root)
        ctx.event("core", "after the run")
        assert [event.action for event in ctx.flow.events] == ["in the run"]


class TestTransform:
    def test_identity_when_fn_returns_none(self):
        expr = expr_of("a + b * 2")
        result = transform(expr, lambda node: None)
        assert render_expr(result) == render_expr(expr)

    def test_replaces_nodes_topdown(self):
        expr = expr_of("a + b")
        replaced = transform(
            expr,
            lambda node: ast.Literal(1)
            if isinstance(node, ast.ColumnRef)
            else None,
        )
        assert render_expr(replaced) == "(1 + 1)"

    def test_requalify(self):
        expr = expr_of("BODY.x > HEAD.y AND plain = 1")
        remapped = requalify(expr, {"BODY": "B", "HEAD": "H"})
        text = render_expr(remapped)
        assert "B.x" in text and "H.y" in text and "plain" in text

    def test_requalify_rebuilds_inside_functions(self):
        expr = expr_of("SUM(BODY.price) > 10")
        text = render_expr(requalify(expr, {"BODY": "S"}))
        assert "SUM(S.price)" in text


class TestClusterAggregates:
    def test_collects_and_names(self):
        cond = expr_of("SUM(BODY.price) > SUM(HEAD.price)")
        aggregates = collect_cluster_aggregates(cond)
        assert len(aggregates) == 2
        # same stripped expression -> same Q6 column
        assert aggregates[0].column == aggregates[1].column == "MRAGG1"
        assert {a.side for a in aggregates} == {"BODY", "HEAD"}
        assert aggregates[0].source_sql == "SUM(S.price)"

    def test_distinct_expressions_get_distinct_columns(self):
        cond = expr_of("SUM(BODY.price) > MAX(HEAD.qty)")
        aggregates = collect_cluster_aggregates(cond)
        assert {a.column for a in aggregates} == {"MRAGG1", "MRAGG2"}

    def test_count_star_rejected(self):
        with pytest.raises(MineRuleValidationError):
            collect_cluster_aggregates(expr_of("COUNT(*) > 1"))

    def test_mixed_side_aggregate_rejected(self):
        with pytest.raises(MineRuleValidationError):
            collect_cluster_aggregates(
                expr_of("SUM(BODY.price + HEAD.price) > 1")
            )

    def test_rewrite_routes_sides(self):
        cond = expr_of(
            "BODY.date < HEAD.date AND SUM(BODY.price) > SUM(HEAD.price)"
        )
        aggregates = collect_cluster_aggregates(cond)
        rewritten = rewrite_cluster_condition(cond, aggregates, "BC", "HC")
        text = render_expr(rewritten)
        assert "BC.date" in text and "HC.date" in text
        assert "BC.MRAGG1" in text and "HC.MRAGG1" in text
        assert "SUM" not in text


class TestPreprocessorStats:
    def test_stats_complete(self, purchase_db):
        translator = Translator(purchase_db)
        program = translator.translate(
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
            Workspace("ST"),
        )
        tracer = Tracer()
        flow = RunFlow(tracer, tracer.span("preprocessor", "component"))
        with flow.root:
            stats = Preprocessor(purchase_db).run(program, RunContext(flow))
        assert stats.totg == 2
        assert stats.mingroups == 1
        stages = {
            span.args["stage"]: span.seconds for span in flow.spans()
            if "stage" in span.args
        }
        assert set(stages) == {
            "Q0v", "Q1", "Q2a", "Q2b", "Q3a", "Q3b", "Q4",
        }
        assert sum(stages.values()) > 0
        assert stats.table_rows["ST_ValidGroups"] == 2
        assert stats.table_rows["ST_CodedSource"] > 0

    def test_mingroups_rounding(self, purchase_db):
        translator = Translator(purchase_db)
        program = translator.translate(
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY tr "
            "EXTRACTING RULES WITH SUPPORT: 0.6, CONFIDENCE: 0.5",
            Workspace("ST"),
        )
        stats = Preprocessor(purchase_db).run(program)
        assert stats.totg == 4
        assert stats.mingroups == 3  # ceil(0.6 * 4)

"""EXPLAIN and EXPLAIN ANALYZE: render the physical plan of a SELECT.

The translator and benchmarks use this to document which plan shapes
back the generated queries Q0..Q11 (e.g. that query Q4 runs as a
pipeline of two hash joins).  The output is a stable, indented tree::

    Project [distinct] (Gid, Bid)
      HashJoin keys=[S.item = B.item]
        HashJoin keys=[S.customer = V.customer]
          Scan MR_Source as S
          Scan MR_ValidGroups as V
        Scan MR_Bset as B

A view or derived table is a ``Subplan`` node with the nested plan
under it.  EXPLAIN goes through the same statement/plan caches as
execution, so explaining a hot query is itself cheap — and it executes
nothing: planning reads no data.

EXPLAIN ANALYZE additionally *executes* the statement once, annotating
each node with the rows its batch operator produced, loop count (how
many times it ran) and inclusive wall time, plus the batches it
processed and, on an equi-join, the probe kernel it ran::

    HashJoin keys=[...] (actual rows=57 loops=1 time=0.41 ms) [batches=1 ...]

The batch operators report to the :class:`AnalyzeCollector` the engine
holds for the duration of one statement, so the un-analyzed execution
path carries one ``is None`` check per node.  Side-effecting statements
(CTAS, INSERT .. SELECT) run exactly once — the analysis rides along
the real execution.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.operators import (
    Filter,
    GroupAggregate,
    HashJoin,
    IndexLookup,
    LeftOuterHashJoin,
    NestedLoopJoin,
    Operator,
    SubplanSource,
    TableScan,
)
from repro.sqlengine.planner import conjoin, plan_operators
from repro.sqlengine.render import render_expr

#: annotation callback: operator (or None for synthetic lines) -> suffix
Annotator = Callable[[Optional[Operator]], str]


def _no_annotation(op: Optional[Operator]) -> str:
    return ""


def explain(database: Any, sql: str, params: Optional[dict] = None) -> str:
    """Plan *sql* (a SELECT) and return the plan tree as text."""
    statement = database._parse_statement(sql)
    if not isinstance(statement, ast.Select):
        return f"{type(statement).__name__} (no plan: executed directly)"
    merged = dict(database.variables)
    if params:
        merged.update(params)
    database._params = merged
    return render_plan(statement, database._select_plan(statement))


def render_plan(
    statement: ast.Select,
    plan: Any,
    annotate: Annotator = _no_annotation,
    indent: int = 0,
) -> str:
    """Render one planned SELECT as an indented tree, suffixing every
    line *annotate* has something to say about."""
    lines: List[str] = []
    lines.append("  " * indent + _projection_line(statement) + annotate(None))
    indent += 1
    if statement.order_by:
        lines.append("  " * indent + f"Sort ({len(statement.order_by)} keys)")
        indent += 1
    if (
        statement.group_by
        or statement.having is not None
        or isinstance(plan.source, GroupAggregate)
    ):
        having = (
            f" having={render_expr(statement.having)}"
            if statement.having is not None
            else ""
        )
        keys = ", ".join(render_expr(e) for e in statement.group_by) or "<all>"
        aggregate = (
            plan.source if isinstance(plan.source, GroupAggregate) else None
        )
        lines.append(
            "  " * indent
            + f"Aggregate keys=({keys}){having}"
            + annotate(aggregate)
        )
        indent += 1
    residual = conjoin(plan.leftovers)
    if residual is not None:
        filter_op: Optional[Operator] = None
        if isinstance(plan.source, GroupAggregate) and isinstance(
            plan.source.child, Filter
        ):
            filter_op = plan.source.child
        lines.append(
            "  " * indent
            + f"Filter {render_expr(residual)}"
            + annotate(filter_op)
        )
        indent += 1
    _render_operator(plan.root, indent, lines, annotate)
    return "\n".join(lines)


def _projection_line(statement: ast.Select) -> str:
    flags = " [distinct]" if statement.distinct else ""
    items = []
    for item in statement.items:
        if isinstance(item.expr, ast.Star):
            items.append(
                f"{item.expr.qualifier}.*" if item.expr.qualifier else "*"
            )
        else:
            items.append(item.alias or render_expr(item.expr))
    return f"Project{flags} ({', '.join(items)})"


def _render_operator(
    op: Operator,
    indent: int,
    lines: List[str],
    annotate: Annotator = _no_annotation,
) -> None:
    pad = "  " * indent
    suffix = annotate(op)
    if isinstance(op, TableScan):
        alias = f" as {op.binding}" if op.binding != op.table.name else ""
        lines.append(f"{pad}Scan {op.table.name}{alias} "
                     f"({len(op.table)} rows){suffix}")
    elif isinstance(op, IndexLookup):
        keys = ", ".join(
            f"{column} = {render_expr(expr)}"
            for column, expr in zip(op.index.columns, op.key_exprs)
        )
        lines.append(
            f"{pad}IndexLookup {op.table.name}.{op.index.name} "
            f"[{keys}]{suffix}"
        )
    elif isinstance(op, SubplanSource):
        lines.append(f"{pad}Subplan {op.binding or '<derived>'}{suffix}")
        lines.append(render_plan(op.select, op.plan, annotate, indent + 1))
    elif isinstance(op, Filter):
        lines.append(f"{pad}Filter {render_expr(op.predicate)}{suffix}")
        _render_operator(op.child, indent + 1, lines, annotate)
    elif isinstance(op, LeftOuterHashJoin):
        lines.append(f"{pad}LeftOuterHashJoin {_join_detail(op)}{suffix}")
        _render_operator(op.left, indent + 1, lines, annotate)
        _render_operator(op.right, indent + 1, lines, annotate)
    elif isinstance(op, HashJoin):
        lines.append(f"{pad}HashJoin {_join_detail(op)}{suffix}")
        _render_operator(op.left, indent + 1, lines, annotate)
        _render_operator(op.right, indent + 1, lines, annotate)
    elif isinstance(op, NestedLoopJoin):
        predicate = (
            f" on {render_expr(op.predicate)}" if op.predicate is not None
            else ""
        )
        lines.append(f"{pad}NestedLoopJoin{predicate}{suffix}")
        _render_operator(op.left, indent + 1, lines, annotate)
        _render_operator(op.right, indent + 1, lines, annotate)
    elif isinstance(op, GroupAggregate):
        keys = ", ".join(render_expr(k) for k in op.keys) or "<all>"
        lines.append(f"{pad}Aggregate keys=({keys}){suffix}")
        _render_operator(op.child, indent + 1, lines, annotate)
    else:  # SingleRow
        lines.append(f"{pad}{type(op).__name__}{suffix}")


def _join_detail(op) -> str:
    keys = ", ".join(
        f"{render_expr(lk)} = {render_expr(rk)}"
        for lk, rk in zip(op.left_keys, op.right_keys)
    )
    detail = f"keys=[{keys}]" if keys else "keys=[] (cross)"
    if op.residual is not None:
        detail += f" residual={render_expr(op.residual)}"
    return detail


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class NodeStats:
    """Actual execution counters of one plan node."""

    __slots__ = ("rows", "loops", "seconds", "batches", "probe")

    def __init__(self) -> None:
        self.rows = 0
        self.loops = 0
        self.seconds = 0.0
        self.batches = 0
        #: an equi-join's probe kernel (``unique``/``buckets``)
        self.probe: Optional[str] = None


class AnalyzeCollector:
    """Per-statement plan-node statistics.

    The engine installs a collector on itself for the duration of one
    statement; every plan it runs (subquery, compound and view plans
    included) is :meth:`attach`-ed, and each batch operator reports its
    node's rows, batches and wall time through :meth:`record`.
    """

    def __init__(self) -> None:
        #: plans in attach order; the statement's own SELECT comes
        #: first, subquery and view/derived-table plans follow
        self.plans: List[Any] = []
        #: ids of the plans a Subplan node of another plan renders
        self.nested: set = set()
        self.stats: Dict[int, NodeStats] = {}

    def attach(self, plan: Any) -> None:
        if not any(existing is plan for existing in self.plans):
            self.plans.append(plan)
        for op in plan_operators(plan.source):
            if isinstance(op, SubplanSource):
                self.nested.add(id(op.plan))

    # -- execution -----------------------------------------------------

    def record(
        self, op: Operator, rows: int, batches: int, seconds: float,
        probe: Optional[str] = None,
    ) -> None:
        """The batch operator of plan node *op* finished one run.  A
        hash join names the *probe* kernel it ran
        (``unique``/``buckets``)."""
        stats = self.stats.setdefault(id(op), NodeStats())
        stats.rows += rows
        stats.loops += 1
        stats.seconds += seconds
        stats.batches += batches
        if probe is not None:
            stats.probe = probe

    # -- reporting ------------------------------------------------------

    def annotator(self) -> Annotator:
        def annotate(op: Optional[Operator]) -> str:
            if op is None:
                return ""
            stats = self.stats.get(id(op))
            if stats is None:
                return ""
            batches = stats.batches
            per_batch = round(stats.rows / batches) if batches else 0
            probe = stats.probe
            return (
                f" (actual rows={stats.rows} loops={stats.loops} "
                f"time={stats.seconds * 1000:.3f} ms)"
                f" [batches={batches} rows/batch={per_batch}"
                f"{f' probe={probe}' if probe else ''}]"
            )

        return annotate

    def nodes(self) -> List[Dict[str, Any]]:
        """Structured per-node stats, plan by plan in walk order."""
        out: List[Dict[str, Any]] = []
        for plan_index, plan in enumerate(self.plans):
            for op in plan_operators(plan.source):
                stats = self.stats.get(id(op))
                if stats is None:
                    continue
                entry = {
                    "plan": plan_index,
                    "operator": type(op).__name__,
                    "rows": stats.rows,
                    "loops": stats.loops,
                    "seconds": stats.seconds,
                    "batches": stats.batches,
                }
                if stats.probe is not None:
                    entry["probe"] = stats.probe
                out.append(entry)
        return out


class AnalyzeResult:
    """Outcome of one EXPLAIN ANALYZE run: the annotated plan text,
    structured node stats, and the statement's real result."""

    __slots__ = (
        "statement", "result", "text", "nodes", "seconds", "cpu_seconds"
    )

    def __init__(
        self, statement, result, text, nodes, seconds, cpu_seconds=None
    ):
        self.statement = statement
        self.result = result
        self.text = text
        self.nodes = nodes
        self.seconds = seconds
        #: process CPU consumed by the execution (user + system)
        self.cpu_seconds = cpu_seconds

    @property
    def rowcount(self) -> int:
        if self.result.columns:
            return len(self.result.rows)
        return self.result.rowcount


def analyze_statement(
    database: Any, sql: str, params: Optional[dict] = None
) -> AnalyzeResult:
    """Execute *sql* once with operator instrumentation and return the
    annotated plan plus the statement's result."""
    statement = database._parse_statement(sql)
    collector = AnalyzeCollector()
    database._analyze = collector
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        result = database.execute_ast(statement, params)
    finally:
        database._analyze = None
    seconds = time.perf_counter() - started
    cpu_seconds = time.process_time() - cpu_started
    text = _render_analyzed(
        statement, collector, result, seconds, cpu_seconds
    )
    return AnalyzeResult(
        statement, result, text, collector.nodes(), seconds, cpu_seconds
    )


def _render_analyzed(
    statement: ast.Statement,
    collector: AnalyzeCollector,
    result: Any,
    seconds: float,
    cpu_seconds: Optional[float] = None,
) -> str:
    annotate = collector.annotator()
    lines: List[str] = []
    if not isinstance(statement, ast.Select):
        lines.append(f"{type(statement).__name__}")
    if not collector.plans:
        lines.append("(no plan: executed directly)")
    top_level = [
        plan for plan in collector.plans if id(plan) not in collector.nested
    ]
    for index, plan in enumerate(top_level):
        if index:
            lines.append("-- subplan --")
        lines.append(
            render_plan(
                plan.select,
                plan,
                annotate,
                indent=1 if not isinstance(statement, ast.Select) else 0,
            )
        )
    rowcount = (
        len(result.rows) if result.columns else result.rowcount
    )
    cpu = (
        f" (cpu {cpu_seconds * 1000:.3f} ms)"
        if cpu_seconds is not None
        else ""
    )
    lines.append(
        f"Execution: {rowcount} rows in {seconds * 1000:.3f} ms{cpu}"
    )
    return "\n".join(lines)

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

The lines are the plan's own nodes (:mod:`repro.sqlengine.vector`),
walked as the executor runs them.  A view or derived table is a
``Subplan`` node with the nested plan under it; a compound's set
operations are lines over their blocks, under the compound's LIMIT and
ORDER BY.  EXPLAIN goes through the same statement cache as
execution, so explaining a hot query is itself cheap — and it executes
nothing: planning reads no data.

EXPLAIN ANALYZE additionally *executes* the statement once, annotating
each node with the rows it produced, loop count (how many times it
ran) and inclusive wall time, plus, on a join, the probe kernel it ran
(``unique``, ``buckets`` or ``band``)::

    HashJoin keys=[...] (actual rows=57 loops=1 time=0.41 ms) [probe=unique]

The nodes report to the :class:`AnalyzeCollector` the engine holds for
the duration of one statement, which keys its counters by node — a
cached plan is shared by threads, so nothing is written onto it — and
the un-analyzed execution path carries one ``is None`` check per node.
Side-effecting statements (CTAS, INSERT .. SELECT) run exactly once —
the analysis rides along the real execution.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.render import render_expr
from repro.sqlengine.vector import (
    Filter,
    GroupAggregate,
    HashJoin,
    IndexLookup,
    NestedLoopJoin,
    PlanNode,
    SelectPlan,
    SubplanSource,
    TableScan,
)

#: annotation callback: plan node (or None for synthetic lines) -> suffix
Annotator = Callable[[Optional[PlanNode]], str]


def _no_annotation(node: Optional[PlanNode]) -> str:
    return ""


def explain(database: Any, sql: str, params: Optional[dict] = None) -> str:
    """Plan *sql* (a SELECT) and return the plan tree as text."""
    statement, _ = database.prepare(sql)
    if not isinstance(statement, ast.Select):
        return f"{type(statement).__name__} (no plan: executed directly)"
    merged = dict(database.variables)
    if params:
        merged.update(params)
    database._params = merged
    return render_plan(database._statement_plan(statement, sql))


def render_plan(
    plan: SelectPlan, annotate: Annotator = _no_annotation, indent: int = 0
) -> str:
    """Render one planned SELECT statement as an indented tree,
    suffixing every line *annotate* has something to say about.  A
    compound's set operations are lines over their blocks, left-deep,
    under the compound's LIMIT / ORDER BY."""
    lines: List[str] = []
    ops = plan.set_ops
    if ops:
        indent = _render_tail(plan.select, indent, lines)
        for depth, (op, all_flag, _) in enumerate(reversed(ops)):
            flag = " [all]" if all_flag else ""
            lines.append("  " * (indent + depth) + op.title() + flag)
        indent += len(ops)
    _render_block(plan, indent, lines, annotate)
    for position, (_, _, block) in enumerate(ops):
        _render_block(block, indent - position, lines, annotate)
    return "\n".join(lines)


def _render_block(
    plan: SelectPlan, indent: int, lines: List[str], annotate: Annotator
) -> None:
    """One block; a compound's ORDER BY / LIMIT are drawn above it."""
    select = plan.select
    lines.append("  " * indent + _projection_line(select))
    indent += 1
    if not plan.set_ops:
        indent = _render_tail(select, indent, lines)
    source = plan.source
    if isinstance(source, GroupAggregate):
        having = (
            f" having={render_expr(select.having)}"
            if select.having is not None
            else ""
        )
        keys = ", ".join(render_expr(e) for e in source.keys) or "<all>"
        lines.append(
            "  " * indent
            + f"Aggregate keys=({keys}){having}"
            + annotate(source)
        )
        source = source.child
        indent += 1
    _render_node(source, indent, lines, annotate)


def _render_tail(select: ast.Select, indent: int, lines: List[str]) -> int:
    """The LIMIT / OFFSET and ORDER BY lines of *select*, outermost
    first; returns the indent below them."""
    if select.limit is not None or select.offset is not None:
        limit = "all" if select.limit is None else render_expr(select.limit)
        offset = (
            "" if select.offset is None
            else f" offset {render_expr(select.offset)}"
        )
        lines.append("  " * indent + f"Limit {limit}{offset}")
        indent += 1
    if select.order_by:
        lines.append("  " * indent + f"Sort ({len(select.order_by)} keys)")
        indent += 1
    return indent


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


def _render_node(
    node: PlanNode,
    indent: int,
    lines: List[str],
    annotate: Annotator = _no_annotation,
) -> None:
    pad = "  " * indent
    suffix = annotate(node)
    if isinstance(node, TableScan):
        table = node.table
        alias = f" as {node.binding}" if node.binding != table.name else ""
        lines.append(
            f"{pad}Scan {table.name}{alias} ({len(table)} rows){suffix}"
        )
    elif isinstance(node, IndexLookup):
        keys = ", ".join(
            f"{column} = {render_expr(expr)}"
            for column, expr in zip(node.index.columns, node.key_exprs)
        )
        lines.append(
            f"{pad}IndexLookup {node.table.name}.{node.index.name} "
            f"[{keys}]{suffix}"
        )
    elif isinstance(node, SubplanSource):
        lines.append(f"{pad}Subplan {node.binding or '<derived>'}{suffix}")
        lines.append(render_plan(node.plan, annotate, indent + 1))
    elif isinstance(node, Filter):
        lines.append(f"{pad}Filter {render_expr(node.predicate)}{suffix}")
        _render_node(node.child, indent + 1, lines, annotate)
    elif isinstance(node, HashJoin):
        if isinstance(node, NestedLoopJoin):
            predicate = (
                f" on {render_expr(node.residual)}"
                if node.residual is not None else ""
            )
            lines.append(f"{pad}NestedLoopJoin{predicate}{suffix}")
        else:
            lines.append(
                f"{pad}{type(node).__name__} {_join_detail(node)}{suffix}"
            )
        _render_node(node.left, indent + 1, lines, annotate)
        _render_node(node.right, indent + 1, lines, annotate)
    else:  # SingleRow
        lines.append(f"{pad}{type(node).__name__}{suffix}")


def _join_detail(node: HashJoin) -> str:
    keys = ", ".join(
        f"{render_expr(lk)} = {render_expr(rk)}"
        for lk, rk in zip(node.left_keys, node.right_keys)
    )
    detail = f"keys=[{keys}]" if keys else "keys=[] (cross)"
    if node.residual is not None:
        detail += f" residual={render_expr(node.residual)}"
    return detail


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class NodeStats:
    """Actual execution counters of one plan node."""

    __slots__ = ("rows", "loops", "seconds", "probe")

    def __init__(self) -> None:
        self.rows = 0
        self.loops = 0
        self.seconds = 0.0
        #: a join's probe kernel (``unique``/``buckets``/``band``)
        self.probe: Optional[str] = None


class AnalyzeCollector:
    """Per-statement plan-node statistics.

    The engine installs a collector on itself for the duration of one
    statement; every plan it runs (subquery, compound and view plans
    included) is :meth:`attach`-ed, and each plan node reports its
    rows and wall time through :meth:`record`.
    """

    def __init__(self) -> None:
        #: plans in attach order; the statement's own SELECT comes
        #: first, subquery and view/derived-table plans follow
        self.plans: List[Any] = []
        #: ids of the plans a Subplan node of another plan renders
        self.nested: set = set()
        self.stats: Dict[int, NodeStats] = {}

    def attach(self, plan: SelectPlan) -> None:
        if not any(existing is plan for existing in self.plans):
            self.plans.append(plan)
        for node in plan.nodes():
            if isinstance(node, SubplanSource):
                self.nested.add(id(node.plan))
        for _, _, block in plan.set_ops:
            self.nested.add(id(block))

    # -- execution -----------------------------------------------------

    def record(
        self, node: PlanNode, rows: int, seconds: float,
        probe: Optional[str] = None,
    ) -> None:
        """Plan node *node* finished one run.  A join names the
        *probe* kernel it ran (``unique``/``buckets``/``band``)."""
        stats = self.stats.setdefault(id(node), NodeStats())
        stats.rows += rows
        stats.loops += 1
        stats.seconds += seconds
        if probe is not None:
            stats.probe = probe

    # -- reporting ------------------------------------------------------

    def annotator(self) -> Annotator:
        def annotate(node: Optional[PlanNode]) -> str:
            if node is None:
                return ""
            stats = self.stats.get(id(node))
            if stats is None:
                return ""
            probe = stats.probe
            return (
                f" (actual rows={stats.rows} loops={stats.loops} "
                f"time={stats.seconds * 1000:.3f} ms)"
                f"{f' [probe={probe}]' if probe else ''}"
            )

        return annotate

    def nodes(self) -> List[Dict[str, Any]]:
        """Structured per-node stats, plan by plan in walk order."""
        out: List[Dict[str, Any]] = []
        for plan_index, plan in enumerate(self.plans):
            for node in plan.nodes():
                stats = self.stats.get(id(node))
                if stats is None:
                    continue
                entry = {
                    "plan": plan_index,
                    "operator": type(node).__name__,
                    "rows": stats.rows,
                    "loops": stats.loops,
                    "seconds": stats.seconds,
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
    statement, parse = database.prepare(sql)
    collector = AnalyzeCollector()
    database._analyze = collector
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        result = database.execute_ast(statement, params, sql=sql, parse=parse)
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

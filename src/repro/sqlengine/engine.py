"""The :class:`Database` facade: parse, plan and execute statements.

This is the component the mining architecture calls "the SQL server".
It owns the catalog, a host-variable store (so that ``SELECT .. INTO
:totg`` in one query of a translation program is visible to later
queries, exactly as the paper's Q1/Q3 pair requires), and a statement
counter used by the benchmarks.

Two caches make repeated execution cheap — the paper's Preprocessor
replays the same Q0..Q11 programs for every MINE RULE execution, so
the engine must not re-pay lexing, parsing and planning each time:

* a **statement cache** maps SQL text to its parsed AST;
* a **plan cache** maps a parsed SELECT (by identity) to its physical
  plan and holds plans of one catalog version only — any DDL bumps the
  version and the next lookup drops every cached plan (none could hit
  again, and each pins the tables it scans).  Planning reads no data:
  views and derived tables are subplans executed when the parent runs,
  so their plans are cached like any other.

Both are observable through :attr:`Database.cache_stats`;
:meth:`Database.prepare` exposes the prepared-statement handle the
Preprocessor replays.

Concurrency (the jobs layer runs statements from worker threads):

* every statement executes under the database's :class:`RWLock` —
  plain SELECTs on the shared side, anything that mutates state
  (DML, DDL, ``SELECT .. INTO``) on the exclusive side;
* the statement and plan caches (and their counters) are guarded by
  one cache lock, so concurrent ``prepare()``/``execute()`` calls
  neither corrupt the LRU order nor lose counter increments;
* the current statement's host-variable bindings are **thread-local**
  — two threads scanning through one cached plan each see their own
  parameters.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    fallback_counter,
)
from repro.obs.spans import NULL_TRACER
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, Index, View
from repro.sqlengine.compiler import ExprFn, ExpressionCompiler
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.evaluator import Env, Frame, compare, contains_aggregate
from repro.sqlengine.locks import RWLock
from repro.sqlengine.operators import Filter, GroupAggregate, Operator
from repro.sqlengine.parser import parse_sql, split_statements
from repro.sqlengine.planner import SelectPlanner, conjoin
from repro.sqlengine.result import Result
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType, coerce as coerce_value, infer_type
from repro.sqlengine.vector import (
    Unsupported,
    VectorPlan,
    build_vector_plan,
    transpose,
)

Row = Tuple[Any, ...]


@dataclass
class CacheStats:
    """Statement/plan cache counters (observability for the benches and
    :class:`~repro.kernel.preprocessor.PreprocessStats`)."""

    statement_hits: int = 0
    statement_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: cached plans discarded because the catalog version moved on
    plan_invalidations: int = 0

    def snapshot(self) -> "CacheStats":
        return _dc_replace(self)


class _EngineInstruments:
    """Pre-resolved metric handles for the statement hot path.

    Built once when a metrics registry is attached, so executing a
    statement costs one ``is not None`` check plus the observes — no
    registry lookups per statement.
    """

    __slots__ = (
        "statement_seconds",
        "statements_total",
        "rows_returned",
        "rows_scanned",
        "cache_events",
        "fallbacks",
    )

    def __init__(self, metrics: MetricsRegistry):
        self.statement_seconds = metrics.histogram(
            "repro_sql_statement_seconds",
            "SQL statement execution latency by statement kind",
            ("kind",),
        )
        self.statements_total = metrics.counter(
            "repro_sql_statements_total",
            "SQL statements executed by statement kind",
            ("kind",),
        )
        self.rows_returned = metrics.counter(
            "repro_sql_rows_returned_total",
            "Rows returned by SQL statements",
        )
        self.rows_scanned = metrics.counter(
            "repro_sql_rows_scanned_total",
            "Source rows scanned by SELECT pipelines",
        )
        self.cache_events = metrics.counter(
            "repro_sql_cache_events_total",
            "Statement/plan cache events",
            ("cache", "outcome"),
        )
        self.fallbacks = fallback_counter(metrics)


def _counted_envs(envs: Iterable[Env], counter: Any) -> "Iterable[Env]":
    """Wrap a scan's env stream so the rows-scanned counter advances by
    however many rows the pipeline actually pulled (early-exit safe)."""
    scanned = 0
    try:
        for env in envs:
            scanned += 1
            yield env
    finally:
        if scanned:
            counter.inc(scanned)


class PreparedStatement:
    """A parsed statement handle bound to one :class:`Database`.

    Parsing happened at :meth:`Database.prepare` time; repeated
    :meth:`execute` calls skip the lexer/parser entirely and, for
    SELECTs, reuse the cached physical plan while the catalog version
    is unchanged.
    """

    __slots__ = ("_db", "sql", "statement")

    def __init__(self, database: "Database", sql: str, statement: ast.Statement):
        self._db = database
        self.sql = sql
        self.statement = statement

    def execute(self, params: Optional[Dict[str, Any]] = None) -> Result:
        return self._db.execute_ast(self.statement, params, sql=self.sql)

    def query(self, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        return self.execute(params).rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.sql!r})"


class _Projector:
    """Plan-time compiled select list: output names plus one closure
    (or star slot list) per item."""

    __slots__ = ("columns", "_parts", "_fns")

    def __init__(
        self, select: ast.Select, frame: Frame, compiler: ExpressionCompiler
    ):
        columns: List[str] = []
        parts: List[Tuple[bool, Any]] = []
        has_star = False
        for idx, item in enumerate(select.items):
            if isinstance(item.expr, ast.Star):
                has_star = True
                slots: List[Tuple[int, int]] = []
                for src_idx, col_idx, name in frame.star_columns(
                    item.expr.qualifier
                ):
                    columns.append(name)
                    slots.append((src_idx, col_idx))
                parts.append((True, slots))
                continue
            columns.append(item.alias or _default_name(item.expr, idx))
            parts.append((False, compiler.bind(item.expr, frame)))
        self.columns = columns
        self._parts = parts
        #: fast path when the select list has no stars
        self._fns = None if has_star else [fn for _, fn in parts]

    def project(self, env: Env) -> List[Any]:
        fns = self._fns
        if fns is not None:
            return [fn(env) for fn in fns]
        out: List[Any] = []
        for is_star, payload in self._parts:
            if is_star:
                rows = env.rows
                for src_idx, col_idx in payload:
                    out.append(rows[src_idx][col_idx])
            else:
                out.append(payload(env))
        return out


class _OrderSpec:
    """Plan-time ORDER BY keys: positional references index the output
    row directly; expressions are bound against the output frame (with
    the row env as parent scope for source columns).  *columns* is None
    for a SELECT without FROM, whose output names only an execution
    knows: its keys take the output frame per call."""

    __slots__ = ("_entries", "_out_frame", "_any_expr")

    def __init__(
        self,
        select: ast.Select,
        columns: Optional[Sequence[str]],
        compiler: ExpressionCompiler,
    ):
        self._out_frame = (
            Frame.single(None, columns) if columns is not None else None
        )
        entries: List[Tuple[bool, Any]] = []
        any_expr = False
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                entries.append((True, expr.value))
            else:
                entries.append((False, compiler.bind(expr, self._out_frame)))
                any_expr = True
        self._entries = entries
        self._any_expr = any_expr

    def keys(
        self, row: Row, env: Optional[Env], out_frame: Optional[Frame] = None
    ) -> Tuple[Any, ...]:
        order_env = (
            Env(out_frame or self._out_frame, (row,), parent=env)
            if self._any_expr
            else None
        )
        keys: List[Any] = []
        for positional, payload in self._entries:
            if positional:
                position = payload - 1
                if not 0 <= position < len(row):
                    raise ExecutionError(
                        f"ORDER BY position {payload} out of range"
                    )
                keys.append(row[position])
            else:
                keys.append(payload(order_env))
        return tuple(keys)


class _SelectPlan:
    """Everything static about one SELECT execution: the operator tree,
    bound predicates, the projector and the ORDER BY spec.  Built once
    per (statement, catalog version); rows flow through it on every
    execution."""

    __slots__ = (
        "select",
        "root",
        "leftovers",
        "source",
        "predicate",
        "having",
        "has_aggregates",
        "projector",
        "item_fns",
        "order_spec",
        "limit",
        "offset",
        "columns",
        "vector",
        "fallback",
    )

    select: ast.Select
    root: Optional[Operator]
    leftovers: List[ast.Expression]
    source: Optional[Operator]
    predicate: Optional[ExprFn]
    having: Optional[ExprFn]
    has_aggregates: bool
    projector: Optional[_Projector]
    #: SELECT without FROM only: one closure per select item, None for
    #: a ``*`` (expanded per execution from the enclosing row scope)
    item_fns: Optional[List[Optional[ExprFn]]]
    order_spec: Optional[_OrderSpec]
    limit: Optional[ExprFn]
    offset: Optional[ExprFn]
    #: output column names
    columns: List[str]
    #: lazily built batch-executor mirror: None = not tried yet, False =
    #: row executor (no FROM, or no exact lowering), else a VectorPlan
    vector: Any
    #: why there is no exact vector lowering (None when there is one)
    fallback: Optional[Unsupported]


class Database:
    """An in-memory SQL database instance."""

    def __init__(self, options: Optional["EngineOptions"] = None) -> None:
        from repro.sqlengine.options import EngineOptions

        self.catalog = Catalog()
        self.options = options if options is not None else EngineOptions()
        #: the one scalar-expression lowering (row executor and DML)
        self.compiler = ExpressionCompiler(self)
        #: host variables assigned by ``SELECT .. INTO :name``
        self.variables: Dict[str, Any] = {}
        #: number of statements executed (observability for benches)
        self.statements_executed = 0
        #: statement/plan cache hit-miss counters
        self.cache_stats = CacheStats()
        #: observability sink; the shared no-op tracer by default, so
        #: the un-traced hot path pays one attribute check per statement
        self.tracer = NULL_TRACER
        #: slow-query log (``repro.obs.slowlog.SlowQueryLog``) or None
        self.slowlog = None
        self._metrics = NULL_REGISTRY
        #: pre-resolved instrument handles; None while metrics are off,
        #: so the hot path guard is one ``is not None`` check
        self._im: Optional[_EngineInstruments] = None
        #: per-operator instrumentation for the statement in flight
        #: (installed by :func:`repro.sqlengine.explain.analyze_statement`)
        self._analyze = None
        #: reader/writer statement guard: SELECT scans share it, DML/
        #: DDL/SELECT INTO hold it exclusively (jobs-layer concurrency)
        self.rwlock = RWLock()
        #: guards the statement/plan caches, their LRU order, the
        #: cache_stats counters and statements_executed
        self._cache_lock = threading.RLock()
        #: host variables of the statement currently executing — one
        #: binding per thread, so concurrent readers sharing a cached
        #: plan cannot clobber each other's parameters
        self._local = threading.local()
        self._statement_cache: "OrderedDict[str, ast.Statement]" = OrderedDict()
        self._plan_cache: "OrderedDict[int, _SelectPlan]" = OrderedDict()
        #: the catalog version every cached plan was built under
        self._plan_cache_version = 0

    @property
    def _params(self) -> Dict[str, Any]:
        return getattr(self._local, "params", {})

    @_params.setter
    def _params(self, value: Dict[str, Any]) -> None:
        self._local.params = value

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry
        self._im = (
            _EngineInstruments(registry) if registry.enabled else None
        )

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Result:
        """Parse (through the statement cache) and execute one
        statement."""
        statement = self._parse_statement(sql)
        return self.execute_ast(statement, params, sql=sql)

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        """Execute and return the raw row list."""
        return self.execute(sql, params).rows

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse one statement once and return a reusable handle.

        Repeated executions of the handle skip lexing/parsing; SELECT
        plans are additionally reused through the plan cache until a
        DDL statement bumps the catalog version.
        """
        return PreparedStatement(self, sql, self._parse_statement(sql))

    def execute_script(
        self, script: str, params: Optional[Dict[str, Any]] = None
    ) -> List[Result]:
        """Execute a semicolon-separated script, returning one result
        per statement."""
        return [self.execute(chunk, params) for chunk in split_statements(script)]

    def execute_ast(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, Any]] = None,
        sql: Optional[str] = None,
    ) -> Result:
        """Execute an already-parsed statement.

        *sql* is the original text, used only as slow-query-log detail
        — callers executing a bare AST may omit it.
        """
        faults.check("engine.execute")
        with self._cache_lock:
            self.statements_executed += 1
        tracer = self.tracer
        im = self._im
        if im is None and self.slowlog is None:
            if tracer.enabled:
                with tracer.span(
                    f"engine.{type(statement).__name__}", category="engine"
                ):
                    return self._dispatch_statement(statement, params)
            return self._dispatch_statement(statement, params)
        return self._execute_instrumented(statement, tracer, im, sql, params)

    def _execute_instrumented(
        self,
        statement: ast.Statement,
        tracer: Any,
        im: Optional[_EngineInstruments],
        sql: Optional[str],
        params: Optional[Dict[str, Any]] = None,
    ) -> Result:
        """The metered statement path: latency histogram, per-kind
        totals, rows returned, slow-query log."""
        kind = type(statement).__name__
        started = time.perf_counter()
        if tracer.enabled:
            with tracer.span(f"engine.{kind}", category="engine"):
                result = self._dispatch_statement(statement, params)
        else:
            result = self._dispatch_statement(statement, params)
        elapsed = time.perf_counter() - started
        if im is not None:
            im.statement_seconds.observe(elapsed, kind=kind)
            im.statements_total.inc(kind=kind)
            if result.rows:
                im.rows_returned.inc(len(result.rows))
        slowlog = self.slowlog
        if slowlog is not None:
            slowlog.record(f"sql.{kind}", elapsed, detail=sql or "")
        return result

    def _statement_guard(self, statement: ast.Statement):
        """The lock side a statement runs under: plain SELECTs share
        the read side; everything that mutates engine state (DML, DDL,
        ``SELECT .. INTO`` host-variable writes) is exclusive."""
        if isinstance(statement, ast.Select) and not statement.into_vars:
            return self.rwlock.read_locked()
        return self.rwlock.write_locked()

    def _dispatch_statement(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, Any]] = None,
    ) -> Result:
        with self._statement_guard(statement):
            # Bind host variables inside the guard: a concurrent
            # SELECT INTO may be mutating self.variables until the
            # write lock drains.
            merged = dict(self.variables)
            if params:
                merged.update(params)
            self._params = merged
            return self._dispatch_unlocked(statement)

    def _dispatch_unlocked(self, statement: ast.Statement) -> Result:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateTableAsSelect):
            return self._execute_ctas(statement)
        if isinstance(statement, ast.CreateView):
            self.catalog.create_view(
                View(statement.name, statement.select), statement.or_replace
            )
            return Result()
        if isinstance(statement, ast.CreateSequence):
            self.catalog.create_sequence(statement.name, statement.start)
            return Result()
        if isinstance(statement, ast.CreateIndex):
            self.catalog.create_index(
                Index(statement.name, statement.table, statement.columns)
            )
            return Result()
        if isinstance(statement, ast.DropObject):
            return self._execute_drop(statement)
        if isinstance(statement, ast.InsertValues):
            return self._execute_insert_values(statement)
        if isinstance(statement, ast.InsertSelect):
            return self._execute_insert_select(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        raise ExecutionError(f"unsupported statement: {statement!r}")

    def explain(self, sql: str, params: Optional[Dict[str, Any]] = None) -> str:
        """Render the physical plan of a SELECT statement as text."""
        from repro.sqlengine.explain import explain

        return explain(self, sql, params)

    def analyze(self, sql: str, params: Optional[Dict[str, Any]] = None):
        """Execute *sql* once with per-operator instrumentation.

        Returns the full :class:`~repro.sqlengine.explain.AnalyzeResult`
        (annotated plan text, structured node stats and the statement's
        real result) — side-effecting statements run exactly once."""
        from repro.sqlengine.explain import analyze_statement

        return analyze_statement(self, sql, params)

    def explain_analyze(
        self, sql: str, params: Optional[Dict[str, Any]] = None
    ) -> str:
        """EXPLAIN ANALYZE: the annotated plan text of one real
        execution (actual rows, loops and wall time per plan node)."""
        return self.analyze(sql, params).text

    def clear_caches(self) -> None:
        """Drop every cached parse and plan (counters are kept)."""
        with self._cache_lock:
            self._statement_cache.clear()
            self._plan_cache.clear()

    # -- convenience -----------------------------------------------------

    def table(self, name: str) -> Table:
        """Direct access to a base table (used by the core operator to
        bulk-read encoded tables without SQL overhead)."""
        return self.catalog.get_table(name)

    def create_table_from_rows(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]],
        types: Optional[Sequence[Optional[SqlType]]] = None,
        replace: bool = False,
    ) -> Table:
        """Bulk-create a table from Python data (loader path)."""
        if replace:
            self.catalog.drop_table(name, if_exists=True)
        table = Table(name, columns, types)
        table.insert_many(rows)
        self.catalog.create_table(table)
        return table

    # ------------------------------------------------------------------
    # statement and plan caches
    # ------------------------------------------------------------------

    def _parse_statement(self, sql: str) -> ast.Statement:
        im = self._im
        with self._cache_lock:
            cache = self._statement_cache
            statement = cache.get(sql)
            if statement is not None:
                self.cache_stats.statement_hits += 1
                if im is not None:
                    im.cache_events.inc(cache="statement", outcome="hit")
                cache.move_to_end(sql)
                return statement
            self.cache_stats.statement_misses += 1
            if im is not None:
                im.cache_events.inc(cache="statement", outcome="miss")
        # Parse outside the lock (pure function of the text); first
        # writer wins so every thread keeps getting the same AST object
        # for the same SQL text (the plan cache keys on identity).
        statement = parse_sql(sql)
        with self._cache_lock:
            cache = self._statement_cache
            existing = cache.get(sql)
            if existing is not None:
                cache.move_to_end(sql)
                return existing
            cache[sql] = statement
            while len(cache) > self.options.statement_cache_size:
                cache.popitem(last=False)
        return statement

    def _select_plan(self, select: ast.Select) -> _SelectPlan:
        """Fetch or build the physical plan for *select*.

        The cache key is the parsed node's identity: the statement
        cache hands back the same AST object for the same SQL text, so
        re-executions (and every subquery nested in a cached statement)
        hit here without any hashing of the tree.  An entry holds a
        strong reference to its Select, which pins the id.
        """
        key = id(select)
        im = self._im
        with self._cache_lock:
            cache = self._plan_cache
            version = self.catalog.version
            if version != self._plan_cache_version:
                # DDL happened: no cached plan can hit again, and each
                # pins the tables it scans — drop them all now instead
                # of waiting for LRU eviction
                if cache:
                    self.cache_stats.plan_invalidations += len(cache)
                    if im is not None:
                        im.cache_events.inc(
                            len(cache), cache="plan", outcome="invalidation"
                        )
                    cache.clear()
                self._plan_cache_version = version
            entry = cache.get(key)
            if entry is not None and entry.select is select:
                self.cache_stats.plan_hits += 1
                if im is not None:
                    im.cache_events.inc(cache="plan", outcome="hit")
                cache.move_to_end(key)
                return entry
            self.cache_stats.plan_misses += 1
            if im is not None:
                im.cache_events.inc(cache="plan", outcome="miss")
            plan = cache[key] = self._build_select_plan(select)
            while len(cache) > self.options.plan_cache_size:
                cache.popitem(last=False)
            return plan

    def _build_select_plan(self, select: ast.Select) -> _SelectPlan:
        compiler = self.compiler
        root, leftovers = SelectPlanner(self).plan_from(select)

        plan = _SelectPlan()
        plan.select = select
        plan.root = root
        plan.leftovers = leftovers
        plan.vector = None
        plan.fallback = None
        plan.predicate = None
        plan.having = None
        plan.source = None
        plan.projector = None
        plan.item_fns = None
        plan.order_spec = None
        plan.limit = (
            compiler.bind(select.limit, None)
            if select.limit is not None
            else None
        )
        plan.offset = (
            compiler.bind(select.offset, None)
            if select.offset is not None
            else None
        )

        has_aggregates = bool(select.group_by) or any(
            contains_aggregate(item.expr)
            for item in select.items
            if not isinstance(item.expr, ast.Star)
        )
        if select.having is not None and not select.group_by:
            has_aggregates = True
        plan.has_aggregates = has_aggregates

        if root is None:
            # SELECT without FROM: one conceptual row in the (possibly
            # correlated) outer environment, whose frame no plan knows
            # — column references walk the scope chain per execution.
            plan.columns = [
                item.alias or _default_name(item.expr, idx)
                for idx, item in enumerate(select.items)
                if not isinstance(item.expr, ast.Star)
            ]
            plan.vector = False
            if leftovers:
                conjunct_fns = [compiler.bind(c, None) for c in leftovers]
                plan.predicate = lambda env: all(
                    fn(env) is True for fn in conjunct_fns
                )
            plan.item_fns = [
                None
                if isinstance(item.expr, ast.Star)
                else compiler.bind(item.expr, None)
                for item in select.items
            ]
            if select.order_by:
                plan.order_spec = _OrderSpec(select, None, compiler)
            return plan

        predicate = conjoin(leftovers)
        if has_aggregates:
            # Leftover WHERE conjuncts must filter *before* grouping.
            child: Operator = root
            if predicate is not None:
                child = Filter(root, predicate, compiler)
            plan.source = GroupAggregate(
                child,
                list(select.group_by),
                compiler,
                scalar=not select.group_by,
            )
            if select.having is not None:
                plan.having = compiler.bind(select.having, root.frame)
        else:
            plan.source = root
            if predicate is not None:
                plan.predicate = compiler.bind(predicate, root.frame)

        plan.projector = _Projector(select, root.frame, compiler)
        plan.columns = plan.projector.columns
        if select.order_by:
            plan.order_spec = _OrderSpec(select, plan.projector.columns, compiler)
        return plan

    # ------------------------------------------------------------------
    # SELECT execution
    # ------------------------------------------------------------------

    def _execute_select(self, select: ast.Select) -> Result:
        columns, rows = self._run_select_raw(select)
        if select.into_vars:
            if len(rows) != 1:
                raise ExecutionError(
                    f"SELECT INTO expects exactly one row, got {len(rows)}"
                )
            if len(select.into_vars) != len(rows[0]):
                raise ExecutionError(
                    "SELECT INTO arity mismatch: "
                    f"{len(select.into_vars)} variables, {len(rows[0])} columns"
                )
            for var, value in zip(select.into_vars, rows[0]):
                self.variables[var] = value
        return Result(columns, rows)

    def _run_select_raw(
        self,
        select: ast.Select,
        outer_env: Optional[Env] = None,
        limit_one: bool = False,
    ) -> Tuple[List[str], List[Row]]:
        columns, rows = self._run_select_core(select, outer_env, limit_one)
        for op, all_flag, rhs in select.set_ops:
            _, rhs_rows = self._run_select_core(rhs, outer_env, False)
            rows = _apply_set_op(op, all_flag, rows, rhs_rows)
        return columns, rows

    def _run_subquery(
        self,
        select: ast.Select,
        outer_env: Optional[Env],
        limit_one: bool = False,
    ) -> List[Row]:
        _, rows = self._run_select_raw(select, outer_env, limit_one)
        return rows

    def _vector_plan(self, plan: _SelectPlan) -> Optional[VectorPlan]:
        """The batch-executor mirror of *plan*, built on first use;
        None when the plan has no FROM or no exact vector lowering
        (:attr:`_SelectPlan.fallback` then says why).  Anything but
        :class:`Unsupported` out of the builder is a lowering bug and
        propagates."""
        vector = plan.vector
        if vector is None:
            try:
                vector = build_vector_plan(plan, self)
            except Unsupported as exc:
                vector = False
                plan.fallback = exc
            plan.vector = vector
        return vector or None

    def _plan_columns(
        self, plan: _SelectPlan
    ) -> Optional[Tuple[List[List[Any]], int]]:
        """Run *plan* (one SELECT block, no set operation) through the
        batch executor: ``(column lists, row count)``, or None when the
        row executor has to run it.  The lists are only to be read."""
        vector = self._vector_plan(plan)
        if vector is None:
            return None
        if self._analyze is not None:
            self._analyze.attach(plan)
        cols, n = vector.execute_columns(self)
        select = plan.select
        if select.limit is not None or select.offset is not None:
            kept = self._apply_limit(plan, range(n))
            cols = [col[kept.start:kept.stop] for col in cols]
            n = len(kept)
        return cols, n

    def _select_columns(
        self, select: ast.Select
    ) -> Tuple[List[str], List[List[Any]]]:
        """A whole SELECT statement's result column-major, the shape
        ``insert_columns`` takes: the batch executor's columns as they
        are, or the row executor's rows transposed."""
        if not select.set_ops:
            plan = self._select_plan(select)
            result = self._plan_columns(plan)
            if result is not None:
                return plan.columns, result[0]
        columns, rows = self._run_select_raw(select)
        return columns, transpose(rows, len(columns))

    def _note_fallback(self, unsupported: Unsupported) -> None:
        """The row executor is about to run a plan the batch executor
        could not take: count it and mark the statement's span."""
        im = self._im
        if im is not None:
            im.fallbacks.inc(
                site="sqlengine.vector", reason=unsupported.reason
            )
        self.tracer.annotate(vector_fallback=str(unsupported))

    def _run_select_core(
        self,
        select: ast.Select,
        outer_env: Optional[Env],
        limit_one: bool,
    ) -> Tuple[List[str], List[Row]]:
        plan = self._select_plan(select)
        if self._analyze is not None:
            self._analyze.attach(plan)
        # Host variables resolve through the database's thread-local
        # params at call time, so a cached plan sees the parameters of
        # *this* execution without any rebinding — even when two
        # threads share the plan.
        predicate = plan.predicate

        if plan.root is None:
            # SELECT without FROM: one conceptual row.
            if predicate is not None and not predicate(outer_env):
                return plan.columns, []
            columns, row = self._project_row(plan, outer_env)
            return columns, [tuple(row)]

        # Executor selection: every uncorrelated FROM-bearing plan goes
        # to the batch executor; the row executor runs correlated
        # subqueries (they need the outer row), first-row probes, and
        # plans without an exact vector lowering.
        if outer_env is None and not limit_one:
            result = self._plan_columns(plan)
            if result is not None:
                cols, n = result
                return plan.columns, list(zip(*cols)) if n else []
            if plan.fallback is not None:
                self._note_fallback(plan.fallback)

        source = plan.source
        projector = plan.projector
        order_spec = plan.order_spec
        having = plan.having

        out_rows: List[Row] = []
        order_keys: List[Tuple[Any, ...]] = []
        seen: Optional[Dict[Row, None]] = {} if select.distinct else None
        can_stop_early = (
            limit_one and not select.order_by and select.limit is None
        )

        envs = source.envs(outer_env)
        im = self._im
        if im is not None:
            envs = _counted_envs(envs, im.rows_scanned)

        for env in envs:
            if predicate is not None and predicate(env) is not True:
                continue
            if having is not None and having(env) is not True:
                continue
            row_t = tuple(projector.project(env))
            if seen is not None:
                if row_t in seen:
                    continue
                seen[row_t] = None
            out_rows.append(row_t)
            if order_spec is not None:
                order_keys.append(order_spec.keys(row_t, env))
            if can_stop_early:
                break

        if select.order_by:
            out_rows = _sort_rows(out_rows, order_keys, select.order_by)

        out_rows = self._apply_limit(plan, out_rows)
        return projector.columns, out_rows

    def _project_row(
        self, plan: _SelectPlan, env: Optional[Env]
    ) -> Tuple[List[str], List[Any]]:
        """The one row of a SELECT without FROM.  *env* is the
        enclosing scope (or None): a ``*`` expands to its columns, so
        the output names are known only here."""
        columns: List[str] = []
        values: List[Any] = []
        for idx, (item, fn) in enumerate(zip(plan.select.items, plan.item_fns)):
            if fn is None:
                if env is None:
                    raise ExecutionError("'*' requires a FROM clause")
                for src_idx, col_idx, name in env.frame.star_columns(
                    item.expr.qualifier
                ):
                    columns.append(name)
                    values.append(env.rows[src_idx][col_idx])
                continue
            columns.append(item.alias or _default_name(item.expr, idx))
            values.append(fn(env))
        if plan.order_spec is not None:
            # one row needs no sorting, but a bad key still has to raise
            plan.order_spec.keys(
                tuple(values), env, Frame.single(None, columns)
            )
        return columns, values

    @staticmethod
    def _apply_limit(plan: _SelectPlan, rows: Any) -> Any:
        """OFFSET/LIMIT as slices of *rows* — a row list, or a
        ``range`` over the positions of a column-major result."""
        offset = int(plan.offset(None)) if plan.offset is not None else 0
        if offset:
            rows = rows[offset:]
        if plan.limit is not None:
            rows = rows[: int(plan.limit(None))]
        return rows

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        columns = [c.name for c in statement.columns]
        types = [c.type for c in statement.columns]
        self.catalog.create_table(Table(statement.name, columns, types))
        return Result()

    def _execute_ctas(self, statement: ast.CreateTableAsSelect) -> Result:
        columns, cols = self._select_columns(statement.select)
        table = Table(statement.name, columns)
        count = table.insert_columns(cols)
        self.catalog.create_table(table)
        return Result(rowcount=count)

    def _execute_drop(self, statement: ast.DropObject) -> Result:
        catalog = self.catalog
        dispatch = {
            "TABLE": catalog.drop_table,
            "VIEW": catalog.drop_view,
            "SEQUENCE": catalog.drop_sequence,
            "INDEX": catalog.drop_index,
        }
        dispatch[statement.kind](statement.name, statement.if_exists)
        return Result()

    def _execute_insert_values(self, statement: ast.InsertValues) -> Result:
        table = self.catalog.get_table(statement.table)
        bind = self.compiler.bind
        count = 0
        for row_exprs in statement.rows:
            # a literal is its value: bulk appends build no closures
            values = [
                e.value if isinstance(e, ast.Literal) else bind(e, None)(None)
                for e in row_exprs
            ]
            table.insert(self._align_insert(table, statement.columns, values))
            count += 1
        return Result(rowcount=count)

    def _execute_insert_select(self, statement: ast.InsertSelect) -> Result:
        # An explicit column list reorders and pads row by row; without
        # one the result goes into the table column by column.
        if statement.columns:
            columns, rows = self._run_select_raw(statement.select)
        else:
            columns, cols = self._select_columns(statement.select)
        if not self.catalog.has_table(statement.table):
            # Convenience extension: auto-create the target from the
            # SELECT output schema (the paper's translation programs
            # INSERT into fresh working tables).
            target_columns = list(statement.columns) if statement.columns else columns
            table = Table(statement.table, target_columns)
            self.catalog.create_table(table)
        else:
            table = self.catalog.get_table(statement.table)
        if statement.columns:
            align = self._align_insert
            count = table.insert_many(
                align(table, statement.columns, list(row)) for row in rows
            )
        else:
            count = table.insert_columns(cols)
        return Result(rowcount=count)

    @staticmethod
    def _align_insert(
        table: Table, columns: Sequence[str], values: List[Any]
    ) -> List[Any]:
        if not columns:
            return values
        if len(columns) != len(values):
            raise ExecutionError(
                f"INSERT column list has {len(columns)} names "
                f"but {len(values)} values"
            )
        full = [None] * table.arity
        for name, value in zip(columns, values):
            full[table.column_index(name)] = value
        return full

    def _execute_delete(self, statement: ast.Delete) -> Result:
        table = self.catalog.get_table(statement.table)
        if statement.where is None:
            count = len(table)
            table.truncate()
            return Result(rowcount=count)
        frame = Frame.single(statement.table, table.columns)
        predicate = self.compiler.bind(statement.where, frame)
        kept: List[Row] = []
        removed = 0
        for row in table.rows:
            if predicate(Env(frame, (row,))) is True:
                removed += 1
            else:
                kept.append(row)
        if removed:  # no match: nothing was rewritten, indexes stand
            table.replace_rows(kept)
        return Result(rowcount=removed)

    def _execute_update(self, statement: ast.Update) -> Result:
        table = self.catalog.get_table(statement.table)
        bind = self.compiler.bind
        frame = Frame.single(statement.table, table.columns)
        predicate = (
            bind(statement.where, frame)
            if statement.where is not None
            else None
        )
        assignments = [
            (table.column_index(name), bind(expr, frame))
            for name, expr in statement.assignments
        ]
        # an undeclared column takes the type of its first non-NULL
        # value, as on insert, so its declared type stays a fact the
        # batch executor's typed kernels may trust
        types = list(table.types)
        updated = 0
        new_rows: List[Row] = []
        for row in table.rows:
            env = Env(frame, (row,))
            if predicate is None or predicate(env) is True:
                mutable = list(row)
                for col_idx, value_fn in assignments:
                    value = value_fn(env)
                    if types[col_idx] is not None:
                        value = coerce_value(value, types[col_idx])
                    elif value is not None:
                        types[col_idx] = infer_type(value)
                    mutable[col_idx] = value
                new_rows.append(tuple(mutable))
                updated += 1
            else:
                new_rows.append(row)
        if updated:  # no match: nothing was rewritten, indexes stand
            table.types[:] = types
            table.replace_rows(new_rows)
        return Result(rowcount=updated)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _default_name(expr: ast.Expression, index: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.FunctionCall):
        return expr.name.lower()
    if isinstance(expr, ast.SequenceNextval):
        return "nextval"
    return f"col{index + 1}"


def _apply_set_op(
    op: str, all_flag: bool, left: List[Row], right: List[Row]
) -> List[Row]:
    if op == "UNION":
        combined = left + right
        if all_flag:
            return combined
        return _dedupe(combined)
    if op == "INTERSECT":
        right_counts = _count_rows(right)
        out: List[Row] = []
        for row in left:
            if right_counts.get(row, 0) > 0:
                out.append(row)
                if all_flag:
                    right_counts[row] -= 1
        return out if all_flag else _dedupe(out)
    if op == "EXCEPT":
        right_counts = _count_rows(right)
        out = []
        for row in left:
            if right_counts.get(row, 0) > 0:
                if all_flag:
                    right_counts[row] -= 1
                continue
            out.append(row)
        return out if all_flag else _dedupe(out)
    raise ExecutionError(f"unknown set operation {op!r}")


def _dedupe(rows: List[Row]) -> List[Row]:
    seen: Dict[Row, None] = {}
    for row in rows:
        if row not in seen:
            seen[row] = None
    return list(seen.keys())


def _count_rows(rows: List[Row]) -> Dict[Row, int]:
    counts: Dict[Row, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts


def compare_order_keys(
    akeys: Tuple[Any, ...],
    bkeys: Tuple[Any, ...],
    order_by: Sequence[ast.OrderItem],
) -> int:
    """Three-way ORDER BY key comparison (shared with the external
    merge sort in :mod:`repro.sqlengine.spill`)."""
    for position, item in enumerate(order_by):
        left = akeys[position]
        right = bkeys[position]
        if left is None and right is None:
            continue
        # NULL compares as the largest value: last in ASC, first in
        # DESC (Oracle's default NULLS LAST / NULLS FIRST).
        if left is None:
            return 1 if item.ascending else -1
        if right is None:
            return -1 if item.ascending else 1
        if compare("<", left, right) is True:
            result = -1
        elif compare(">", left, right) is True:
            result = 1
        else:
            continue
        return result if item.ascending else -result
    return 0


def _sort_rows(
    rows: List[Row],
    keys: List[Tuple[Any, ...]],
    order_by: Sequence[ast.OrderItem],
) -> List[Row]:
    def cmp(a: Tuple[int, Tuple[Any, ...]], b: Tuple[int, Tuple[Any, ...]]) -> int:
        return compare_order_keys(keys[a[0]], keys[b[0]], order_by)

    indexed = list(enumerate(rows))
    indexed.sort(key=functools.cmp_to_key(cmp))
    return [row for _, row in indexed]

"""The :class:`Database` facade: parse, plan and execute statements.

This is the component the mining architecture calls "the SQL server".
It owns the catalog, a host-variable store (so that ``SELECT .. INTO
:totg`` in one query of a translation program is visible to later
queries, exactly as the paper's Q1/Q3 pair requires), and a statement
counter used by the benchmarks.  Every statement runs on the one batch
executor, :mod:`repro.sqlengine.vector`.

One **statement cache** makes repeated execution cheap: it maps SQL
text to the parsed statement and, once the statement has run, the
physical plan of its SELECT (a plain SELECT, or the one inside
``INSERT .. SELECT`` / ``CREATE TABLE .. AS``), so a text executed
again skips lexing, parsing and planning.  Views, derived tables and
set-operation blocks are planned as part of their parent's plan;
planning reads no data (they are subplans executed when the parent
runs).  Cached plans hold for one catalog version only — any DDL bumps
the version and the next plan lookup drops every cached plan (none
could hit again, and each pins the tables it scans), keeping the
parses.  The cache is observable through :attr:`Database.cache_stats`;
:meth:`Database.prepare` is its parse step.

With an enabled :attr:`Database.tracer` each statement is one
``engine.<kind>`` span carrying ``kind``, ``sql``, ``rows``,
``rows_scanned`` and its cache events under :class:`CacheStats`' field
names — all the engine emits.

Concurrency (the jobs layer runs statements from worker threads):

* every statement executes under the database's :class:`RWLock` —
  plain SELECTs on the shared side, anything that mutates state
  (DML, DDL, ``SELECT .. INTO``) on the exclusive side;
* the statement cache (its plans and counters) is guarded by one cache
  lock, so concurrent ``execute()`` calls neither corrupt the LRU
  order nor lose counter increments, and the first parse of a text is
  the one every thread gets;
* the current statement's host-variable bindings are **thread-local**
  — two threads scanning through one cached plan each see their own
  parameters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs.spans import NULL_TRACER
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.catalog import Catalog, Index, View
from repro.sqlengine.errors import ExecutionError
from repro.sqlengine.locks import RWLock
from repro.sqlengine.parser import parse_sql, split_statements
from repro.sqlengine.planner import SelectPlanner
from repro.sqlengine.result import Result
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType, coerce as coerce_value, infer_type
from repro.sqlengine.vector import SelectPlan, evaluate_constant, select_rows

Row = Tuple[Any, ...]

#: LRU capacity of the statement cache: how many SQL texts keep their
#: parse and, until the catalog version changes, their SELECT's plan
#: (0 keeps neither).  Read at each eviction.
STATEMENT_CACHE_SIZE = 256


@dataclass
class CacheStats:
    """Statement-cache counters over the database's life — parses
    (``statement_*``) and the plans kept on the entries (``plan_*``);
    each ``engine.<kind>`` span carries its own statement's share."""

    statement_hits: int = 0
    statement_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: cached plans discarded because the catalog version moved on
    plan_invalidations: int = 0


class _Entry:
    """A statement-cache entry: the parsed statement of one SQL text
    and, once planned, the plan of its SELECT."""

    __slots__ = ("statement", "plan")

    def __init__(self, statement: ast.Statement) -> None:
        self.statement = statement
        self.plan: Optional[SelectPlan] = None


class Database:
    """An in-memory SQL database instance."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        #: host variables assigned by ``SELECT .. INTO :name``
        self.variables: Dict[str, Any] = {}
        #: number of statements executed (observability for benches)
        self.statements_executed = 0
        #: statement-cache hit/miss counters (parses and plans)
        self.cache_stats = CacheStats()
        #: where statement spans go; the shared no-op tracer by default,
        #: so the un-traced hot path pays one attribute check per
        #: statement
        self.tracer = NULL_TRACER
        #: per-operator instrumentation for the statement in flight
        #: (installed by :func:`repro.sqlengine.explain.analyze_statement`)
        self._analyze = None
        #: reader/writer statement guard: SELECT scans share it, DML/
        #: DDL/SELECT INTO hold it exclusively (jobs-layer concurrency)
        self.rwlock = RWLock()
        #: guards the statement cache, its LRU order, the cache_stats
        #: counters and statements_executed
        self._cache_lock = threading.RLock()
        #: host variables of the statement currently executing — one
        #: binding per thread, so concurrent readers sharing a cached
        #: plan cannot clobber each other's parameters
        self._local = threading.local()
        self._statement_cache: "OrderedDict[str, _Entry]" = OrderedDict()
        #: the catalog version every cached plan was built under
        self._planned_version = 0

    @property
    def _params(self) -> Dict[str, Any]:
        return getattr(self._local, "params", {})

    @_params.setter
    def _params(self, value: Dict[str, Any]) -> None:
        self._local.params = value

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Result:
        """Parse (through the statement cache) and execute one
        statement."""
        statement, parse = self.prepare(sql)
        return self.execute_ast(statement, params, sql=sql, parse=parse)

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        """Execute and return the raw row list."""
        return self.execute(sql, params).rows

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
        parse: Optional[str] = None,
    ) -> Result:
        """Execute an already-parsed statement (every statement's one
        path).  *sql*, the text, and *parse*, its statement-cache event,
        are attributes of the statement's span; both may be omitted.
        The plan of the statement's SELECT is kept on the cache entry
        of *sql* when that entry holds *statement*."""
        faults.check("engine.execute")
        with self._cache_lock:
            self.statements_executed += 1
        tracer = self.tracer
        if not tracer.enabled:
            return self._dispatch_statement(statement, params, sql)
        kind = type(statement).__name__
        with tracer.span(
            f"engine.{kind}", "engine", kind=kind, sql=sql or ""
        ) as span:
            if parse is not None:
                span.args[parse] = 1
            result = self._dispatch_statement(statement, params, sql)
            span.args["rows"] = len(result.rows)
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
        params: Optional[Dict[str, Any]],
        sql: Optional[str],
    ) -> Result:
        with self._statement_guard(statement):
            # Bind host variables inside the guard: a concurrent
            # SELECT INTO may be mutating self.variables until the
            # write lock drains.
            merged = dict(self.variables)
            if params:
                merged.update(params)
            self._params = merged
            return self._dispatch_unlocked(statement, sql)

    def _dispatch_unlocked(
        self, statement: ast.Statement, sql: Optional[str]
    ) -> Result:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, sql)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.CreateTableAsSelect):
            return self._execute_ctas(statement, sql)
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
            return self._execute_insert_select(statement, sql)
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
        """Bulk-create a table from Python data (loader path): *rows* is
        read once, in chunks (:meth:`Table.insert_many`), so a generator
        loads without a list of its rows.  The table is built before it
        enters the catalog: with *replace* an old table of that name
        stays as it was when a row is refused or *rows* raises."""
        table = Table(name, columns, types)
        table.insert_many(rows)
        if replace:
            self.catalog.drop_table(name, if_exists=True)
        self.catalog.create_table(table)
        return table

    # ------------------------------------------------------------------
    # the statement cache
    # ------------------------------------------------------------------

    def prepare(self, sql: str) -> Tuple[ast.Statement, str]:
        """Parse *sql* through the statement cache: its statement and
        the cache event of the lookup (``statement_hits`` or
        ``statement_misses``), which :meth:`execute_ast` takes with the
        text."""
        with self._cache_lock:
            cache = self._statement_cache
            entry = cache.get(sql)
            if entry is not None:
                self.cache_stats.statement_hits += 1
                cache.move_to_end(sql)
                return entry.statement, "statement_hits"
            self.cache_stats.statement_misses += 1
        # Parse outside the lock (pure function of the text); first
        # writer wins so every thread keeps getting the same statement
        # object for the same SQL text, and with it the entry's plan.
        statement = parse_sql(sql)
        with self._cache_lock:
            cache = self._statement_cache
            entry = cache.get(sql)
            if entry is not None:
                cache.move_to_end(sql)
                return entry.statement, "statement_misses"
            cache[sql] = _Entry(statement)
            while len(cache) > STATEMENT_CACHE_SIZE:
                cache.popitem(last=False)
        return statement, "statement_misses"

    def _statement_plan(
        self, statement: ast.Statement, sql: Optional[str]
    ) -> SelectPlan:
        """Fetch or build the plan of *statement*'s SELECT: the
        statement itself, or the SELECT of ``INSERT .. SELECT`` /
        ``CREATE TABLE .. AS``.  It is kept on the cache entry of
        *sql* when that entry holds *statement*; any other statement
        is planned afresh."""
        select = (
            statement if isinstance(statement, ast.Select)
            else statement.select
        )
        count = self.tracer.count  # onto the statement's span
        with self._cache_lock:
            cache = self._statement_cache
            version = self.catalog.version
            if version != self._planned_version:
                # DDL happened: no cached plan can hit again, and each
                # pins the tables it scans — drop them all now instead
                # of waiting for LRU eviction
                stale = 0
                for entry in cache.values():
                    if entry.plan is not None:
                        entry.plan = None
                        stale += 1
                if stale:
                    self.cache_stats.plan_invalidations += stale
                    count("plan_invalidations", stale)
                self._planned_version = version
            entry = cache.get(sql)
            if entry is not None and entry.statement is not statement:
                entry = None  # a parse of the text other than this one
            if entry is not None and entry.plan is not None:
                self.cache_stats.plan_hits += 1
                count("plan_hits")
                return entry.plan
            self.cache_stats.plan_misses += 1
            count("plan_misses")
            plan = SelectPlanner(self).plan(select)
            if entry is not None:
                entry.plan = plan
            return plan

    def _select_plan(
        self, select: ast.Select, outer: Any = None
    ) -> SelectPlan:
        """Plan a nested block: a view, derived table or set-operation
        block as part of its parent's plan, or a subquery against
        *outer*, the enclosing scope.  Nothing here is cached."""
        return SelectPlanner(self, outer).plan(select)

    # ------------------------------------------------------------------
    # SELECT execution
    # ------------------------------------------------------------------

    def _execute_select(
        self, select: ast.Select, sql: Optional[str]
    ) -> Result:
        plan = self._statement_plan(select, sql)
        # the columns are dropped before Result copies the rows
        rows = list(zip(*plan.run(self)[0]))
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
        return Result(plan.columns, rows)

    def _select_columns(
        self, statement: ast.Statement, sql: Optional[str]
    ) -> Tuple[List[str], List[List[Any]]]:
        """The result of *statement*'s SELECT column-major, the shape
        ``insert_columns`` takes.  The lists are only to be read."""
        plan = self._statement_plan(statement, sql)
        return plan.columns, plan.run(self)[0]

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------

    def _execute_create_table(self, statement: ast.CreateTable) -> Result:
        columns = [c.name for c in statement.columns]
        types = [c.type for c in statement.columns]
        self.catalog.create_table(Table(statement.name, columns, types))
        return Result()

    def _execute_ctas(
        self, statement: ast.CreateTableAsSelect, sql: Optional[str]
    ) -> Result:
        columns, cols = self._select_columns(statement, sql)
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
        count = 0
        for row_exprs in statement.rows:
            # a literal is its value: bulk appends compile no kernels
            values = [
                e.value if isinstance(e, ast.Literal)
                else evaluate_constant(self, e)
                for e in row_exprs
            ]
            table.insert(self._align_insert(table, statement.columns, values))
            count += 1
        return Result(rowcount=count)

    def _execute_insert_select(
        self, statement: ast.InsertSelect, sql: Optional[str]
    ) -> Result:
        # An explicit column list reorders and pads row by row; without
        # one the result goes into the table column by column.
        columns, cols = self._select_columns(statement, sql)
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
                align(table, statement.columns, list(row))
                for row in zip(*cols)
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
        removed, _ = select_rows(self, table, statement.table, statement.where)
        if removed:  # no match: nothing was rewritten, indexes stand
            drop = set(removed)
            table.replace_rows(
                [row for i, row in enumerate(table.rows) if i not in drop]
            )
        return Result(rowcount=len(removed))

    def _execute_update(self, statement: ast.Update) -> Result:
        table = self.catalog.get_table(statement.table)
        positions = [table.column_index(name) for name, _ in statement.assignments]
        updated, values = select_rows(
            self, table, statement.table, statement.where,
            [expr for _, expr in statement.assignments],
        )
        if not updated:  # no match: nothing was rewritten, indexes stand
            return Result(rowcount=0)
        # an undeclared column takes the type of its first non-NULL
        # value, as on insert, so its declared type stays a fact the
        # batch executor's typed kernels may trust
        types = list(table.types)
        # writable lists of the stored values (a scan hands out arrays)
        cols = [
            table.column_vector(i).to_pylist() for i in range(table.arity)
        ]
        for position, column_values in zip(positions, values):
            declared = types[position]
            col = cols[position]
            for i, value in zip(updated, column_values):
                if declared is not None:
                    value = coerce_value(value, declared)
                elif value is not None:
                    declared = types[position] = infer_type(value)
                col[i] = value
        table.types[:] = types
        table.replace_rows(list(zip(*cols)))
        return Result(rowcount=len(updated))


"""The :class:`Database` facade: parse, plan and execute statements.

This is the component the mining architecture calls "the SQL server".
It owns the catalog, a host-variable store (so that ``SELECT .. INTO
:totg`` in one query of a translation program is visible to later
queries, exactly as the paper's Q1/Q3 pair requires), and a statement
counter used by the benchmarks.  Every statement runs on the one batch
executor, :mod:`repro.sqlengine.vector`.

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

With an enabled :attr:`Database.tracer` each statement is one
``engine.<kind>`` span carrying ``kind``, ``sql``, ``rows``,
``rows_scanned`` and its cache events under :class:`CacheStats`' field
names — all the engine emits.

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


@dataclass
class CacheStats:
    """Statement/plan cache counters over the database's life; each
    ``engine.<kind>`` span carries its own statement's share."""

    statement_hits: int = 0
    statement_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    #: cached plans discarded because the catalog version moved on
    plan_invalidations: int = 0


class PreparedStatement:
    """A parsed statement handle bound to one :class:`Database`.

    Parsing happened at :meth:`Database.prepare` time; repeated
    :meth:`execute` calls skip the lexer/parser entirely and, for
    SELECTs, reuse the cached physical plan while the catalog version
    is unchanged.
    """

    __slots__ = ("_db", "sql", "statement", "_parse")

    def __init__(
        self,
        database: "Database",
        sql: str,
        statement: ast.Statement,
        parse: Optional[str] = None,
    ):
        self._db = database
        self.sql = sql
        self.statement = statement
        #: the statement-cache event of the parse, reported on the
        #: first execution's span
        self._parse = parse

    def execute(self, params: Optional[Dict[str, Any]] = None) -> Result:
        parse, self._parse = self._parse, None
        return self._db.execute_ast(
            self.statement, params, sql=self.sql, parse=parse
        )

    def query(self, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        return self.execute(params).rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedStatement({self.sql!r})"


class Database:
    """An in-memory SQL database instance."""

    def __init__(self, options: Optional["EngineOptions"] = None) -> None:
        from repro.sqlengine.options import EngineOptions

        self.catalog = Catalog()
        self.options = options if options is not None else EngineOptions()
        #: host variables assigned by ``SELECT .. INTO :name``
        self.variables: Dict[str, Any] = {}
        #: number of statements executed (observability for benches)
        self.statements_executed = 0
        #: statement/plan cache hit-miss counters
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
        #: guards the statement/plan caches, their LRU order, the
        #: cache_stats counters and statements_executed
        self._cache_lock = threading.RLock()
        #: host variables of the statement currently executing — one
        #: binding per thread, so concurrent readers sharing a cached
        #: plan cannot clobber each other's parameters
        self._local = threading.local()
        self._statement_cache: "OrderedDict[str, ast.Statement]" = OrderedDict()
        self._plan_cache: "OrderedDict[int, SelectPlan]" = OrderedDict()
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

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Result:
        """Parse (through the statement cache) and execute one
        statement."""
        statement, parse = self._parse_statement(sql)
        return self.execute_ast(statement, params, sql=sql, parse=parse)

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        """Execute and return the raw row list."""
        return self.execute(sql, params).rows

    def prepare(self, sql: str) -> PreparedStatement:
        """Parse one statement once and return a reusable handle.

        Repeated executions of the handle skip lexing/parsing; SELECT
        plans are additionally reused through the plan cache until a
        DDL statement bumps the catalog version.
        """
        return PreparedStatement(self, sql, *self._parse_statement(sql))

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
        are attributes of the statement's span; both may be omitted."""
        faults.check("engine.execute")
        with self._cache_lock:
            self.statements_executed += 1
        tracer = self.tracer
        if not tracer.enabled:
            return self._dispatch_statement(statement, params)
        kind = type(statement).__name__
        with tracer.span(
            f"engine.{kind}", "engine", kind=kind, sql=sql or ""
        ) as span:
            if parse is not None:
                span.args[parse] = 1
            result = self._dispatch_statement(statement, params)
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

    def _parse_statement(self, sql: str) -> Tuple[ast.Statement, str]:
        """The statement of *sql* and the cache event of the lookup
        (``statement_hits`` or ``statement_misses``)."""
        with self._cache_lock:
            cache = self._statement_cache
            statement = cache.get(sql)
            if statement is not None:
                self.cache_stats.statement_hits += 1
                cache.move_to_end(sql)
                return statement, "statement_hits"
            self.cache_stats.statement_misses += 1
        # Parse outside the lock (pure function of the text); first
        # writer wins so every thread keeps getting the same AST object
        # for the same SQL text (the plan cache keys on identity).
        statement = parse_sql(sql)
        with self._cache_lock:
            cache = self._statement_cache
            existing = cache.get(sql)
            if existing is not None:
                cache.move_to_end(sql)
                return existing, "statement_misses"
            cache[sql] = statement
            while len(cache) > self.options.statement_cache_size:
                cache.popitem(last=False)
        return statement, "statement_misses"

    def _select_plan(
        self, select: ast.Select, outer: Any = None
    ) -> SelectPlan:
        """Fetch or build the plan for *select*.

        The cache key is the parsed node's identity: the statement
        cache hands back the same AST object for the same SQL text, so
        re-executions (and every subquery nested in a cached statement)
        hit here without any hashing of the tree.  An entry holds a
        strong reference to its Select, which pins the id.  *outer* is
        the enclosing scope of a subquery, whose plans are built per
        enclosing plan instead of cached.
        """
        if outer is not None:
            return SelectPlanner(self, outer).plan(select)
        key = id(select)
        count = self.tracer.count  # onto the statement's span
        with self._cache_lock:
            cache = self._plan_cache
            version = self.catalog.version
            if version != self._plan_cache_version:
                # DDL happened: no cached plan can hit again, and each
                # pins the tables it scans — drop them all now instead
                # of waiting for LRU eviction
                if cache:
                    self.cache_stats.plan_invalidations += len(cache)
                    count("plan_invalidations", len(cache))
                    cache.clear()
                self._plan_cache_version = version
            entry = cache.get(key)
            if entry is not None and entry.select is select:
                self.cache_stats.plan_hits += 1
                count("plan_hits")
                cache.move_to_end(key)
                return entry
            self.cache_stats.plan_misses += 1
            count("plan_misses")
            plan = cache[key] = SelectPlanner(self).plan(select)
            while len(cache) > self.options.plan_cache_size:
                cache.popitem(last=False)
            return plan

    # ------------------------------------------------------------------
    # SELECT execution
    # ------------------------------------------------------------------

    def _execute_select(self, select: ast.Select) -> Result:
        plan = self._select_plan(select)
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
        self, select: ast.Select
    ) -> Tuple[List[str], List[List[Any]]]:
        """A whole SELECT statement's result column-major, the shape
        ``insert_columns`` takes.  The lists are only to be read."""
        plan = self._select_plan(select)
        return plan.columns, plan.run(self)[0]

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

    def _execute_insert_select(self, statement: ast.InsertSelect) -> Result:
        # An explicit column list reorders and pads row by row; without
        # one the result goes into the table column by column.
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


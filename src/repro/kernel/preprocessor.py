"""The Preprocessor (Section 4.2).

"The preprocessor retrieves source data, evaluates the mining,
grouping and cluster conditions of the mining statement, and encodes
data that will appear in rules; it produces a set of Encoded Tables,
stored again into the DBMS."

It is a thin executor of the translator's SQL programs: all relational
work happens inside the SQL server.  The only host-language glue is the
computation of ``:mingroups`` from ``:totg`` after query Q1 — the
integer group-count threshold corresponding to the statement's minimum
support (Appendix A binds it as a host variable).

Each setup/preprocessing query is one retryable unit of the run's
:class:`~repro.kernel.context.RunContext` and one
``preprocessor.<label>`` span; Q0..Q11's spans carry the label as
``stage``, which the per-query series, the slow log and
:attr:`PreprocessStats.query_seconds` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.kernel.context import RunContext, RunFlow, run_tracer
from repro.kernel.core.inputs import min_group_count
from repro.kernel.program import TranslationProgram, TranslationQuery
from repro.sqlengine.engine import Database


@dataclass
class PreprocessStats:
    """Observability for benches: per-query timings, table sizes and
    engine cache activity during this run."""

    query_seconds: Dict[str, float] = field(default_factory=dict)
    table_rows: Dict[str, int] = field(default_factory=dict)
    totg: int = 0
    mingroups: int = 0
    #: SQL-text -> AST cache hits/misses during this run
    statement_cache_hits: int = 0
    statement_cache_misses: int = 0
    #: physical-plan cache hits/misses during this run
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: EXPLAIN ANALYZE node stats per query label (captured only when
    #: the database tracer was created with ``analyze=True``)
    analyzed: Dict[str, list] = field(default_factory=dict)
    #: the annotated plan text behind each :attr:`analyzed` entry
    analyzed_text: Dict[str, str] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.query_seconds.values())


class Preprocessor:
    """Runs the setup and preprocessing programs on the SQL server."""

    def __init__(self, database: Database):
        self._db = database

    def run(
        self,
        program: TranslationProgram,
        ctx: Optional[RunContext] = None,
    ) -> PreprocessStats:
        """Execute the translation program's setup + preprocessing
        queries in order; returns execution statistics.

        *ctx* is the run's context (on its own the preprocessor records
        under a ``preprocessor`` component span): injected faults are
        retried under its policy.
        """
        if ctx is None:
            tracer = run_tracer(self._db.tracer)
            with tracer.span("preprocessor", category="component") as root:
                return self.run(program, RunContext(RunFlow(tracer, root)))
        stats = PreprocessStats()
        before = self._db.cache_stats.snapshot()
        for query in program.setup:  # stays out of the flow
            self._run_query(query, program, stats, ctx, quiet=True)
        for query in program.preprocessing:
            self._run_query(query, program, stats, ctx, quiet=False)
        for span in ctx.flow.spans():
            label = span.args.get("stage")
            if label is not None:
                seconds = stats.query_seconds.get(label, 0.0)
                stats.query_seconds[label] = seconds + span.seconds
        catalog = self._db.catalog
        stats.table_rows = {
            table: len(catalog.get_table(table))
            for table in program.workspace.all_tables()
            if catalog.has_table(table)
        }
        # without the MR<n>_ prefix the names are stable across runs
        prefix = f"{program.workspace.prefix}_"
        ctx.root.annotate(
            totg=stats.totg,
            mingroups=stats.mingroups,
            encoded_rows={
                table.removeprefix(prefix): rows
                for table, rows in stats.table_rows.items()
            },
        )
        after = self._db.cache_stats
        stats.statement_cache_hits = after.statement_hits - before.statement_hits
        stats.statement_cache_misses = (
            after.statement_misses - before.statement_misses
        )
        stats.plan_cache_hits = after.plan_hits - before.plan_hits
        stats.plan_cache_misses = after.plan_misses - before.plan_misses
        return stats

    # ------------------------------------------------------------------

    def _run_query(
        self,
        query: TranslationQuery,
        program: TranslationProgram,
        stats: PreprocessStats,
        ctx: RunContext,
        quiet: bool,
    ) -> None:
        def execute() -> None:
            if self._db.tracer.analyze:
                # EXPLAIN ANALYZE capture: the query still executes
                # exactly once; its per-operator stats ride along.
                analysis = self._db.analyze(query.sql)
                stats.analyzed[query.label] = analysis.nodes
                stats.analyzed_text[query.label] = analysis.text
                ctx.tracer.annotate(rows=analysis.rowcount, plan=analysis.text)
            else:
                # Prepared execution: repeated runs of the same
                # translation program hit the engine's statement
                # and plan caches.
                self._db.prepare(query.sql).execute()

        stage = {} if quiet else {"stage": query.label}
        ctx.attempt(
            f"preprocessor.{query.label}", execute, own_site=True,
            purpose=query.purpose, **stage,
        )
        if not quiet:
            ctx.event("preprocessor", f"ran {query.label}", query.purpose)
        if query.label == "Q1":
            self._bind_mingroups(program, stats, ctx)

    def _bind_mingroups(
        self,
        program: TranslationProgram,
        stats: PreprocessStats,
        ctx: RunContext,
    ) -> None:
        totg = int(self._db.variables["totg"])
        mingroups = min_group_count(program.statement.min_support, totg)
        self._db.variables["mingroups"] = mingroups
        stats.totg = totg
        stats.mingroups = mingroups
        ctx.event(
            "preprocessor",
            "bound host variables",
            f":totg={totg}, :mingroups={mingroups}",
        )

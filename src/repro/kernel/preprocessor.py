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
``stage``, which the per-query series and the slow log read.  What a
query cost is on its span and on the ``engine.<kind>`` spans inside it
(time, rows, cache events, and under ``Tracer(analyze=True)`` the
annotated ``plan`` and its node stats ``nodes``);
:class:`PreprocessStats` keeps only what preprocessing produces.
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
    """What preprocessing produced: the host variables bound after Q1
    and the row count of every encoded table."""

    totg: int = 0
    mingroups: int = 0
    table_rows: Dict[str, int] = field(default_factory=dict)


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
        queries in order; returns what they produced.

        *ctx* is the run's context (on its own the preprocessor records
        under a ``preprocessor`` component span): injected faults are
        retried under its policy.
        """
        if ctx is None:
            tracer = run_tracer(self._db.tracer)
            with tracer.span("preprocessor", category="component") as root:
                return self.run(program, RunContext(RunFlow(tracer, root)))
        stats = PreprocessStats()
        for query in program.setup:  # stays out of the flow
            self._run_query(query, program, stats, ctx, quiet=True)
        for query in program.preprocessing:
            self._run_query(query, program, stats, ctx, quiet=False)
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
                ctx.tracer.annotate(
                    rows=analysis.rowcount, plan=analysis.text,
                    nodes=analysis.nodes,
                )
            else:
                # Parse, then execute: the benchmark suite's traced run
                # (benchmarks/suite/boundaries.py) times the two calls
                # under this query's label.
                statement, parse = self._db.prepare(query.sql)
                self._db.execute_ast(statement, sql=query.sql, parse=parse)

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

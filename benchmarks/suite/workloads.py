"""The five workloads.  Each goes through the stable front doors only:
``MiningSystem(database=db)`` with default arguments, ``run``,
``refresh``, ``invalidate_preprocessing``, ``Database.execute``, the
``repro.datagen`` loaders and (``service_mixed``, in ``service.py``)
``MineRuleService`` with the HTTP job routes.

``--seed`` feeds only the generators; the program sees only the
generated rows and the statements below.
"""

from __future__ import annotations

import datetime
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import Database, MiningSystem
from repro.datagen import (
    QuestParameters,
    generate_quest,
    iter_drift_appends,
    load_clickstream,
    load_purchase_synthetic,
)
from repro.sqlengine.types import SqlType

from benchmarks.suite.catalog import SERVICE_MIXED, WORKLOAD_NAMES
from benchmarks.suite.checks import Checker


@dataclass(frozen=True)
class Statement:
    """A MINE RULE statement template and its thresholds."""

    table: str
    template: str
    min_support: float

    def text(self, confidence: float, table: Optional[str] = None) -> str:
        return self.template.format(
            table=table or self.table,
            support=self.min_support,
            confidence=confidence,
        )


RETAIL = Statement(
    "RetailRules",
    "MINE RULE {table} AS SELECT DISTINCT 1..n item AS BODY, "
    "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}",
    0.02,
)
QUEST = Statement(
    "QR",
    "MINE RULE {table} AS SELECT DISTINCT 1..n item AS BODY, "
    "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets GROUP BY tid "
    "EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}",
    0.005,
)
CLICKS = Statement(
    "ClickRules",
    "MINE RULE {table} AS SELECT DISTINCT 1..2 page AS BODY, "
    "1..1 page AS HEAD, SUPPORT, CONFIDENCE FROM Clicks GROUP BY usr "
    "CLUSTER BY minute HAVING BODY.minute < HEAD.minute "
    "EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}",
    0.02,
)

#: quest_core_reuse and service_mixed: the run that fills the reuse
#: cache, then the rotation that must reuse it
QUEST_SETUP_CONFIDENCE = 0.3
QUEST_ROTATION = (0.2, 0.4, 0.6)

#: data shapes; "quick" is the smoke-test size, never compared
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "retail": dict(customers=10000),
        "quest": dict(transactions=20000, patterns=200, items=400),
        "quest_support": 0.005,
        "clicks": dict(users=2000),
        "append_transactions": 800,
    },
    "quick": {
        "retail": dict(customers=300),
        "quest": dict(transactions=600, patterns=40, items=80),
        "quest_support": 0.05,
        "clicks": dict(users=150),
        "append_transactions": 40,
    },
}


def load_retail(db: Database, seed: int, size: str):
    return load_purchase_synthetic(
        db, days=10, transactions_per_customer=4, items_per_transaction=4,
        catalog_size=60, seed=seed, **SIZES[size]["retail"],
    )


#: The Quest generator draws its pattern pool from the seed, and the
#: pool alone moves the statement by +-10 % (2.5k to 6k rules over eight
#: seeds) - more than any layer change this suite is to judge.  So the
#: pool is drawn once and ``--seed`` resamples the transactions from it
#: (with replacement), the way the retail generator samples baskets
#: from a fixed catalogue.
QUEST_POOL_SEED = 19


def load_quest_table(db: Database, seed: int, size: str):
    baskets = generate_quest(QuestParameters(
        avg_transaction_size=10, avg_pattern_size=4, seed=QUEST_POOL_SEED,
        **SIZES[size]["quest"],
    ))
    pool = [sorted(baskets[tid]) for tid in sorted(baskets)]
    rng = random.Random(seed)
    rows = [
        (tid, f"item{item}")
        for tid in range(1, len(pool) + 1)
        for item in rng.choice(pool)
    ]
    return db.create_table_from_rows(
        "Baskets", ("tid", "item"), rows,
        (SqlType.INTEGER, SqlType.VARCHAR), replace=True,
    )


def quest_statement(size: str) -> Statement:
    return Statement(QUEST.table, QUEST.template, SIZES[size]["quest_support"])


def load_clicks(db: Database, seed: int, size: str):
    return load_clickstream(
        db, sessions_per_user=3, seed=seed, **SIZES[size]["clicks"]
    )


def sql_literal(value: Any) -> str:
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def insert_statement(table: str, row: Tuple) -> str:
    """One single-row INSERT as an ad-hoc client would send it: the
    values are in the text, so lexer, parser and statement cache are
    on the write path."""
    values = ", ".join(sql_literal(value) for value in row)
    return f"INSERT INTO {table} VALUES ({values})"


@dataclass
class Sample:
    """What one iteration measured."""

    stmt_s: float
    append_rows: int = 0
    append_s: float = 0.0


@dataclass
class Context:
    db: Database
    system: MiningSystem
    checker: Checker
    size: str
    #: seconds the generator + bulk load took
    load_s: float = 0.0
    #: refresh_append: the batches still to append, the last refreshed rules
    appends: Optional[Iterator[List[Tuple]]] = None
    last_rules: Optional[set] = None


class BatchWorkload:
    """A single-threaded workload: set-up once, then ``iterations``
    timed statements."""

    name: str
    why: str
    #: the generated table the statement reads
    source: str
    statement: Statement
    #: about how long one iteration takes on the reference box
    nominal_iteration_s: float
    min_iterations = 3
    #: the traced run takes turns (untraced first, traced first): its
    #: pair count is a multiple of this
    pair_multiple = 2

    def iterations(self, seconds: float, size: str) -> int:
        if size == "quick":
            return self.min_iterations
        return max(self.min_iterations,
                   round(seconds / self.nominal_iteration_s))

    def statement_for(self, size: str) -> Statement:
        return self.statement

    def load(self, db: Database, seed: int, size: str):
        raise NotImplementedError

    def setup(self, seed: int, size: str, checker: Checker) -> Context:
        db = Database()
        started = time.perf_counter()
        self.load(db, seed, size)
        load_s = time.perf_counter() - started
        ctx = Context(db, MiningSystem(database=db), checker, size, load_s)
        self.warm_up(ctx, seed)
        return ctx

    def warm_up(self, ctx: Context, seed: int) -> None:
        """The one statement before timing (first-use imports, lazy
        set-up) and whatever state the timed statements start from."""
        raise NotImplementedError

    def iteration(self, ctx: Context, step: int, variant: int) -> Sample:
        raise NotImplementedError

    def finish(self, ctx: Context) -> None:
        """Untimed checks after the last iteration."""

    # -- shared pieces ---------------------------------------------------

    def timed_run(self, ctx: Context, confidence: float,
                  variant: str) -> Tuple[float, Any]:
        statement = self.statement_for(ctx.size)
        text = statement.text(confidence)
        started = time.perf_counter()
        result = ctx.system.run(text)
        seconds = time.perf_counter() - started
        problems = ctx.checker.check_rules(
            variant, result.rule_set(), statement.min_support, confidence
        )
        ctx.checker.operation(not problems, "; ".join(problems))
        return seconds, result


class ColdWorkload(BatchWorkload):
    """Every iteration preprocesses from scratch."""

    confidence: float

    def warm_up(self, ctx: Context, seed: int) -> None:
        ctx.system.run(self.statement.text(self.confidence))
        ctx.system.invalidate_preprocessing(drop_tables=True)

    def iteration(self, ctx: Context, step: int, variant: int) -> Sample:
        seconds, _result = self.timed_run(ctx, self.confidence, "cold")
        ctx.system.invalidate_preprocessing(drop_tables=True)
        return Sample(seconds)


class RetailCold(ColdWorkload):
    name = "retail_cold"
    why = ("the SQL side of the borderline does the work: the preprocessor "
           "(Q1, Q2b, Q3a, Q4) is about 90 % of the statement, core load + "
           "core about 7 %")
    source = "Purchase"
    statement = RETAIL
    confidence = 0.2
    nominal_iteration_s = 2.0

    def load(self, db, seed, size):
        return load_retail(db, seed, size)


class ClicksGeneral(ColdWorkload):
    name = "clicks_general"
    why = ("the only workload through the general lattice core and "
           "Q6/Q7/Q4b: core.general is about 45 % of the statement, so a "
           "simple-kernel change predicts no movement here")
    source = "Clicks"
    statement = CLICKS
    confidence = 0.3
    nominal_iteration_s = 2.3

    def load(self, db, seed, size):
        return load_clicks(db, seed, size)


class QuestCoreReuse(BatchWorkload):
    name = "quest_core_reuse"
    why = ("the core side does the work: statements reuse the encoded "
           "tables (Section 3), so core load + core + pool algorithm are "
           "about 80 %, SQL under 10 %: SQL-engine changes must barely "
           "move it")
    source = "Baskets"
    statement = QUEST
    nominal_iteration_s = 0.533
    pair_multiple = 2 * len(QUEST_ROTATION)

    def iterations(self, seconds, size):
        count = super().iterations(seconds, size)
        return count - count % len(QUEST_ROTATION)  # whole rotations

    def statement_for(self, size):
        return quest_statement(size)

    def load(self, db, seed, size):
        return load_quest_table(db, seed, size)

    def warm_up(self, ctx, seed):
        # the one-time preprocessing the timed statements reuse
        ctx.system.run(
            self.statement_for(ctx.size).text(QUEST_SETUP_CONFIDENCE)
        )

    def iteration(self, ctx, step, variant):
        confidence = QUEST_ROTATION[variant % len(QUEST_ROTATION)]
        seconds, result = self.timed_run(
            ctx, confidence, f"confidence={confidence}"
        )
        ctx.checker.operation(
            result.preprocessing_reused,
            f"confidence={confidence}: encoded tables were not reused",
        )
        return Sample(seconds)


class RefreshAppend(BatchWorkload):
    name = "refresh_append"
    why = ("the same engine used for writes instead of bulk reads, plus "
           "repro.incremental: the single-row appends cost more than the "
           "refresh itself, so a read-path gain that costs DML shows")
    source = "Purchase"
    statement = RETAIL
    confidence = 0.2
    nominal_iteration_s = 1.0

    def load(self, db, seed, size):
        return load_retail(db, seed, size)

    def warm_up(self, ctx, seed):
        # mine, then let the first refresh capture the mining state
        ctx.system.run(self.statement.text(self.confidence))
        ctx.system.refresh(self.statement.table)
        last_tr = ctx.db.execute("SELECT MAX(tr) FROM Purchase").rows[0][0]
        ctx.appends = iter_drift_appends(
            batches=10_000,
            transactions_per_batch=SIZES[ctx.size]["append_transactions"],
            items_per_transaction=4, catalog_size=60, seed=seed,
            start_tr=last_tr,
        )

    def iteration(self, ctx, step, variant):
        rows = next(ctx.appends)
        statements = [insert_statement("Purchase", row) for row in rows]
        execute = ctx.db.execute
        started = time.perf_counter()
        for statement in statements:
            execute(statement)
        append_s = time.perf_counter() - started
        ctx.checker.operation(True)

        started = time.perf_counter()
        result = ctx.system.refresh(self.statement.table)
        refresh_s = time.perf_counter() - started
        problems = ctx.checker.check_rules(
            f"batch={step + 1}", result.rule_set(),
            self.statement.min_support, self.confidence,
        )
        if result.stats.mode != "incremental":
            problems.append(
                f"batch={step + 1}: refresh mode {result.stats.mode!r} "
                f"({result.stats.reason})"
            )
        ctx.checker.operation(not problems, "; ".join(problems))
        ctx.last_rules = result.rule_set()
        return Sample(refresh_s, append_rows=len(rows), append_s=append_s)

    def finish(self, ctx):
        scratch = ctx.system.run(self.statement.text(self.confidence))
        ctx.checker.operation(
            scratch.rule_set() == ctx.last_rules,
            "refreshed rules differ from a from-scratch run on the grown "
            "table",
        )


BATCH_WORKLOADS: Dict[str, BatchWorkload] = {
    workload.name: workload
    for workload in (
        RetailCold(), QuestCoreReuse(), ClicksGeneral(), RefreshAppend()
    )
}

SERVICE_WHY = ("reads beside exclusive mining runs, through jobs, the RW "
               "lock, HTTP and the always-on observability bundle: what "
               "the in-process workloads leave out")

WHY: Dict[str, str] = {
    **{name: workload.why for name, workload in BATCH_WORKLOADS.items()},
    SERVICE_MIXED: SERVICE_WHY,
}

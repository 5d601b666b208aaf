"""PR1 — the statement cache, which keeps each text's parse and plan.

Asserted (a wrong speedup ratio fails, not just slows down):

**Repeated execution**: the same SELECT executed again and again,
cache-cold (``clear_caches()`` before every run) vs. warm.  The warm
path must be at least 2x faster — it skips lexing, parsing and
planning entirely.
"""

import time

import pytest

from repro.sqlengine import Database

ROWS = 4_000
GROUPS = 200


def build_db():
    db = Database()
    db.execute(
        "CREATE TABLE sales (gid INTEGER, item VARCHAR, qty INTEGER, "
        "price INTEGER)"
    )
    sales = db.table("sales")
    sales.insert_many(
        (i % GROUPS, f"item{i % 97}", i % 7, (i * 13) % 300)
        for i in range(ROWS)
    )
    db.execute("CREATE TABLE groups (gid INTEGER, region VARCHAR)")
    groups = db.table("groups")
    groups.insert_many(
        (g, "north" if g % 2 else "south") for g in range(GROUPS)
    )
    return db


# The repeated-execution scenario is a point query (the shape the
# postprocessor fires once per rule while decoding): per-execution work
# is a handful of rows, so lexing + parsing + planning dominate unless
# they are cached away.
HOT_QUERY = (
    "SELECT s.qty, s.price, g.region "
    "FROM sales s, groups g "
    "WHERE s.gid = g.gid AND s.item = 'item42' AND s.price > 50 "
    "AND g.gid = 42"
)


def _time_runs(fn, runs):
    started = time.perf_counter()
    for _ in range(runs):
        fn()
    return time.perf_counter() - started


class TestPlanCacheSpeedup:
    def test_warm_vs_cold_repeated_execution(self, benchmark):
        db = build_db()
        db.execute("CREATE INDEX idx_sales_item ON sales (item)")
        db.execute("CREATE INDEX idx_groups_gid ON groups (gid)")
        runs = 300

        def cold():
            db.clear_caches()
            return db.query(HOT_QUERY)

        def warm():
            return db.query(HOT_QUERY)

        assert cold() == warm()  # identical answers, then measure
        cold_seconds = _time_runs(cold, runs)
        warm_seconds = _time_runs(warm, runs)
        speedup = cold_seconds / warm_seconds
        # the acceptance floor for this PR: caching must buy >= 2x on
        # repeated execution
        assert speedup >= 2.0, f"statement cache speedup only {speedup:.2f}x"
        benchmark(warm)

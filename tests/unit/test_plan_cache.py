"""The statement cache — parses and the plans kept on its entries —
and its observability (CacheStats, the engine spans' cache events,
EXPLAIN markers)."""

from unittest import mock

import pytest
from hypothesis import given, settings

from repro.sqlengine import Database, engine
from tests.property.test_sqlite_differential import t_rows_strategy


def cache_size(size):
    """The statement cache's capacity patched to *size* (0 keeps
    nothing) for the ``with`` block."""
    return mock.patch.object(engine, "STATEMENT_CACHE_SIZE", size)


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE items (item VARCHAR, price INTEGER)")
    db.execute("INSERT INTO items VALUES ('ski pants', 120)")
    db.execute("INSERT INTO items VALUES ('hiking boots', 80)")
    db.execute("INSERT INTO items VALUES ('jackets', 150)")
    return db


class TestStatementCache:
    def test_repeated_text_hits(self, db):
        before = db.cache_stats.statement_hits
        db.query("SELECT item FROM items WHERE price > 100")
        db.query("SELECT item FROM items WHERE price > 100")
        db.query("SELECT item FROM items WHERE price > 100")
        assert db.cache_stats.statement_hits == before + 2

    def test_lru_eviction(self):
        db = Database()
        with cache_size(2):
            db.execute("CREATE TABLE t (a INTEGER)")
            db.query("SELECT a FROM t")
            db.query("SELECT a + 1 FROM t")
            db.query("SELECT a + 2 FROM t")  # evicts the first
            assert len(db._statement_cache) == 2
            misses = db.cache_stats.statement_misses
            db.query("SELECT a FROM t")
            assert db.cache_stats.statement_misses == misses + 1

    def test_clear_caches(self, db):
        db.query("SELECT item FROM items")
        db.clear_caches()
        misses = db.cache_stats.statement_misses
        db.query("SELECT item FROM items")
        assert db.cache_stats.statement_misses == misses + 1


class TestPlanCache:
    def test_repeated_execution_hits(self, db):
        sql = "SELECT item FROM items WHERE price > 100"
        db.query(sql)
        hits = db.cache_stats.plan_hits
        db.query(sql)
        db.query(sql)
        assert db.cache_stats.plan_hits == hits + 2

    def test_dml_stays_visible_through_cached_plan(self, db):
        sql = "SELECT item FROM items WHERE price > 100 ORDER BY item"
        assert db.query(sql) == [("jackets",), ("ski pants",)]
        db.execute("INSERT INTO items VALUES ('canoes', 400)")
        assert db.query(sql) == [("canoes",), ("jackets",), ("ski pants",)]
        db.execute("UPDATE items SET price = 90 WHERE item = 'jackets'")
        assert db.query(sql) == [("canoes",), ("ski pants",)]
        db.execute("DELETE FROM items WHERE item = 'canoes'")
        assert db.query(sql) == [("ski pants",)]

    def test_ddl_bumps_catalog_version_and_invalidates(self, db):
        sql = "SELECT item FROM items WHERE price > 100"
        db.query(sql)
        version = db.catalog.version
        db.execute("CREATE TABLE other (x INTEGER)")
        assert db.catalog.version > version
        invalidations = db.cache_stats.plan_invalidations
        db.query(sql)
        assert db.cache_stats.plan_invalidations == invalidations + 1

    def test_index_ddl_invalidates_so_plans_can_improve(self, db):
        sql = "SELECT price FROM items WHERE item = 'jackets'"
        assert "IndexLookup" not in db.explain(sql)
        db.execute("CREATE INDEX idx_item ON items (item)")
        # the cached full-scan plan must be dropped in favour of one
        # using the new index
        assert "IndexLookup" in db.explain(sql)
        assert db.query(sql) == [(150,)]

    def test_view_plans_are_cached_and_see_new_data(self, db):
        db.execute("CREATE VIEW pricey AS SELECT item FROM items "
                    "WHERE price > 100")
        sql = "SELECT item FROM pricey ORDER BY item"
        assert db.query(sql) == [("jackets",), ("ski pants",)]
        # a view is a subplan executed when its reader runs: the cached
        # plan is reused and still sees new data
        db.execute("INSERT INTO items VALUES ('canoes', 400)")
        hits = db.cache_stats.plan_hits
        assert db.query(sql) == [("canoes",), ("jackets",), ("ski pants",)]
        assert db.cache_stats.plan_hits == hits + 1
        derived = "SELECT d.item FROM (SELECT item FROM items) d ORDER BY 1"
        db.query(derived)
        hits = db.cache_stats.plan_hits
        assert len(db.query(derived)) == 4
        assert db.cache_stats.plan_hits == hits + 1

    def test_ddl_drops_every_stale_plan_at_once(self, db):
        for offset in range(5):
            db.query(f"SELECT item FROM items WHERE price > {offset}")
        assert len(planned(db)) == 5
        invalidations = db.cache_stats.plan_invalidations
        db.execute("CREATE TABLE other (x INTEGER)")
        db.query("SELECT x FROM other")
        # none of the five could ever hit again; their parses stay
        assert db.cache_stats.plan_invalidations == invalidations + 5
        assert planned(db) == ["SELECT x FROM other"]
        assert "SELECT item FROM items WHERE price > 4" in db._statement_cache

    def test_insert_select_and_ctas_keep_their_plan(self, db):
        insert = "INSERT INTO items SELECT item, price FROM items"
        db.execute(insert)
        hits = db.cache_stats.plan_hits
        db.execute(insert)
        assert db.cache_stats.plan_hits == hits + 1
        assert db.query("SELECT COUNT(*) FROM items") == [(12,)]
        ctas = "CREATE TABLE copy AS SELECT item FROM items"
        db.execute(ctas)
        assert db._statement_cache[ctas].plan is not None

    def test_nested_blocks_are_part_of_the_parent_plan(self, db):
        db.execute("CREATE VIEW pricey AS SELECT item FROM items "
                   "WHERE price > 100")
        misses = db.cache_stats.plan_misses
        db.query("SELECT item FROM pricey UNION "
                 "SELECT d.item FROM (SELECT item FROM items) d")
        # one plan for the statement, none of its own for the view,
        # the derived table or the set-operation block
        assert db.cache_stats.plan_misses == misses + 1

    def test_plan_cache_can_be_disabled(self):
        db = Database()
        with cache_size(0):
            db.execute("CREATE TABLE t (a INTEGER)")
            db.query("SELECT a FROM t")
            assert db.query("SELECT a FROM t") == []
        assert db.cache_stats.statement_hits == 0
        assert db.cache_stats.plan_hits == 0
        # neither a parse nor a plan is kept
        assert not db._statement_cache


class TestPreparedStatements:
    """A text executed again with other host variables reuses its
    parse and its plan."""

    def test_prepare_and_execute(self, db):
        sql = "SELECT item FROM items WHERE price > :floor"
        assert db.query(sql, {"floor": 100}) == [("ski pants",), ("jackets",)]
        assert db.query(sql, {"floor": 140}) == [("jackets",)]

    def test_prepared_statement_skips_reparse(self, db):
        sql = "SELECT item FROM items WHERE price > :floor"
        db.execute(sql, {"floor": 100})
        misses = db.cache_stats.statement_misses
        hits = db.cache_stats.plan_hits
        db.execute(sql, {"floor": 140})
        assert db.cache_stats.statement_misses == misses
        # the second execution re-hits the plan the first one cached
        assert db.cache_stats.plan_hits == hits + 1


class TestPreprocessStatsCounters:
    def test_preprocessor_reports_cache_counters(self):
        from repro.datagen import load_purchase_figure1
        from repro.kernel.context import RunContext, RunFlow
        from repro.kernel.preprocessor import Preprocessor
        from repro.kernel.program import Workspace
        from repro.kernel.translator import Translator
        from repro.obs import Tracer

        database = Database()
        database.tracer = tracer = Tracer()
        load_purchase_figure1(database)
        program = Translator(database).translate(
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
            Workspace("ST"),
        )
        preprocessor = Preprocessor(database)

        def run():
            """One standalone run's cache events, summed over the
            ``engine.<kind>`` spans of its record."""
            flow = RunFlow(tracer, tracer.span("preprocessor", "component"))
            with flow.root:
                preprocessor.run(program, RunContext(flow))
            return {
                key: sum(span.args.get(key, 0) for span in flow.spans())
                for key in ("statement_hits", "statement_misses",
                            "plan_misses")
            }

        first = run()
        assert first["statement_misses"] > 0
        assert first["plan_misses"] > 0
        # replaying the same translation program re-executes identical
        # SQL text: every parse now comes from the statement cache
        second = run()
        assert second["statement_hits"] > 0
        assert second["statement_misses"] == 0


def planned(db):
    """The texts whose cache entry holds a plan."""
    return [sql for sql, entry in db._statement_cache.items() if entry.plan]


@given(t_rows=t_rows_strategy)
@settings(max_examples=20, deadline=None)
def test_cached_reexecution_sees_dml(t_rows):
    """Repeated execution through the plan cache tracks table updates,
    and matches a cache-cold engine at every step."""
    db = Database()
    cold = Database()

    def cold_query(sql):
        with cache_size(0):
            return cold.query(sql)

    for database in (db, cold):
        database.execute("CREATE TABLE t (a INTEGER, b INTEGER, "
                         "c VARCHAR, d REAL)")
        database.table("t").insert_many(t_rows)
    sql = "SELECT a, b FROM t WHERE a >= 0 OR b IS NULL"
    assert db.query(sql) == cold_query(sql)
    for database in (db, cold):
        database.execute("INSERT INTO t VALUES (0, NULL, 'added', NULL)")
    assert db.query(sql) == cold_query(sql)
    for database in (db, cold):
        database.execute("DELETE FROM t WHERE a < 0")
    assert db.query(sql) == cold_query(sql)
    assert db.cache_stats.plan_hits == 2
    assert cold.cache_stats.plan_hits == 0


def test_ddl_invalidates_cached_plan():
    """Dropping and recreating a referenced table must not leave a
    stale plan scanning the old table object."""
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    assert db.query("SELECT a FROM t") == [(1,)]
    db.execute("DROP TABLE t")
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (2)")
    assert db.query("SELECT a FROM t") == [(2,)]

"""Statement cache, plan cache, prepared statements and their
observability (CacheStats, PreprocessStats, EXPLAIN markers)."""

import pytest

from repro.sqlengine import Database, EngineOptions, PreparedStatement
from repro.sqlengine import dbapi


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
        db = Database(EngineOptions(statement_cache_size=2))
        db.execute("CREATE TABLE t (a INTEGER)")
        db.query("SELECT a FROM t")
        db.query("SELECT a + 1 FROM t")
        db.query("SELECT a + 2 FROM t")  # evicts the first
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
        assert len(db._plan_cache) == 5
        invalidations = db.cache_stats.plan_invalidations
        db.execute("CREATE TABLE other (x INTEGER)")
        db.query("SELECT x FROM other")
        # none of the five could ever hit again
        assert db.cache_stats.plan_invalidations == invalidations + 5
        assert len(db._plan_cache) == 1

    def test_plan_cache_can_be_disabled(self):
        db = Database(EngineOptions(plan_cache=False))
        db.execute("CREATE TABLE t (a INTEGER)")
        db.query("SELECT a FROM t")
        db.query("SELECT a FROM t")
        assert db.cache_stats.plan_hits == 0


class TestPreparedStatements:
    def test_prepare_and_execute(self, db):
        prepared = db.prepare("SELECT item FROM items WHERE price > :floor")
        assert isinstance(prepared, PreparedStatement)
        assert prepared.query({"floor": 100}) == [("ski pants",), ("jackets",)]
        assert prepared.query({"floor": 140}) == [("jackets",)]

    def test_prepared_statement_skips_reparse(self, db):
        prepared = db.prepare("SELECT item FROM items")
        misses = db.cache_stats.statement_misses
        prepared.execute()
        prepared.execute()
        assert db.cache_stats.statement_misses == misses

    def test_dbapi_cursor_reuses_prepared_plan(self, db):
        conn = dbapi.connect(db)
        cur = conn.cursor()
        cur.execute("SELECT item FROM items WHERE price > 100")
        hits = db.cache_stats.plan_hits
        cur.execute("SELECT item FROM items WHERE price > 100")
        assert db.cache_stats.plan_hits == hits + 1
        assert len(cur.fetchall()) == 2

    def test_dbapi_prepare_maps_errors(self, db):
        conn = dbapi.connect(db)
        with pytest.raises(dbapi.DatabaseError):
            conn.prepare("SELEKT nope")


class TestPreprocessStatsCounters:
    def test_preprocessor_reports_cache_counters(self):
        from repro.datagen import load_purchase_figure1
        from repro.kernel.preprocessor import Preprocessor
        from repro.kernel.program import Workspace
        from repro.kernel.translator import Translator

        database = Database()
        load_purchase_figure1(database)
        program = Translator(database).translate(
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
            Workspace("ST"),
        )
        preprocessor = Preprocessor(database)
        first = preprocessor.run(program)
        assert first.statement_cache_misses > 0
        assert first.plan_cache_misses > 0
        # replaying the same translation program re-executes identical
        # SQL text: every parse now comes from the statement cache
        second = preprocessor.run(program)
        assert second.statement_cache_hits > 0
        assert second.statement_cache_misses == 0

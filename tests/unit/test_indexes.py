"""Secondary index tests: maintenance, planner use, correctness."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER, grp INTEGER, v VARCHAR)")
    for i in range(100):
        database.table("t").insert((i, i % 10, f"v{i}"))
    database.execute("CREATE INDEX t_id ON t (id)")
    return database


class TestPlannerUse:
    def test_point_query_uses_index(self, db):
        plan = db.explain("SELECT v FROM t WHERE id = 5")
        assert "IndexLookup t.t_id" in plan
        assert "Scan" not in plan

    def test_point_query_result_correct(self, db):
        assert db.query("SELECT v FROM t WHERE id = 5") == [("v5",)]

    def test_reversed_equality_orientation(self, db):
        plan = db.explain("SELECT v FROM t WHERE 5 = id")
        assert "IndexLookup" in plan
        assert db.query("SELECT v FROM t WHERE 5 = id") == [("v5",)]

    def test_hostvar_key(self, db):
        assert db.query("SELECT v FROM t WHERE id = :k", {"k": 7}) == [
            ("v7",)
        ]

    def test_extra_conjunct_becomes_filter(self, db):
        plan = db.explain("SELECT v FROM t WHERE id = 5 AND grp > 100")
        assert "IndexLookup" in plan and "Filter" in plan
        assert db.query("SELECT v FROM t WHERE id = 5 AND grp > 100") == []

    def test_non_equality_does_not_use_index(self, db):
        plan = db.explain("SELECT v FROM t WHERE id > 5")
        assert "IndexLookup" not in plan

    def test_unindexed_column_scans(self, db):
        plan = db.explain("SELECT v FROM t WHERE grp = 3")
        assert "IndexLookup" not in plan
        assert len(db.query("SELECT v FROM t WHERE grp = 3")) == 10

    def test_composite_index(self, db):
        db.execute("CREATE INDEX t_both ON t (grp, id)")
        plan = db.explain("SELECT v FROM t WHERE id = 12 AND grp = 2")
        assert "IndexLookup t.t_both" in plan
        assert db.query("SELECT v FROM t WHERE id = 12 AND grp = 2") == [
            ("v12",)
        ]

    def test_index_in_join_side(self, db):
        db.execute("CREATE TABLE probe (id INTEGER)")
        db.execute("INSERT INTO probe VALUES (3), (4)")
        rows = db.query(
            "SELECT t.v FROM probe, t WHERE t.id = probe.id AND t.id = 3"
        )
        assert rows == [("v3",)]

    def test_correlated_subquery_uses_index(self, db):
        # correctness of the outer-reference lookup path
        count = db.execute(
            "SELECT COUNT(*) FROM t a WHERE EXISTS "
            "(SELECT 1 FROM t b WHERE b.id = a.id + 1)"
        ).scalar()
        assert count == 99

    def test_null_key_matches_nothing(self, db):
        db.table("t").insert((None, 1, "null-id"))
        assert db.query("SELECT v FROM t WHERE id = :k", {"k": None}) == []


class TestMaintenance:
    def test_insert_maintains_index(self, db):
        db.execute("INSERT INTO t VALUES (999, 9, 'fresh')")
        assert db.query("SELECT v FROM t WHERE id = 999") == [("fresh",)]

    def test_delete_maintains_index(self, db):
        db.execute("DELETE FROM t WHERE id = 5")
        assert db.query("SELECT v FROM t WHERE id = 5") == []

    def test_update_maintains_index(self, db):
        db.execute("UPDATE t SET id = 1000 WHERE id = 6")
        assert db.query("SELECT v FROM t WHERE id = 6") == []
        assert db.query("SELECT v FROM t WHERE id = 1000") == [("v6",)]

    def test_truncate_clears_index(self, db):
        db.execute("DELETE FROM t")
        assert db.query("SELECT v FROM t WHERE id = 5") == []
        db.execute("INSERT INTO t VALUES (5, 0, 'again')")
        assert db.query("SELECT v FROM t WHERE id = 5") == [("again",)]

    def test_index_created_on_populated_table(self, db):
        db.execute("CREATE INDEX t_v ON t (v)")
        assert db.query("SELECT id FROM t WHERE v = 'v42'") == [(42,)]

    def test_duplicate_keys_all_returned(self, db):
        db.execute("CREATE INDEX t_grp ON t (grp)")
        rows = db.query("SELECT id FROM t WHERE grp = 4")
        assert len(rows) == 10

    def test_drop_index_falls_back_to_scan(self, db):
        db.execute("DROP INDEX t_id")
        plan = db.explain("SELECT v FROM t WHERE id = 5")
        assert "IndexLookup" not in plan
        assert db.query("SELECT v FROM t WHERE id = 5") == [("v5",)]

    def test_duplicate_index_name_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX t_id ON t (grp)")

    def test_drop_table_drops_its_indexes(self, db):
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INTEGER)")
        db.execute("CREATE INDEX t_id ON t (id)")  # name free again


class TestEquivalenceWithScan:
    def test_indexed_and_scan_agree(self, db):
        for key in (0, 13, 42, 99, 100, -1):
            indexed = db.query("SELECT v FROM t WHERE id = :k", {"k": key})
            scanned = [
                (v,)
                for i, g, v in db.table("t").rows
                if i == key
            ]
            assert indexed == scanned

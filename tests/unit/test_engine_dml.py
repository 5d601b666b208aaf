"""DDL and DML execution tests."""

import datetime

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError, ExecutionError, SqlTypeError
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    return database


class TestCreateDrop:
    def test_create_table_records_schema(self, db):
        table = db.table("t")
        assert table.columns == ("a", "b")
        assert table.types == [SqlType.INTEGER, SqlType.VARCHAR]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x INTEGER)")

    def test_duplicate_column_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE u (x INTEGER, X VARCHAR)")

    def test_drop_table(self, db):
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_drop_missing_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE missing")

    def test_drop_if_exists_is_silent(self, db):
        db.execute("DROP TABLE IF EXISTS missing")

    def test_create_table_as_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("CREATE TABLE copy AS SELECT a, b FROM t")
        assert db.query("SELECT * FROM copy") == [(1, "x")]

    def test_view_name_cannot_clash_with_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW t AS SELECT 1")

    def test_or_replace_view(self, db):
        db.execute("CREATE VIEW v AS SELECT 1 AS x")
        db.execute("CREATE OR REPLACE VIEW v AS SELECT 2 AS x")
        assert db.execute("SELECT x FROM v").scalar() == 2

    def test_replace_requires_flag(self, db):
        db.execute("CREATE VIEW v AS SELECT 1 AS x")
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW v AS SELECT 2 AS x")

    def test_case_insensitive_names(self, db):
        db.execute("INSERT INTO T VALUES (1, 'x')")
        assert db.query("SELECT A FROM t") == [(1,)]

    def test_drop_sequence(self, db):
        db.execute("CREATE SEQUENCE s")
        db.execute("DROP SEQUENCE s")
        with pytest.raises(CatalogError):
            db.execute("SELECT s.NEXTVAL")

    def test_create_index_validates_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i ON missing (a)")
        db.execute("CREATE INDEX i ON t (a)")
        db.execute("DROP INDEX i")


class TestInsert:
    def test_insert_values(self, db):
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        assert len(db.table("t")) == 2

    def test_insert_coerces_types(self, db):
        db.execute("INSERT INTO t VALUES (1.0, 'x')")
        assert db.query("SELECT a FROM t") == [(1,)]
        assert isinstance(db.query("SELECT a FROM t")[0][0], int)

    def test_insert_wrong_type_rejected(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("INSERT INTO t VALUES ('nope', 'x')")

    def test_insert_wrong_arity_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_insert_with_column_subset(self, db):
        db.execute("INSERT INTO t (b) VALUES ('only')")
        assert db.query("SELECT a, b FROM t") == [(None, "only")]

    def test_insert_with_reordered_columns(self, db):
        db.execute("INSERT INTO t (b, a) VALUES ('x', 7)")
        assert db.query("SELECT a, b FROM t") == [(7, "x")]

    def test_insert_select(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        db.execute("INSERT INTO t (SELECT a + 10, b FROM t)")
        assert len(db.table("t")) == 4

    def test_insert_select_autocreates_table(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("INSERT INTO fresh (SELECT a AS id, b AS label FROM t)")
        table = db.table("fresh")
        assert table.columns == ("id", "label")

    def test_insert_date(self, db):
        db.execute("CREATE TABLE d (x DATE)")
        db.execute("INSERT INTO d VALUES (DATE '1995-12-17')")
        assert db.query("SELECT x FROM d") == [(datetime.date(1995, 12, 17),)]

    def test_insert_date_from_string_coerces(self, db):
        db.execute("CREATE TABLE d (x DATE)")
        db.execute("INSERT INTO d VALUES ('1995-12-17')")
        assert db.query("SELECT x FROM d")[0][0] == datetime.date(1995, 12, 17)


class TestDeleteUpdate:
    @pytest.fixture
    def filled(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
        return db

    def test_delete_with_where(self, filled):
        result = filled.execute("DELETE FROM t WHERE a >= 2")
        assert result.rowcount == 2
        assert filled.query("SELECT a FROM t") == [(1,)]

    def test_delete_all(self, filled):
        assert filled.execute("DELETE FROM t").rowcount == 3
        assert len(filled.table("t")) == 0

    def test_delete_all_counts_without_materializing_rows(
        self, filled, monkeypatch
    ):
        def refuse(table):
            raise AssertionError(f"{table.name}.rows was materialized")

        monkeypatch.setattr(Table, "rows", property(refuse), raising=False)
        assert filled.execute("DELETE FROM t").rowcount == 3
        assert len(filled.table("t")) == 0

    def test_update(self, filled):
        result = filled.execute("UPDATE t SET b = 'w' WHERE a = 2")
        assert result.rowcount == 1
        assert filled.query("SELECT b FROM t WHERE a = 2") == [("w",)]

    def test_update_expression_uses_old_values(self, filled):
        filled.execute("UPDATE t SET a = a * 10")
        assert filled.query("SELECT a FROM t ORDER BY a") == [
            (10,),
            (20,),
            (30,),
        ]

    def test_update_infers_an_undeclared_column_type(self, db):
        # an all-NULL CTAS column has no type until its first value
        db.execute("CREATE TABLE n AS SELECT a, NULL AS z FROM t")
        db.execute("INSERT INTO n (a) VALUES (1)")
        assert db.table("n").types[1] is None
        db.execute("UPDATE n SET z = 'x'")
        assert db.table("n").types[1] is SqlType.VARCHAR
        with pytest.raises(SqlTypeError):
            db.execute("INSERT INTO n VALUES (2, 5)")
        assert db.query("SELECT z FROM n WHERE z > 'w'") == [("x",)]

    def test_update_with_hostvar(self, filled):
        filled.execute("UPDATE t SET a = :v WHERE b = 'x'", {"v": 99})
        assert filled.query("SELECT a FROM t WHERE b = 'x'") == [(99,)]


class TestScriptsAndBulk:
    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO t VALUES (1, 'a'); INSERT INTO t VALUES (2, 'b');"
            "SELECT COUNT(*) FROM t"
        )
        assert results[-1].scalar() == 2

    def test_create_table_from_rows(self, db):
        table = db.create_table_from_rows(
            "bulk", ["x", "y"], [(1, "a"), (2, "b")]
        )
        assert len(table) == 2
        assert db.query("SELECT x FROM bulk WHERE y = 'b'") == [(2,)]

    def test_create_table_from_rows_replace(self, db):
        db.create_table_from_rows("bulk", ["x"], [(1,)])
        db.create_table_from_rows("bulk", ["x"], [(2,)], replace=True)
        assert db.query("SELECT x FROM bulk") == [(2,)]

    def test_statement_counter(self, db):
        before = db.statements_executed
        db.execute("SELECT 1")
        db.execute("SELECT 2")
        assert db.statements_executed == before + 2


class TestResultApi:
    def test_scalar_requires_1x1(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        with pytest.raises(ExecutionError):
            db.execute("SELECT a FROM t").scalar()

    def test_first_and_bool(self, db):
        assert db.execute("SELECT a FROM t").first() is None
        assert not db.execute("SELECT a FROM t")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.execute("SELECT a FROM t").first() == (1,)

    def test_column_accessor(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert db.execute("SELECT a, b FROM t").column("b") == ["x", "y"]

    def test_column_accessor_unknown(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT a FROM t").column("zz")

    def test_as_dicts(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        assert db.execute("SELECT a, b FROM t").as_dicts() == [
            {"a": 1, "b": "x"}
        ]

    def test_pretty_renders(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        text = db.execute("SELECT a, b FROM t").pretty()
        assert "| a" in text and "| 1" in text

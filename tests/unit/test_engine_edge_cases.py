"""SQL engine edge cases and failure-mode documentation tests."""

import pytest

from repro.sqlengine import Database
from repro.sqlengine.errors import (
    CatalogError,
    ExecutionError,
    SqlParseError,
    SqlTypeError,
)


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return database


class TestNestedStructures:
    def test_view_on_view(self, db):
        db.execute("CREATE VIEW v1 AS (SELECT a FROM t WHERE a > 1)")
        db.execute("CREATE VIEW v2 AS (SELECT a FROM v1 WHERE a > 2)")
        assert db.query("SELECT a FROM v2") == [(3,)]

    def test_derived_table_of_derived_table(self, db):
        rows = db.query(
            "SELECT x FROM (SELECT y AS x FROM "
            "(SELECT a AS y FROM t) inner1) outer1 ORDER BY x"
        )
        assert rows == [(1,), (2,), (3,)]

    def test_subquery_three_levels_deep(self, db):
        value = db.execute(
            "SELECT (SELECT MAX(a) FROM t WHERE a < "
            "(SELECT MAX(a) FROM t WHERE a < (SELECT MAX(a) FROM t)))"
        ).scalar()
        assert value == 1

    def test_union_inside_derived_table(self, db):
        rows = db.query(
            "SELECT x FROM (SELECT a AS x FROM t UNION "
            "SELECT a + 10 AS x FROM t) u ORDER BY x"
        )
        assert len(rows) == 6

    def test_long_conjunction_chain(self, db):
        condition = " AND ".join(f"a <> {n}" for n in range(100, 160))
        assert len(db.query(f"SELECT a FROM t WHERE {condition}")) == 3

    def test_deeply_parenthesised_expression(self, db):
        expr = "(" * 40 + "a" + ")" * 40
        assert db.query(f"SELECT {expr} FROM t WHERE a = 1") == [(1,)]


class TestGroupingEdges:
    def test_group_by_on_empty_table(self, db):
        db.execute("DELETE FROM t")
        assert db.query("SELECT b, COUNT(*) FROM t GROUP BY b") == []

    def test_scalar_aggregate_on_empty_table(self, db):
        db.execute("DELETE FROM t")
        assert db.query("SELECT COUNT(*), MAX(a) FROM t") == [(0, None)]

    def test_having_without_group_by(self, db):
        assert db.query("SELECT COUNT(*) FROM t HAVING COUNT(*) > 5") == []
        assert db.query("SELECT COUNT(*) FROM t HAVING COUNT(*) > 2") == [
            (3,)
        ]

    def test_group_by_null_keys_form_one_group(self, db):
        db.execute("INSERT INTO t VALUES (NULL, 'n1'), (NULL, 'n2')")
        rows = db.query("SELECT a, COUNT(*) FROM t GROUP BY a")
        null_groups = [r for r in rows if r[0] is None]
        assert null_groups == [(None, 2)]

    def test_aggregate_of_aggregate_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT MAX(COUNT(*)) FROM t GROUP BY b")


class TestNonAtomicityDocumented:
    """The engine is non-transactional; partial effects of failed
    statements are visible.  These tests pin that documented behaviour
    so a future change to it is deliberate."""

    def test_failed_insert_select_keeps_prior_rows(self, db):
        db.execute("CREATE TABLE target (n INTEGER)")
        db.execute("INSERT INTO target VALUES (0)")
        with pytest.raises(SqlTypeError):
            # the SELECT evaluates 'x'/'y'/'z' - 1 and fails on row 1;
            # nothing was inserted, previous content remains
            db.execute("INSERT INTO target (SELECT b - 1 FROM t)")
        assert db.query("SELECT n FROM target") == [(0,)]

    def test_failed_update_is_all_or_nothing_per_row_scan(self, db):
        with pytest.raises(SqlTypeError):
            db.execute("UPDATE t SET a = b")  # VARCHAR into INTEGER
        # no partial update visible: the scan failed on the first row
        assert db.query("SELECT a FROM t ORDER BY a") == [(1,), (2,), (3,)]


class TestIdentifierEdges:
    def test_keyword_like_column_names(self, db):
        db.execute('CREATE TABLE k ("date" DATE, "all" INTEGER)')
        db.execute("INSERT INTO k VALUES (DATE '2000-01-01', 1)")
        # reserved words need delimited identifiers ("date" is special-
        # cased because the paper's Purchase table uses it)
        assert db.query('SELECT "all" FROM k') == [(1,)]
        assert db.query("SELECT date FROM k WHERE date = DATE '2000-01-01'")

    def test_case_insensitive_aliases(self, db):
        rows = db.query("SELECT T1.a FROM t t1 WHERE t1.A = 1")
        assert rows == [(1,)]

    def test_reserved_word_as_table_rejected_cleanly(self, db):
        with pytest.raises(SqlParseError):
            db.execute("CREATE TABLE select (a INTEGER)")


class TestSequencesEdges:
    def test_nextval_in_where_is_allowed_but_consumes(self, db):
        db.execute("CREATE SEQUENCE s")
        db.query("SELECT a FROM t WHERE a = s.NEXTVAL")
        # one call per row scanned
        assert db.catalog.get_sequence("s").next_value == 4

    def test_sequence_reset(self, db):
        db.execute("CREATE SEQUENCE s START WITH 5")
        assert db.execute("SELECT s.NEXTVAL").scalar() == 5

    def test_two_sequences_independent(self, db):
        db.execute("CREATE SEQUENCE s1")
        db.execute("CREATE SEQUENCE s2")
        db.execute("SELECT s1.NEXTVAL")
        assert db.execute("SELECT s2.NEXTVAL").scalar() == 1

    # sqlite3 has no sequences: the values below are the ones a row by
    # row evaluation numbers (a clause's k occurrences deal one k·n draw)

    def test_two_bare_nextval_items_number_row_major(self, db):
        db.execute("CREATE SEQUENCE s")
        rows = db.query("SELECT s.NEXTVAL, s.NEXTVAL FROM t")
        assert rows == [(1, 2), (3, 4), (5, 6)]
        assert db.catalog.get_sequence("s").next_value == 7

    def test_nextval_inside_arithmetic(self, db):
        db.execute("CREATE SEQUENCE s")
        db.execute("CREATE SEQUENCE r START WITH 100")
        assert db.query("SELECT a, s.NEXTVAL * 10 + s.NEXTVAL FROM t") == [
            (1, 12), (2, 34), (3, 56),
        ]
        assert db.query(
            "SELECT s.NEXTVAL, r.NEXTVAL, s.NEXTVAL + r.NEXTVAL FROM t"
        ) == [(7, 100, 109), (9, 102, 113), (11, 104, 117)]

    def test_conditional_nextval_raises(self, db):
        db.execute("CREATE SEQUENCE s")
        for sql in (
            "SELECT CASE WHEN a > 1 THEN s.NEXTVAL END FROM t",
            "SELECT a FROM t WHERE a > 1 OR s.NEXTVAL > 0",
            "SELECT COALESCE(NULL, s.NEXTVAL) FROM t",
            "SELECT a FROM t WHERE EXISTS (SELECT s.NEXTVAL)",
        ):
            with pytest.raises(ExecutionError, match="NEXTVAL"):
                db.query(sql)
        assert db.catalog.get_sequence("s").next_value == 1
        # an operand no row reaches raises nothing
        assert db.query("SELECT COALESCE(a, s.NEXTVAL) FROM t") == [
            (1,), (2,), (3,),
        ]


class TestLimitsAndOrdering:
    def test_limit_zero(self, db):
        assert db.query("SELECT a FROM t LIMIT 0") == []

    def test_offset_beyond_end(self, db):
        assert db.query("SELECT a FROM t ORDER BY a LIMIT 5 OFFSET 10") == []

    def test_negative_limit_and_offset_follow_sqlite(self, db):
        # a negative LIMIT is no limit, a negative OFFSET none
        assert db.query("SELECT a FROM t LIMIT -1") == [(1,), (2,), (3,)]
        assert db.query("SELECT a FROM t LIMIT 2 OFFSET -1") == [(1,), (2,)]
        assert db.query("SELECT a FROM t LIMIT :n", {"n": 2.0}) == [
            (1,), (2,),
        ]

    @pytest.mark.parametrize("window", [
        "LIMIT NULL", "LIMIT 1.5", "LIMIT 'x'", "LIMIT 1 OFFSET NULL",
    ])
    def test_null_or_fractional_window_raises(self, db, window):
        with pytest.raises(ExecutionError, match="must be an integer"):
            db.query(f"SELECT a FROM t {window}")

    def test_order_by_is_stable(self, db):
        db.execute("DELETE FROM t")
        for i, b in enumerate(["p", "q", "r", "s"]):
            db.execute(f"INSERT INTO t VALUES (1, '{b}')")
        rows = db.query("SELECT b FROM t ORDER BY a")
        assert [b for (b,) in rows] == ["p", "q", "r", "s"]

    def test_distinct_preserves_first_occurrence_order(self, db):
        db.execute("INSERT INTO t VALUES (1, 'x')")
        rows = db.query("SELECT DISTINCT a FROM t")
        assert rows == [(1,), (2,), (3,)]

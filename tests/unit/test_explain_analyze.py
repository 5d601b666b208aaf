"""EXPLAIN ANALYZE: per-node actual rows/loops/time instrumentation."""

import re

import pytest

from repro.sqlengine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (grp VARCHAR, x INTEGER)")
    for grp, x in [("a", 1), ("a", 2), ("b", 3), ("b", 4), ("c", 5)]:
        database.execute(
            "INSERT INTO t VALUES (:g, :x)", {"g": grp, "x": x}
        )
    return database


ANNOTATION = re.compile(
    r"\(actual rows=(\d+) loops=(\d+) time=\d+\.\d+ ms\)"
)


def annotations(text):
    return [
        (int(rows), int(loops))
        for rows, loops in ANNOTATION.findall(text)
    ]


class TestAnalyzeSelect:
    def test_scan_reports_actual_rows(self, db):
        text = db.explain_analyze("SELECT * FROM t")
        assert "Scan t" in text
        assert (5, 1) in annotations(text)
        assert "Execution: 5 rows" in text

    def test_filter_shows_row_reduction(self, db):
        result = db.analyze("SELECT * FROM t WHERE x > 3")
        assert result.rowcount == 2
        operators = {n["operator"]: n for n in result.nodes}
        assert operators["TableScan"]["rows"] == 5
        assert operators["Filter"]["rows"] == 2

    def test_aggregate_nodes_counted(self, db):
        result = db.analyze(
            "SELECT grp, COUNT(*) FROM t GROUP BY grp"
        )
        operators = {n["operator"]: n for n in result.nodes}
        assert operators["GroupAggregate"]["rows"] == 3
        assert operators["TableScan"]["rows"] == 5

    def test_join_nodes_counted(self, db):
        db.execute("CREATE TABLE u (grp VARCHAR)")
        db.execute("INSERT INTO u VALUES ('a'), ('b')")
        result = db.analyze(
            "SELECT t.x FROM t, u WHERE t.grp = u.grp"
        )
        assert result.rowcount == 4
        operators = {n["operator"]: n for n in result.nodes}
        assert operators["HashJoin"]["rows"] == 4

    def test_join_names_its_probe_kernel(self, db):
        """Distinct build keys probe one dict lookup per row; a key
        that repeats, or a NULL key, needs bucket lists."""
        db.execute("CREATE TABLE u (grp VARCHAR)")
        db.execute("INSERT INTO u VALUES ('a'), ('b')")
        sql = "SELECT t.x FROM t, u WHERE t.grp = u.grp"
        assert "spill=0 B probe=unique]" in db.explain_analyze(sql)
        for row in ("NULL", "'a'"):
            db.execute(f"INSERT INTO u VALUES ({row})")
            result = db.analyze(sql)
            operators = {n["operator"]: n for n in result.nodes}
            assert operators["HashJoin"]["probe"] == "buckets", row
        assert result.rowcount == 6

    def test_subquery_plan_rendered_separately(self, db):
        text = db.explain_analyze(
            "SELECT grp, (SELECT MAX(x) FROM t) FROM t"
        )
        assert "-- subplan --" in text

    def test_correlated_subquery_accumulates_loops(self, db):
        result = db.analyze(
            "SELECT grp FROM t a "
            "WHERE x = (SELECT MAX(x) FROM t b WHERE b.grp = a.grp)"
        )
        assert result.rowcount == 3
        # the subplan's scan ran once per outer row
        scans = [
            n for n in result.nodes
            if n["operator"] == "TableScan" and n["plan"] > 0
        ]
        assert scans and scans[0]["loops"] == 5


class TestAnalyzeSideEffects:
    def test_ctas_executes_exactly_once(self, db):
        result = db.analyze("CREATE TABLE t2 AS SELECT * FROM t")
        assert "CreateTableAsSelect" in result.text
        assert len(db.table("t2")) == 5  # not doubled

    def test_insert_select_executes_exactly_once(self, db):
        db.execute("CREATE TABLE sink (grp VARCHAR, x INTEGER)")
        db.analyze("INSERT INTO sink SELECT * FROM t")
        assert len(db.table("sink")) == 5

    def test_statement_without_plan_reports_so(self, db):
        result = db.analyze("CREATE TABLE empty_one (a INTEGER)")
        assert "(no plan: executed directly)" in result.text


class TestInstrumentationHygiene:
    def test_no_residue_on_cached_plan(self, db):
        sql = "SELECT grp, COUNT(*) FROM t GROUP BY grp"
        db.analyze(sql)
        # the cached plan must run un-instrumented afterwards
        plan = db._select_plan(db._parse_statement(sql))
        from repro.sqlengine.planner import plan_operators

        for op in plan_operators(plan.source):
            assert "envs" not in op.__dict__
        assert len(db.query(sql)) == 3

    def test_analyze_results_match_plain_execution(self, db):
        sql = "SELECT grp, SUM(x) FROM t GROUP BY grp ORDER BY grp"
        assert db.analyze(sql).result.rows == db.query(sql)

    def test_collector_cleared_after_error(self, db):
        from repro.sqlengine.errors import SqlError

        with pytest.raises(SqlError):
            db.analyze("SELECT * FROM missing_table")
        assert db._analyze is None

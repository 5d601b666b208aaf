"""EXPLAIN ANALYZE: per-node actual rows/loops/time instrumentation."""

import re

import pytest

from repro.sqlengine import Database, vector


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
    def test_annotation_ends_at_the_actuals(self, db):
        """An annotated line ends at ``(actual rows=… loops=… time=…
        ms)``; a join adds its probe kernel, and the structured nodes
        carry no count beyond rows, loops, time and the probe."""
        db.execute("CREATE TABLE u (grp VARCHAR)")
        db.execute("INSERT INTO u VALUES ('a'), ('b')")
        sql = "SELECT t.x FROM t, u WHERE t.grp = u.grp AND t.x > 1"
        result = db.analyze(sql)
        annotated = [
            line for line in result.text.splitlines() if "actual" in line
        ]
        assert len(annotated) == 4
        for line in annotated:
            if line.lstrip().startswith("HashJoin"):
                assert re.search(
                    ANNOTATION.pattern + r" \[probe=unique\]$", line
                ), line
            else:
                assert re.search(ANNOTATION.pattern + "$", line), line
        assert "batch" not in result.text
        assert {frozenset(n) for n in result.nodes} <= {
            frozenset({"plan", "operator", "rows", "loops", "seconds"}),
            frozenset({"plan", "operator", "rows", "loops", "seconds",
                       "probe"}),
        }
        # stripped of its annotations, the plan is plain EXPLAIN's
        plain = db.explain(sql).splitlines()
        assert plain == [
            re.sub(r" " + ANNOTATION.pattern + r"( \[probe=\w+\])?$", "", line)
            for line in result.text.splitlines()[: len(plain)]
        ]

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
        assert "(actual rows=4 loops=1 " in db.explain_analyze(sql)
        assert db.explain_analyze(sql).count(" [probe=unique]") == 1
        for row in ("NULL", "'a'"):
            db.execute(f"INSERT INTO u VALUES ({row})")
            result = db.analyze(sql)
            operators = {n["operator"]: n for n in result.nodes}
            assert operators["HashJoin"]["probe"] == "buckets", row
        assert result.rowcount == 6

    @staticmethod
    def _band_tables(column_type, left, right):
        """``a`` and ``b`` with a repeated key ``k`` and the compared
        column ``v`` of *column_type*, holding the given values."""
        database = Database()
        for name, values in (("a", left), ("b", right)):
            database.execute(
                f"CREATE TABLE {name} (k INTEGER, v {column_type})"
            )
            for value in values:
                database.execute(f"INSERT INTO {name} VALUES (1, {value})")
        return database

    def test_band_join_names_its_probe_kernel(self):
        """A residual comparing a NULL-free column of each side is
        probed by bisecting each bucket sorted by its value."""
        database = self._band_tables("INTEGER", (1, 3), (2, 0, 4))
        sql = "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.v < b.v"
        assert "probe=band]" in database.explain_analyze(sql)
        assert database.query(sql) == [(1, 2), (1, 4), (3, 4)]

    @pytest.mark.parametrize("column_type, odd", [
        ("INTEGER", "NULL"),
        ("REAL", "NULL"),
        ("REAL", "CAST('nan' AS FLOAT)"),
    ])
    def test_band_join_buckets_a_null_or_a_nan(self, column_type, odd):
        """Bisection cannot order a NULL or a NaN: a compared column on
        either side that holds one sends the join back to the bucket
        lists, its residual testing every same-key pair."""
        sql = "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.v < b.v"
        for left, right in (((1, odd), (2, 0)), ((1, 3), (odd, 2))):
            database = self._band_tables(column_type, left, right)
            result = database.analyze(sql)
            operators = {n["operator"]: n for n in result.nodes}
            assert operators["HashJoin"]["probe"] == "buckets"
            assert result.rowcount == 1

    def test_subquery_plan_rendered_separately(self, db):
        text = db.explain_analyze(
            "SELECT grp, (SELECT MAX(x) FROM t) FROM t"
        )
        assert "-- subplan --" in text

    def test_correlated_subquery_accumulates_loops(self, db, monkeypatch):
        # at a chunk of 3 rows the outer filter's chunks split group b
        for chunk in (vector.CHUNK_ROWS, 2, 3):
            monkeypatch.setattr(vector, "CHUNK_ROWS", chunk)
            result = db.analyze(
                "SELECT grp FROM t a "
                "WHERE x = (SELECT MAX(x) FROM t b WHERE b.grp = a.grp)"
            )
            assert result.rowcount == 3
            # the subplan's scan ran once per distinct outer value
            # (three groups among the five outer rows), not once per
            # outer row, however many chunks the outer filter runs
            scans = [
                n for n in result.nodes
                if n["operator"] == "TableScan" and n["plan"] > 0
            ]
            assert scans and scans[0]["loops"] == 3, chunk

    def test_where_leftover_filter_is_a_node(self, db):
        """A WHERE conjunct holding a subquery filters above the join
        tree as a plan node of its own: annotated, and in ``nodes``."""
        result = db.analyze(
            "SELECT x FROM t WHERE x > 1 AND grp IN "
            "(SELECT grp FROM t WHERE x = 3)"
        )
        assert result.rowcount == 2
        line = next(
            line for line in result.text.splitlines()
            if line.lstrip().startswith("Filter (grp IN")
        )
        assert annotations(line) == [(2, 1)]
        assert line.endswith(" ms)")
        filters = [
            n for n in result.nodes
            if n["operator"] == "Filter" and n["plan"] == 0
        ]
        assert [(n["rows"], n["loops"]) for n in filters] == [
            (2, 1), (4, 1),
        ]

    def test_compound_blocks_render_under_their_set_operation(self, db):
        text = db.explain_analyze(
            "SELECT grp FROM t WHERE x < 3 "
            "UNION ALL SELECT grp FROM t WHERE x > 3 ORDER BY 1"
        )
        assert "-- subplan --" not in text
        lines = text.splitlines()
        assert lines[:2] == ["Sort (1 keys)", "  Union [all]"]
        projects = [line for line in lines if "Project" in line]
        assert projects == ["    Project (grp)", "    Project (grp)"]
        # each block's filter and scan, annotated once
        assert annotations(text) == [(2, 1), (5, 1), (2, 1), (5, 1)]


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
        """A cached plan is shared by threads: neither a plain run nor
        an ANALYZE run writes anything onto its nodes (their counters
        go to the execution's context and the collector)."""
        db.execute("CREATE TABLE u (grp VARCHAR, y INTEGER)")
        db.execute("INSERT INTO u VALUES ('a', 1), ('b', 2)")
        sql = (
            "SELECT t.grp, COUNT(*) FROM t, u "
            "WHERE t.grp = u.grp AND t.x > (SELECT MIN(y) FROM u) "
            "GROUP BY t.grp"
        )
        assert len(db.query(sql)) == 2
        plan = db._statement_cache[sql].plan
        nodes = list(plan.nodes())

        def state():
            return [
                {name: id(value) for name, value in vars(node).items()}
                for node in nodes
            ]

        before = state()
        assert len(db.query(sql)) == 2
        assert state() == before
        assert len(db.analyze(sql).result.rows) == 2
        assert state() == before
        assert db._statement_cache[sql].plan is plan

    def test_analyze_results_match_plain_execution(self, db):
        sql = "SELECT grp, SUM(x) FROM t GROUP BY grp ORDER BY grp"
        assert db.analyze(sql).result.rows == db.query(sql)

    def test_collector_cleared_after_error(self, db):
        from repro.sqlengine.errors import SqlError

        with pytest.raises(SqlError):
            db.analyze("SELECT * FROM missing_table")
        assert db._analyze is None

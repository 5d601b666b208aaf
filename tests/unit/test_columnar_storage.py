"""Unit tests for the columnar storage layer and the vectorized
executor's observable surface (PR 7).

Covered here: the adaptive :class:`ColumnVector` layouts and their
exact-promotion rules, the :class:`ColumnarTable` Table contract
(DML, indexes, out-of-band row mutation), storage selection
(per-table ``storage_hints``, row heaps otherwise), the
spill-to-disk helpers and EXPLAIN ANALYZE's per-node batch/spill
counters.  The end-to-end bit-identity net lives in
``tests/property/test_columnar_differential.py``.
"""

import datetime
from types import SimpleNamespace

import pytest

from repro.sqlengine import (
    ColumnarTable,
    Database,
    EngineOptions,
    STORAGE_KINDS,
)
from repro.sqlengine.columnar import ColumnVector, make_table
from repro.sqlengine.spill import (
    estimate_bytes,
    external_sort,
    spill_aggregate,
    spill_join_pairs,
)
from repro.sqlengine.types import SqlType


class TestColumnVector:
    def test_int_layout_with_nulls(self):
        vector = ColumnVector()
        for value in (1, None, 3):
            vector.append(value)
        assert vector.kind == "int"
        assert vector.to_pylist() == [1, None, 3]
        assert vector.get(1) is None
        assert vector.has_nulls

    def test_string_dictionary_interns_repeats(self):
        vector = ColumnVector()
        for value in ("a", "b", "a", None, "a"):
            vector.append(value)
        assert vector.kind == "str"
        assert vector.values == ["a", "b"]  # two distinct codes only
        assert vector.to_pylist() == ["a", "b", "a", None, "a"]

    def test_leading_null_run_adopts_later_layout(self):
        vector = ColumnVector()
        for value in (None, None, "x"):
            vector.append(value)
        assert vector.kind == "str"
        assert vector.to_pylist() == [None, None, "x"]

    def test_promotion_keeps_values_exact(self):
        vector = ColumnVector()
        vector.append(7)
        vector.append(datetime.date(1995, 1, 1))  # int cannot hold it
        assert vector.kind == "obj"
        assert vector.to_pylist() == [7, datetime.date(1995, 1, 1)]

    def test_bool_and_overflow_go_to_obj(self):
        vector = ColumnVector()
        vector.append(True)
        assert vector.kind == "obj"
        big = ColumnVector()
        big.append(2**70)
        assert big.kind == "obj"
        assert big.to_pylist() == [2**70]

    @pytest.mark.parametrize("values", [
        (1, None, 3, None, 5),
        (1.5, None, 2.5),
        ("a", "b", None, "a"),
        (None, None, None),
        (True, 2**70, None),
    ])
    def test_tail_and_get_agree_with_the_full_decode(self, values):
        vector = ColumnVector()
        for value in values:
            vector.append(value)
        assert [vector.get(i) for i in range(len(values))] == list(values)
        for start in range(len(values) + 2):
            tail = vector.tail(start)
            assert tail.kind == vector.kind
            assert len(tail) == len(values[start:])
            assert tail.to_pylist() == list(values[start:])

    def test_tail_shares_the_string_dictionary(self):
        vector = ColumnVector()
        vector.extend(["a", "b", "a"])
        assert vector.tail(1).values is vector.values


class TestColumnarTable:
    def _table(self):
        table = ColumnarTable(
            "T", ("a", "b"), [SqlType.INTEGER, SqlType.VARCHAR]
        )
        table.insert((1, "x"))
        table.insert((2, "y"))
        table.insert((None, "x"))
        return table

    def test_row_contract(self):
        table = self._table()
        assert table.storage == "columnar"
        assert len(table) == 3
        assert list(table) == [(1, "x"), (2, "y"), (None, "x")]
        assert table.get(table.rows[1], "b") == "y"

    def test_replace_and_truncate(self):
        table = self._table()
        table.replace_rows([(9, "z")])
        assert list(table) == [(9, "z")]
        table.truncate()
        assert len(table) == 0
        assert table.rows == []

    def test_secondary_index_maintained(self):
        table = self._table()
        index = table.create_index("ix_b", ("b",))
        assert list(index.lookup(("x",))) == [(1, "x"), (None, "x")]
        table.insert((4, "x"))
        assert len(index.lookup(("x",))) == 3

    def test_out_of_band_rows_append_is_absorbed(self):
        # dump restore and a few tests append to table.rows directly;
        # the columnar layout must notice and re-encode
        table = self._table()
        table.rows.append((5, "w"))
        assert len(table) == 4
        assert table.column_lists()[0] == [1, 2, None, 5]

    def test_insert_coerces_to_declared_types(self):
        table = ColumnarTable("T", ("a",), [SqlType.REAL])
        table.insert((1,))
        assert table.rows == [(1.0,)]

    @pytest.mark.parametrize("kind", STORAGE_KINDS)
    def test_tail_is_a_relation_over_the_stored_values(self, kind):
        table = make_table(kind, "T", ("a", "b"),
                           [SqlType.INTEGER, SqlType.VARCHAR])
        table.insert_many([(1, "x"), (2, "y"), (None, "x")])
        table.create_index("ix_b", ("b",))
        tail = table.tail(1, "T_tail")
        assert (tail.name, tail.storage, tail.columns, tail.types) == (
            "T_tail", kind, table.columns, table.types
        )
        assert len(tail) == 2 and not tail.indexes
        assert tail.rows == [(2, "y"), (None, "x")]
        if kind == "row":
            assert tail.rows[0] is table.rows[1]  # shared, not copied
        assert tail.column_lists() == [[2, None], ["y", "x"]]
        assert table.tail(3, "e").rows == [] == table.tail(9, "e").rows
        assert [table.row(i) for i in range(3)] == table.rows

    @pytest.mark.parametrize("kind", STORAGE_KINDS)
    def test_rewrites_count_every_mutation_that_is_not_an_append(self, kind):
        db = Database()
        db.storage_hints["t"] = kind
        db.execute("CREATE TABLE T (a INTEGER, b VARCHAR)")
        table = db.catalog.get_table("T")
        db.execute("INSERT INTO T VALUES (1, 'x')")
        table.insert((2, "y"))
        table.insert_many([(3, "z")])
        assert table.rewrites == 0
        db.execute("UPDATE T SET b = 'w' WHERE a = 1")
        assert table.rewrites == 1
        # a statement that matches no row rewrites nothing: the counter
        # stands and the index is the one built before
        entries = table.create_index("t_a", ["a"]).entries
        rows_before = list(table.rows)
        assert db.execute("UPDATE T SET b = 'w' WHERE a = 99").rowcount == 0
        assert db.execute("DELETE FROM T WHERE a = 99").rowcount == 0
        assert table.rewrites == 1
        assert table.indexes["t_a"].entries is entries
        assert table.rows == rows_before
        db.execute("DELETE FROM T WHERE a = 2")
        assert table.indexes["t_a"].entries is not entries
        db.execute("DELETE FROM T")
        assert table.rewrites == 3
        table.truncate()
        assert table.rewrites == 4
        if kind == "columnar":
            table.rows = [(7, "q")]
            assert table.rewrites == 5

    def test_make_table_and_validate(self):
        assert isinstance(make_table("columnar", "t", ("a",)), ColumnarTable)
        assert make_table("row", "t", ("a",)).storage == "row"
        with pytest.raises(ValueError):
            make_table("parquet", "t", ("a",))
        assert STORAGE_KINDS == ("row", "columnar")


class TestStorageSelection:
    def test_storage_hints_override_per_table(self):
        database = Database()
        database.storage_hints["enc"] = "columnar"
        database.execute("CREATE TABLE enc (a INTEGER)")
        database.execute("CREATE TABLE plain (a INTEGER)")
        assert database.catalog.storage_of("enc") == "columnar"
        assert database.catalog.storage_of("plain") == "row"

    def test_row_and_columnar_query_identically(self):
        results = []
        for kind in STORAGE_KINDS:
            database = Database()
            database.storage_hints["t"] = kind
            database.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
            for i in range(20):
                database.execute(
                    f"INSERT INTO t VALUES ({i}, '{'xy'[i % 2]}')"
                )
            results.append(
                database.query(
                    "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY b"
                )
            )
        assert results[0] == results[1]


class TestSpillHelpers:
    def test_estimate_scales_with_shape(self):
        assert estimate_bytes(2, 100) > estimate_bytes(1, 100)
        assert estimate_bytes(2, 200) > estimate_bytes(2, 100)

    def test_external_sort_matches_sorted(self):
        rows = [(i % 7, -i) for i in range(500)]
        keys = [(row[0],) for row in rows]
        order_by = [SimpleNamespace(ascending=True)]  # expr itself unused
        merged, spilled = external_sort(
            list(rows), keys, order_by, budget=512
        )
        assert spilled > 0
        assert merged == sorted(rows, key=lambda r: (r[0],))
        # stability: equal keys keep input order
        by_key = [r for r in merged if r[0] == 3]
        assert by_key == [r for r in rows if r[0] == 3]

    def test_spill_join_pairs_matches_nested_loop(self):
        left = [(i % 5,) for i in range(40)]
        right = [(i % 3,) for i in range(30)]
        expected = [
            (i, j)
            for i, lk in enumerate(left)
            for j, rk in enumerate(right)
            if lk == rk
        ]
        pairs, spilled = spill_join_pairs(left, right)
        assert pairs == expected
        assert spilled > 0

    def test_spill_join_skips_null_keys(self):
        pairs, _ = spill_join_pairs([(None,), (1,)], [(1,), (None,)])
        assert pairs == [(1, 0)]


class TestExplainAnalyzeCounters:
    def _database(self, memory_budget=None):
        database = Database(
            options=EngineOptions(
                batch_size=16, memory_budget=memory_budget
            )
        )
        database.storage_hints["t"] = "columnar"
        database.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        for i in range(200):
            database.execute(
                f"INSERT INTO t VALUES ({i}, 'v{i % 11}')"
            )
        return database

    def test_vectorized_nodes_report_batches(self):
        database = self._database()
        analysis = database.analyze(
            "SELECT b, COUNT(*) FROM t WHERE a > 10 GROUP BY b"
        )
        vectorized = [n for n in analysis.nodes if n.get("vectorized")]
        assert vectorized, analysis.text
        assert all(n["batches"] >= 1 for n in vectorized)
        assert "[vectorized batches=" in analysis.text

    def test_spill_bytes_surface_in_plan(self):
        database = self._database(memory_budget=1_000)
        analysis = database.analyze(
            "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b"
        )
        assert any(
            n.get("spill_bytes", 0) > 0
            for n in analysis.nodes
            if n.get("vectorized")
        ), analysis.text

    def test_row_fallback_for_unsupported_plans(self):
        database = self._database()
        # correlated subquery: the vectorizer falls back, the row path
        # answers, and no vectorized annotation appears
        analysis = database.analyze(
            "SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t)"
        )
        assert analysis.result.rows == [(199,)]
        assert "[vectorized" not in analysis.text


class TestSpillAggregateHelper:
    def test_group_counts_match(self):
        n = 50
        keys = [(i % 4,) for i in range(n)]
        child_cols = [[i % 4 for i in range(n)]]

        class Slot:
            name = "COUNT"
            star = True
            distinct = False

        repcols, slotcols, count, spilled = spill_aggregate(
            n, keys, child_cols, [None], [Slot()]
        )
        assert count == 4
        assert repcols[0] == [0, 1, 2, 3]
        assert slotcols[0] == [13, 13, 12, 12]
        assert spilled > 0


class TestSpilledLeftOuterJoin:
    """Satellite fix: LEFT OUTER JOIN had no spill branch in the
    vectorized executor — above-budget builds now run partition-wise
    through ``spill_join_pairs`` with bit-identical emission (verified
    against both the in-memory path and sqlite3)."""

    QUERY = (
        "SELECT l.k, l.a, r.b FROM l LEFT OUTER JOIN r ON l.k = r.k"
    )
    QUERY_RESIDUAL = (
        "SELECT l.k, l.a, r.b FROM l "
        "LEFT OUTER JOIN r ON l.k = r.k AND r.b > 1"
    )

    def _load(self, memory_budget):
        database = Database(
            options=EngineOptions(
                batch_size=16, memory_budget=memory_budget
            )
        )
        database.storage_hints.update(l="columnar", r="columnar")
        database.execute("CREATE TABLE l (k INTEGER, a VARCHAR)")
        database.execute("CREATE TABLE r (k INTEGER, b INTEGER)")
        left, right = database.table("l"), database.table("r")
        for i in range(120):
            left.insert((i % 7 if i % 11 else None, f"a{i % 5}"))
        for i in range(90):
            right.insert((i % 9 if i % 13 else None, i % 4))
        return database

    def _sqlite(self):
        import sqlite3

        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE l (k INTEGER, a TEXT)")
        lite.execute("CREATE TABLE r (k INTEGER, b INTEGER)")
        for i in range(120):
            lite.execute(
                "INSERT INTO l VALUES (?, ?)",
                (i % 7 if i % 11 else None, f"a{i % 5}"),
            )
        for i in range(90):
            lite.execute(
                "INSERT INTO r VALUES (?, ?)",
                (i % 9 if i % 13 else None, i % 4),
            )
        return lite

    @pytest.mark.parametrize("query", [QUERY, QUERY_RESIDUAL])
    def test_spilled_run_is_bit_identical(self, query):
        in_memory = list(self._load(None).query(query))
        spilled = list(self._load(500).query(query))
        assert spilled == in_memory  # same rows, same order

    @pytest.mark.parametrize("query", [QUERY, QUERY_RESIDUAL])
    def test_matches_sqlite(self, query):
        mine = sorted(self._load(500).query(query), key=repr)
        theirs = sorted(self._sqlite().execute(query).fetchall(), key=repr)
        assert mine == theirs

    def test_forced_spill_actually_spills(self):
        analysis = self._load(500).analyze(self.QUERY)
        assert any(
            node.get("spill_bytes", 0) > 0
            for node in analysis.nodes
            if node.get("vectorized")
        ), analysis.text

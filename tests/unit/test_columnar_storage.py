"""Unit tests for the columnar storage layer and the batch
executor's observable surface.

Covered here: the adaptive :class:`ColumnVector` layouts, their
exact-promotion rules and decodes, the :class:`Table` contract over
them (DML, indexes, the read-only ``rows``) and EXPLAIN ANALYZE's
per-node batch counters, which show a theta join and a keyless LEFT
JOIN testing their candidate pairs a chunk at a time.  The end-to-end
batch-size invariance net lives in
``tests/property/test_columnar_differential.py``.
"""

import datetime

import pytest

import repro.sqlengine as sqlengine
from repro.sqlengine import Database, EngineOptions, Table, columnar
from repro.sqlengine.columnar import ColumnVector
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

    @pytest.mark.parametrize("values", [
        (1, None, 3, None, 5, 6, None),
        (1.5, None, 2.5),
        ("a", "b", None, "a", "c", "a", None, "b"),
        (None, None, None),
        (True, 2**70, None, "x"),
        (),
    ])
    def test_sample_and_decode_are_exact(self, values):
        vector = ColumnVector()
        vector.extend(list(values))
        full = list(values)
        assert vector.to_pylist() == full
        for stop in range(len(values) + 2):
            for stride in (1, 2, 3):
                assert vector.sample(stop, stride) == full[:stop:stride]


class TestColumnarTable:
    def _table(self):
        table = Table("T", ("a", "b"), [SqlType.INTEGER, SqlType.VARCHAR])
        table.insert((1, "x"))
        table.insert((2, "y"))
        table.insert((None, "x"))
        return table

    def test_row_contract(self):
        table = self._table()
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

    def test_rows_refuse_append_and_item_assignment(self):
        # rows materializes the vectors: a write into it would miss them
        table = self._table()
        rows = table.rows
        for write in (
            lambda: rows.append((5, "w")),
            lambda: rows.extend([(5, "w")]),
            lambda: rows.__setitem__(0, (5, "w")),
            lambda: rows.__delitem__(0),
            lambda: rows.pop(),
        ):
            with pytest.raises(TypeError, match="read-only"):
                write()
        with pytest.raises(AttributeError):
            table.rows = [(5, "w")]
        assert len(table) == 3 and table.rows is rows
        assert table.column_lists()[0] == [1, 2, None]
        table.insert((5, "w"))
        assert table.rows == [(1, "x"), (2, "y"), (None, "x"), (5, "w")]

    def test_insert_coerces_to_declared_types(self):
        table = Table("T", ("a",), [SqlType.REAL])
        table.insert((1,))
        assert table.rows == [(1.0,)]

    @pytest.mark.parametrize("write", ["columnar", "row"])
    def test_tail_is_a_relation_over_the_stored_values(self, write):
        """Over vectors written in one column-wise ``insert_many`` or
        one ``insert`` per row alike."""
        table = Table("T", ("a", "b"), [SqlType.INTEGER, SqlType.VARCHAR])
        rows = [(1, "x"), (2, "y"), (None, "x")]
        if write == "columnar":
            table.insert_many(rows)
        else:
            for row in rows:
                table.insert(row)
        table.create_index("ix_b", ("b",))
        tail = table.tail(1, "T_tail")
        assert (tail.name, tail.columns, tail.types) == (
            "T_tail", table.columns, table.types
        )
        assert len(tail) == 2 and not tail.indexes
        assert tail.rows == [(2, "y"), (None, "x")]
        # the dictionary is shared, not copied
        assert tail.column_vector(1).values is table.column_vector(1).values
        assert tail.column_lists() == [[2, None], ["y", "x"]]
        assert table.tail(3, "e").rows == [] == table.tail(9, "e").rows
        assert table.sample(3, 1) == table.rows
        assert table.sample(3, 2) == [(1, "x"), (None, "x")]

    def test_rewrites_count_every_mutation_that_is_not_an_append(self):
        db = Database()
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
        table.replace_rows([(7, "q")])
        assert table.rewrites == 5

    def test_one_table_type(self):
        """Every table has the one layout: nothing chooses another."""
        for gone in ("ColumnarTable", "STORAGE_KINDS"):
            assert not hasattr(sqlengine, gone)
            assert not hasattr(columnar, gone)
        assert not hasattr(columnar, "make_table")
        database = Database()
        assert not hasattr(database, "storage_hints")
        assert not hasattr(database.catalog, "storage_of")
        database.execute("CREATE TABLE t (a INTEGER)")
        assert type(database.table("t")) is Table
        assert not hasattr(database.table("t"), "storage")


class TestExplainAnalyzeCounters:
    def _database(self):
        database = Database(options=EngineOptions(batch_size=16))
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
        assert analysis.nodes, analysis.text
        assert all(n["batches"] >= 1 for n in analysis.nodes)
        assert " [batches=" in analysis.text
        assert "vectorized" not in analysis.text
        assert all("vectorized" not in n for n in analysis.nodes)

    def test_subquery_plans_report_batches(self):
        database = self._database()
        # the subquery's plan runs batch-at-a-time like the outer one
        analysis = database.analyze(
            "SELECT a FROM t WHERE a = (SELECT MAX(a) FROM t)"
        )
        assert analysis.result.rows == [(199,)]
        assert {n["plan"] for n in analysis.nodes} == {0, 1}
        assert all(n["batches"] >= 1 for n in analysis.nodes)

    def _with_u(self):
        database = self._database()
        database.execute("CREATE TABLE u (c INTEGER)")
        database.execute("INSERT INTO u VALUES (0), (2), (NULL), (4), (6)")
        return database

    def test_theta_join_tests_its_pairs_a_chunk_at_a_time(self):
        """A theta join answers left-major and builds its candidate
        pairs about ``batch_size`` at a time: 200 × 5 pairs in chunks
        of three left rows (15 pairs) take 67 chunks, not one of 1 000
        pairs."""
        analysis = self._with_u().analyze(
            "SELECT t.a, u.c FROM t, u WHERE MOD(t.a, 7) < u.c"
        )
        join = next(
            n for n in analysis.nodes if n["operator"] == "NestedLoopJoin"
        )
        assert join["batches"] == 67
        # left-major, in the right side's order
        assert analysis.result.rows == [
            (a, c) for a in range(200) for c in (0, 2, 4, 6) if a % 7 < c
        ]

    def test_keyless_left_join_tests_its_pairs_a_chunk_at_a_time(self):
        """A LEFT JOIN whose ON holds no equality runs the theta join's
        chunked candidate loop, not one bucket of all 1 000 pairs, and
        pads each left row none of whose pairs passes with NULL in its
        place."""
        analysis = self._with_u().analyze(
            "SELECT t.a, u.c FROM t LEFT JOIN u ON MOD(t.a, 7) + 3 < u.c"
        )
        join = next(
            n for n in analysis.nodes
            if n["operator"] == "LeftOuterHashJoin"
        )
        assert join["batches"] == 67
        expected = []
        for a in range(200):
            matches = [(a, c) for c in (0, 2, 4, 6) if a % 7 + 3 < c]
            expected.extend(matches or [(a, None)])
        assert analysis.result.rows == expected

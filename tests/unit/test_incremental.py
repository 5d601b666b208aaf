"""Unit tests for incremental maintenance (:mod:`repro.incremental`)
and the REFRESH RULES verb."""

import datetime

import pytest

from repro import Database, MiningSystem
from repro.algorithms import Apriori
from repro.datagen import load_purchase_figure1, load_purchase_synthetic
from repro.incremental import (
    FINGERPRINT_SAMPLES,
    RefreshComputation,
    RefreshError,
    SourceMutated,
    fingerprint_stride,
    pairs_query,
    refresh_eligibility,
)
from repro.minerule import parse_mine_rule, parse_refresh
from repro.minerule.errors import MineRuleParseError

SIMPLE = (
    "MINE RULE SimpleAssociations AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5"
)

GENERAL = (
    "MINE RULE RichAssoc AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "WHERE BODY.price > 50 "
    "FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.4"
)


@pytest.fixture
def system():
    database = Database()
    load_purchase_figure1(database)
    return MiningSystem(database=database)


def append_purchase(db, rows, bulk=False):
    """One ``insert`` per row, or one column-wise ``insert_many``."""
    table = db.catalog.get_table("Purchase")
    if bulk:
        table.insert_many(rows)
        return
    for row in rows:
        table.insert(list(row))


def shrink_unrecorded(table):
    """Drop the last row without the rewrite count noticing: the one
    thing the engine never does, and what the ``shrank`` guard is
    for."""
    rewrites = table.rewrites
    table.replace_rows(table.rows[:-1])
    table.rewrites = rewrites


EXTRA = [
    (30, "c9", "ski_pants", datetime.date(1998, 1, 2), 120.0, 1),
    (30, "c9", "hiking_boots", datetime.date(1998, 1, 2), 180.0, 1),
    (31, "c10", "ski_pants", datetime.date(1998, 1, 3), 120.0, 1),
]


class TestParseRefresh:
    def test_basic(self):
        statement = parse_refresh("REFRESH RULES SimpleAssociations")
        assert statement.output_table == "SimpleAssociations"

    def test_semicolon_and_case(self):
        statement = parse_refresh("refresh rules MyRules ;")
        assert statement.output_table == "MyRules"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MineRuleParseError):
            parse_refresh("REFRESH RULES A B")

    def test_missing_table_rejected(self):
        with pytest.raises(MineRuleParseError):
            parse_refresh("REFRESH RULES")


class TestEligibility:
    def _program(self, system, text):
        from repro.kernel.names import Workspace

        return system._translator.translate(text, Workspace("T1"))

    def test_simple_statement_is_eligible(self, system):
        assert refresh_eligibility(self._program(system, SIMPLE)) is None

    def test_general_core_is_not(self, system):
        reason = refresh_eligibility(self._program(system, GENERAL))
        assert "general core" in reason

    def test_group_having_is_not(self, system):
        text = SIMPLE.replace(
            "GROUP BY tr ", "GROUP BY tr HAVING COUNT(*) > 1 "
        )
        reason = refresh_eligibility(self._program(system, text))
        assert "HAVING" in reason


class TestPairsQuery:
    def test_shape(self):
        statement = parse_mine_rule(SIMPLE)
        assert pairs_query(statement, "MR_Increment") == (
            "SELECT DISTINCT item, tr FROM MR_Increment Purchase "
            "WHERE tr IS NOT NULL"
        )

    def test_null_keys_refresh_like_a_fresh_mine(self):
        """A NULL group key belongs to no group and a NULL item is no
        item (DESIGN.md section 3): the refresh counts and interns them
        as the preprocessing queries do."""
        from repro.sqlengine.types import SqlType

        text = (
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item "
            "AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY g EXTRACTING "
            "RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1"
        )
        rows = [(1, "a"), (1, "b"), (2, "a"), (2, None), (None, "a"),
                (None, "b"), (3, "b"), (3, None)]
        appended = [(None, "b"), (4, "a"), (4, "b"), (4, None), (5, None)]

        def mined(source_rows):
            db = Database()
            db.create_table_from_rows(
                "T", ("g", "item"), source_rows,
                (SqlType.INTEGER, SqlType.VARCHAR),
            )
            return db, MiningSystem(database=db)

        db, system = mined(rows)
        system.run(text)
        system.refresh("R")
        for row in appended:
            db.table("T").insert(row)
        refreshed = system.refresh("R")
        assert refreshed.stats.mode == "incremental"
        assert refreshed.stats.totg == 5
        fresh, fresh_system = mined(rows + appended)
        fresh_system.run(text)
        for table in ("R", "R_Bodies", "R_Heads", "R_Display"):
            assert db.query(f"SELECT * FROM {table}") == fresh.query(
                f"SELECT * FROM {table}"
            )

    def test_increment_is_bound_to_the_statement_alias(self):
        statement = parse_mine_rule(
            SIMPLE.replace(
                "FROM Purchase GROUP BY",
                "FROM Purchase AS P WHERE P.qty > 1 GROUP BY",
            )
        )
        sql = pairs_query(statement, "MR_Increment")
        assert "FROM MR_Increment P WHERE" in sql and "P.qty" in sql

    def test_source_condition_rendered(self):
        statement = parse_mine_rule(
            SIMPLE.replace(
                "FROM Purchase GROUP BY",
                "FROM Purchase WHERE qty > 1 GROUP BY",
            )
        )
        sql = pairs_query(statement, "MR_Increment")
        assert sql.startswith(
            "SELECT DISTINCT item, tr FROM MR_Increment Purchase WHERE"
        )
        assert "qty" in sql


class TestFingerprint:
    def test_stride_small_tables_hash_every_row(self):
        assert fingerprint_stride(10) == 1
        assert fingerprint_stride(FINGERPRINT_SAMPLES) == 1

    def test_stride_bounds_samples(self):
        n = 1_000_000
        stride = fingerprint_stride(n)
        assert n // stride <= FINGERPRINT_SAMPLES + 1

    def test_stride_is_a_power_of_two_keeping_half_the_samples(self):
        for n in (FINGERPRINT_SAMPLES + 1, 3_000, 4_534, 1_000_000):
            stride = fingerprint_stride(n)
            assert stride & (stride - 1) == 0
            samples = len(range(0, n, stride))
            assert FINGERPRINT_SAMPLES // 2 <= samples <= FINGERPRINT_SAMPLES

    NULLS = (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
        "HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY g EXTRACTING RULES "
        "WITH SUPPORT: 0.3, CONFIDENCE: 0.1"
    )

    @staticmethod
    def _rows(lo, hi):
        """NULLs at sampled positions of every column kind: an int
        column, a string column, a float column and one all NULL."""
        return [
            (
                i % 7,
                None if i % 12 == 0 else f"i{i % 5}",
                None if i % 8 == 0 else i / 4,
                None,
            )
            for i in range(lo, hi)
        ]

    def _db(self, n):
        from repro.sqlengine.types import SqlType

        db = Database()
        db.create_table_from_rows(
            "T", ("g", "item", "price", "note"), self._rows(0, n),
            (SqlType.INTEGER, SqlType.VARCHAR, SqlType.REAL, SqlType.VARCHAR),
        )
        return db

    def _state(self, db, state=None):
        computation = RefreshComputation(
            db, parse_mine_rule(self.NULLS), state, Apriori()
        )
        computation.delta()
        return computation.recount()

    @pytest.mark.parametrize("first, last", [
        (3_001, 3_507),  # same stride (4): the crc is continued
        (1_000, 1_500),  # stride 1 -> 2: hashed again
        (2_048, 2_049),  # stride 2 -> 4 on the first row past 2 048
    ])
    def test_refreshed_fingerprint_equals_a_fresh_capture(self, first, last):
        db = self._db(first)
        captured = self._state(db)
        assert captured.stride == fingerprint_stride(first)
        db.table("T").insert_many(self._rows(first, last))
        refreshed = self._state(db, captured)
        fresh = self._state(db)
        assert refreshed.stride == fresh.stride == fingerprint_stride(last)
        assert refreshed.fingerprint == fresh.fingerprint
        assert refreshed.vertical == fresh.vertical
        # the fingerprint refreshed goes on guarding the prefix it covers
        prices = db.table("T").column_vector(2)
        assert prices.get(0) is None
        prices.data[0] = 99.0
        prices.nulls.remove(0)
        with pytest.raises(SourceMutated, match="fingerprint"):
            self._state(db, refreshed)


class TestRefreshComputation:
    def _capture(self, system):
        statement = parse_mine_rule(SIMPLE)
        computation = RefreshComputation(
            system.db, statement, None, Apriori()
        )
        computation.delta()
        return statement, computation.recount(), computation

    def test_capture_counts_match_bitmaps(self, system):
        _, state, computation = self._capture(system)
        assert len(state.vertical) == 4  # four transactions in Figure 1
        bitmap_of = {
            bid: state.vertical.bitmaps[state.items[tuple(item)]]
            for bid, *item, _ in computation.bset_rows
        }
        assert computation.counts
        for itemset, count in computation.counts.items():
            bits = -1
            for bid in itemset:
                bits &= bitmap_of[bid]
            assert bits.bit_count() == count

    def test_delta_update_matches_recapture(self, system):
        statement, state, _ = self._capture(system)
        append_purchase(system.db, EXTRA)
        computation = RefreshComputation(
            system.db, statement, state, Apriori()
        )
        computation.delta()
        refreshed = computation.recount()
        scratch = RefreshComputation(system.db, statement, None, Apriori())
        scratch.delta()
        recaptured = scratch.recount()
        assert computation.counts == scratch.counts
        assert computation.bset_rows == scratch.bset_rows
        assert list(refreshed.items) == list(recaptured.items)
        assert list(refreshed.groups) == list(recaptured.groups)
        assert refreshed.vertical == recaptured.vertical
        assert computation.stats.delta_rows == len(EXTRA)
        assert computation.stats.new_groups == 2
        # an append builds a new input and leaves the recorded one alone
        assert len(state.vertical) == 4
        assert state.vertical.bitmaps != refreshed.vertical.bitmaps

    def test_shrunk_source_raises(self, system):
        statement, state, _ = self._capture(system)
        shrink_unrecorded(system.db.catalog.get_table("Purchase"))
        computation = RefreshComputation(
            system.db, statement, state, Apriori()
        )
        with pytest.raises(SourceMutated, match="shrank"):
            computation.delta()

    def test_in_place_update_raises(self, system):
        """A value edited in its vector, behind the engine's back (no
        rewrite counted, no row count changed): the sampled fingerprint
        is what notices."""
        statement, state, _ = self._capture(system)
        table = system.db.catalog.get_table("Purchase")
        items = table.column_vector(table.column_index("item"))
        assert items.kind == "str" and items.get(0) == "ski_pants"
        items.data[0] = items.values.index("hiking_boots")
        assert table.rewrites == state.rewrites
        computation = RefreshComputation(
            system.db, statement, state, Apriori()
        )
        with pytest.raises(SourceMutated, match="fingerprint"):
            computation.delta()

    def test_dropped_source_raises(self, system):
        statement, state, _ = self._capture(system)
        system.db.catalog.drop_table("Purchase")
        computation = RefreshComputation(
            system.db, statement, state, Apriori()
        )
        with pytest.raises(SourceMutated):
            computation.delta()

    def test_encode_for_emission_bids_are_dense(self, system):
        """Bset is numbered as Q3b numbers it: Bids 1..n over the items
        of at least ``mingroups`` groups, and every mined itemset is
        made of them."""
        _, _, computation = self._capture(system)
        bset_rows = computation.bset_rows
        bids = [row[0] for row in bset_rows]
        assert bids == list(range(1, len(bids) + 1))
        min_count = computation.stats.min_count
        assert all(row[-1] >= min_count for row in bset_rows)
        for itemset, count in computation.counts.items():
            assert count >= min_count
            assert itemset <= set(bids)
        singletons = {
            next(iter(itemset)): count
            for itemset, count in computation.counts.items()
            if len(itemset) == 1
        }
        assert singletons == {row[0]: row[-1] for row in bset_rows}


class TestSystemRefresh:
    def test_refresh_without_run_raises(self, system):
        with pytest.raises(RefreshError):
            system.refresh("SimpleAssociations")

    def test_refresh_is_bit_identical_to_scratch(self, system):
        system.run(SIMPLE)
        system.refresh("SimpleAssociations")  # captures state
        append_purchase(system.db, EXTRA)
        result = system.refresh("REFRESH RULES SimpleAssociations;")
        assert result.stats.mode == "incremental"
        assert result.stats.delta_rows == len(EXTRA)

        scratch = MiningSystem()
        load_purchase_figure1(scratch.db)
        append_purchase(scratch.db, EXTRA)
        scratch.run(SIMPLE)
        out = "SimpleAssociations"
        for suffix in ("", "_Bodies", "_Heads", "_Display"):
            mine = system.db.catalog.get_table(out + suffix)
            theirs = scratch.db.catalog.get_table(out + suffix)
            assert tuple(mine.columns) == tuple(theirs.columns)
            assert [tuple(r) for r in mine.rows] == [
                tuple(r) for r in theirs.rows
            ]

    def test_empty_delta_refresh_is_stable(self, system):
        system.run(SIMPLE)
        first = system.refresh("SimpleAssociations")
        assert first.stats.mode == "incremental"
        again = system.refresh("SimpleAssociations")
        assert again.stats.delta_rows == 0
        assert again.stats.delta_pairs == 0
        assert sorted(r.key() for r in first.encoded_rules) == sorted(
            r.key() for r in again.encoded_rules
        )

    def test_general_statement_forces_full(self, system):
        system.run(GENERAL)
        result = system.refresh("RichAssoc")
        assert result.stats.mode == "full"
        assert "general core" in result.stats.reason

    def test_mutated_source_forces_full(self, system):
        system.run(SIMPLE)
        system.refresh("SimpleAssociations")  # capture state
        shrink_unrecorded(system.db.catalog.get_table("Purchase"))
        result = system.refresh("SimpleAssociations")
        assert result.stats.mode == "full"
        assert "shrank" in result.stats.reason
        assert result.rules

    def test_engine_update_the_sampled_fingerprint_misses_forces_full(self):
        """4 534 rows hash every 4th: an UPDATE of 343 rows at unsampled
        positions used to leave the crc intact and the refresh
        incremental over stale bitmaps (56 rules; from scratch 12)."""
        statement = SIMPLE.replace("0.25", "0.02").replace("0.5", "0.2")
        system = MiningSystem()
        table = load_purchase_synthetic(system.db, customers=300, seed=19)
        system.run(statement)
        system.refresh("SimpleAssociations")  # capture state
        stride = fingerprint_stride(len(table))
        assert stride > 1
        tr_at, item_at = table.column_index("tr"), table.column_index("item")
        victims = [r[tr_at] for r in table.rows if r[item_at] == "shirt_0"]
        sampled = {
            r[tr_at] for r in table.rows[::stride] if r[item_at] == "shirt_0"
        }
        trs = ", ".join(str(tr) for tr in victims if tr not in sampled)
        updated = system.db.execute(
            "UPDATE Purchase SET item = 'ZZZ' "
            f"WHERE item = 'shirt_0' AND tr IN ({trs})"
        )
        assert updated.rowcount > 300
        table.insert(list(table.rows[-1]))
        result = system.refresh("SimpleAssociations")
        assert result.stats.mode == "full"
        assert "rewritten in place" in result.stats.reason
        scratch = MiningSystem(database=system.db).run(statement)
        assert result.rule_set() == scratch.rule_set()
        # the re-mine re-registered the statement: appends refresh again
        system.refresh("SimpleAssociations")
        table.insert(list(table.rows[-1]))
        assert system.refresh("SimpleAssociations").stats.mode == "incremental"

    def test_dropped_and_recreated_source_forces_full(self, system):
        system.run(SIMPLE)
        system.refresh("SimpleAssociations")
        load_purchase_figure1(system.db)  # same rows, another table object
        append_purchase(system.db, EXTRA)
        result = system.refresh("SimpleAssociations")
        assert result.stats.mode == "full"
        assert "dropped and recreated" in result.stats.reason

    @pytest.mark.parametrize("write", ["row", "columnar"])
    def test_refresh_scans_only_the_increment(self, write):
        """Counts, not wall time: whatever the base size, the relation
        the pairs query scans is the appended rows, appended one row at
        a time or column-wise."""
        scanned = {}
        for customers in (20, 80):
            system = MiningSystem()
            table = load_purchase_synthetic(system.db, customers=customers)
            base = len(table)
            system.run(SIMPLE)
            captured = system.refresh("SimpleAssociations").stats
            assert (captured.watermark, captured.scanned_rows) == (0, base)
            append_purchase(system.db, EXTRA, bulk=write == "columnar")
            stats = system.refresh("SimpleAssociations").stats
            assert stats.mode == "incremental"
            assert stats.watermark == base
            assert stats.scanned_rows == stats.delta_rows == len(EXTRA)
            assert not system.db.catalog.has_table("MR1_Increment")
            empty = system.refresh("SimpleAssociations").stats
            assert (empty.watermark, empty.scanned_rows, empty.delta_rows) == (
                base + len(EXTRA), 0, 0
            )
            scanned[base] = stats.scanned_rows
        assert len(scanned) == 2 and set(scanned.values()) == {len(EXTRA)}

    def test_refresh_stats_reach_the_instant_and_the_journal(self):
        from repro.obs.runlog import RunLog
        from repro.obs.spans import Tracer

        database = Database()
        load_purchase_figure1(database)
        tracer, runlog = Tracer(enabled=True), RunLog()
        system = MiningSystem(database=database, tracer=tracer, runlog=runlog)
        system.run(SIMPLE)
        system.refresh("SimpleAssociations")
        append_purchase(system.db, EXTRA)
        system.refresh("SimpleAssociations")
        system.run(GENERAL)
        system.refresh("RichAssoc")
        capture, delta = [
            i.args for i in tracer.instants if i.name == "refresh.stats"
        ]
        assert (capture["watermark"], capture["scanned_rows"]) == (0, 8)
        assert (delta["watermark"], delta["scanned_rows"]) == (8, len(EXTRA))
        records = [runlog.get(r["id"]) for r in runlog.list(kind="refresh")]
        assert [r["refresh"].get("scanned_rows") for r in records] == [
            8, len(EXTRA), None
        ]
        assert records[1]["refresh"]["watermark"] == 8
        assert records[2]["mode"] == records[2]["refresh"]["mode"] == "full"
        assert "general core" in records[2]["refresh"]["reason"]

    def test_refresh_stats_surface_in_tracer(self):
        from repro.obs.spans import Tracer

        database = Database()
        load_purchase_figure1(database)
        tracer = Tracer(enabled=True)
        system = MiningSystem(database=database, tracer=tracer)
        system.run(SIMPLE)
        append_purchase(system.db, EXTRA)
        system.refresh("SimpleAssociations")
        span_names = [s.name for s in tracer.spans]
        assert "minerule.refresh" in span_names
        assert "refresh.delta" in span_names
        assert "refresh.recount" in span_names
        assert "refresh.stats" in [i.name for i in tracer.instants]

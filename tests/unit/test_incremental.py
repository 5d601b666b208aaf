"""Unit tests for FUP-style incremental maintenance
(:mod:`repro.incremental`) and the REFRESH RULES verb."""

import datetime

import pytest

from repro import Database, MiningSystem
from repro.algorithms.base import FrequentItemsetMiner
from repro.datagen import load_purchase_figure1, load_purchase_synthetic
from repro.incremental import (
    FINGERPRINT_SAMPLES,
    MiningState,
    RefreshComputation,
    RefreshError,
    SourceMutated,
    encode_for_emission,
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


def append_purchase(db, rows):
    table = db.catalog.get_table("Purchase")
    for row in rows:
        table.insert(list(row))


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
            "SELECT DISTINCT item, tr FROM MR_Increment Purchase"
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


class TestAprioriCandidates:
    """The generator :meth:`RefreshComputation.recount` shares with the
    pool (its private copy is gone)."""

    join = staticmethod(FrequentItemsetMiner.join_candidates)

    def test_prefix_join(self):
        assert self.join([(1,), (2,), (5,)]) == [(1, 2), (1, 5), (2, 5)]

    def test_subset_prune(self):
        # (1,2,3) needs {2,3} frequent — it is not, so no candidates
        assert self.join([(1, 2), (1, 3)]) == []
        assert self.join([(1, 2), (1, 3), (2, 3)]) == [(1, 2, 3)]


class TestRefreshComputation:
    def _capture(self, system):
        statement = parse_mine_rule(SIMPLE)
        computation = RefreshComputation(system.db, statement, None)
        computation.delta()
        return statement, computation.recount()

    def test_capture_counts_match_bitmaps(self, system):
        _, state = self._capture(system)
        assert state.totg == 4  # four transactions in Figure 1
        for itemset, count in state.counts.items():
            bits = -1
            for index in itemset:
                bits &= state.masks[index]
            mask = (1 << state.totg) - 1
            assert (bits & mask).bit_count() == count

    def test_state_is_frequent_union_border(self, system):
        _, state = self._capture(system)
        frequent = state.frequent()
        assert frequent
        border = set(state.counts) - set(frequent)
        # every border itemset has all proper subsets frequent
        for itemset in border:
            for member in itemset:
                subset = itemset - {member}
                if subset:
                    assert subset in frequent

    def test_delta_update_matches_recapture(self, system):
        statement, state = self._capture(system)
        append_purchase(system.db, EXTRA)
        computation = RefreshComputation(system.db, statement, state)
        computation.delta()
        refreshed = computation.recount()
        scratch = RefreshComputation(system.db, statement, None)
        scratch.delta()
        recaptured = scratch.recount()
        assert refreshed.counts == recaptured.counts
        assert list(refreshed.items) == list(recaptured.items)
        assert list(refreshed.groups) == list(recaptured.groups)
        assert refreshed.masks == recaptured.masks
        assert computation.stats.delta_rows == len(EXTRA)
        assert computation.stats.new_groups == 2

    def test_shrunk_source_raises(self, system):
        statement, state = self._capture(system)
        system.db.catalog.get_table("Purchase").rows.pop()
        computation = RefreshComputation(system.db, statement, state)
        with pytest.raises(SourceMutated):
            computation.delta()

    def test_in_place_update_raises(self, system):
        statement, state = self._capture(system)
        rows = system.db.catalog.get_table("Purchase").rows
        rows[0] = tuple(
            ["mink_coat" if v == "ski_pants" else v for v in rows[0]]
        )
        computation = RefreshComputation(system.db, statement, state)
        with pytest.raises(SourceMutated):
            computation.delta()

    def test_dropped_source_raises(self, system):
        statement, state = self._capture(system)
        system.db.catalog.drop_table("Purchase")
        computation = RefreshComputation(system.db, statement, state)
        with pytest.raises(SourceMutated):
            computation.delta()

    def test_encode_for_emission_bids_are_dense(self, system):
        _, state = self._capture(system)
        bset_rows, counts_by_bid = encode_for_emission(state)
        bids = [row[0] for row in bset_rows]
        assert bids == list(range(1, len(bids) + 1))
        frequent_singletons = {
            frozenset((row[0],)) for row in bset_rows
        }
        for itemset, count in counts_by_bid.items():
            assert count >= state.min_count
            for bid in itemset:
                assert frozenset((bid,)) in frequent_singletons


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
        table = system.db.catalog.get_table("Purchase")
        table.rows.pop()  # delete in place: not append-only
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

    @pytest.mark.parametrize("storage", ["row", "columnar"])
    def test_refresh_scans_only_the_increment(self, storage):
        """Counts, not wall time: whatever the base size, the relation
        the pairs query scans is the appended rows."""
        scanned = {}
        for customers in (20, 80):
            system = MiningSystem()
            system.db.storage_hints["purchase"] = storage
            table = load_purchase_synthetic(system.db, customers=customers)
            base = len(table)
            system.run(SIMPLE)
            captured = system.refresh("SimpleAssociations").stats
            assert (captured.watermark, captured.scanned_rows) == (0, base)
            append_purchase(system.db, EXTRA)
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

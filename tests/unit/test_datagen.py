"""Workload generator tests."""

import datetime
import hashlib
import random
from itertools import accumulate

import pytest

from repro.datagen import (
    QuestParameters,
    figure1_rows,
    generate_quest,
    load_clickstream,
    load_purchase_figure1,
    load_purchase_synthetic,
    load_quest,
    load_telecom,
)
from repro.datagen.quest import _exponential_weights, _weighted_choice
from repro.sqlengine import Database


class TestFigure1Generator:
    def test_eight_rows(self):
        assert len(figure1_rows()) == 8

    def test_values_match_paper(self):
        rows = figure1_rows()
        assert rows[0] == (
            1, "cust1", "ski_pants", datetime.date(1995, 12, 17), 140.0, 1,
        )
        assert rows[-1] == (
            4, "cust2", "jackets", datetime.date(1995, 12, 19), 300.0, 2,
        )

    def test_load_replaces_existing(self, db):
        load_purchase_figure1(db)
        load_purchase_figure1(db)
        assert len(db.table("Purchase")) == 8


class TestSyntheticPurchase:
    def test_row_shape(self, db):
        table = load_purchase_synthetic(db, customers=10, seed=1)
        assert table.columns == (
            "tr", "customer", "item", "date", "price", "qty",
        )
        assert len(table) > 10

    def test_deterministic_per_seed(self, db):
        a = load_purchase_synthetic(db, customers=5, seed=2,
                                    table_name="A").rows
        b = load_purchase_synthetic(db, customers=5, seed=2,
                                    table_name="B").rows
        assert a == b

    def test_different_seeds_differ(self, db):
        a = load_purchase_synthetic(db, customers=5, seed=2,
                                    table_name="A").rows
        b = load_purchase_synthetic(db, customers=5, seed=3,
                                    table_name="B").rows
        assert a != b

    def test_prices_are_stable_per_item(self, db):
        load_purchase_synthetic(db, customers=20, seed=4)
        rows = db.query("SELECT item, COUNT(DISTINCT price) FROM Purchase "
                        "GROUP BY item")
        assert all(count == 1 for _, count in rows)

    def test_customer_count_respected(self, db):
        load_purchase_synthetic(db, customers=7, seed=5)
        count = db.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT customer FROM Purchase)"
        ).scalar()
        assert count == 7

    def test_dates_within_range(self, db):
        start = datetime.date(1995, 6, 1)
        load_purchase_synthetic(db, customers=5, days=3, seed=6,
                                start_date=start)
        dates = {d for (d,) in db.query("SELECT DISTINCT date FROM Purchase")}
        assert all(start <= d < start + datetime.timedelta(days=3)
                   for d in dates)


class TestQuestGenerator:
    def test_transaction_count(self):
        baskets = generate_quest(QuestParameters(transactions=50, seed=1))
        assert len(baskets) == 50

    def test_deterministic(self):
        params = QuestParameters(transactions=30, seed=9)
        assert generate_quest(params) == generate_quest(params)

    def test_item_ids_within_range(self):
        params = QuestParameters(transactions=40, items=25, seed=2)
        baskets = generate_quest(params)
        assert all(
            0 <= item < 25 for basket in baskets.values() for item in basket
        )

    def test_no_empty_baskets(self):
        baskets = generate_quest(QuestParameters(transactions=60, seed=3))
        assert all(basket for basket in baskets.values())

    def test_average_size_tracks_parameter(self):
        params = QuestParameters(
            transactions=400, avg_transaction_size=8.0, seed=4
        )
        baskets = generate_quest(params)
        average = sum(len(b) for b in baskets.values()) / len(baskets)
        assert 4.0 < average < 14.0

    def test_name_label(self):
        assert (
            QuestParameters(
                transactions=1000, avg_transaction_size=10,
                avg_pattern_size=4,
            ).name()
            == "T10.I4.D1000"
        )

    def test_load_quest_table(self, db):
        load_quest(db, QuestParameters(transactions=20, seed=5))
        assert db.table("Baskets").columns == ("tid", "item")
        tids = db.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT tid FROM Baskets)"
        ).scalar()
        assert tids == 20


class TestWeightedChoice:
    class _Draw:
        """An rng whose every draw is *value*."""

        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    def test_a_draw_equal_to_a_sum_takes_that_index(self):
        cumulative = [0.25, 0.5, 0.75, 0.9999]
        assert _weighted_choice(cumulative, self._Draw(0.0)) == 0
        assert _weighted_choice(cumulative, self._Draw(0.25)) == 0
        assert _weighted_choice(cumulative, self._Draw(0.5)) == 1
        assert _weighted_choice(cumulative, self._Draw(0.5000001)) == 2

    def test_a_draw_above_the_last_sum_takes_the_last_index(self):
        cumulative = [0.25, 0.5, 0.75, 0.9999]
        assert _weighted_choice(cumulative, self._Draw(0.99995)) == 3

    def test_matches_a_scan_of_the_running_sums(self):
        rng = random.Random(3)
        weights = _exponential_weights(200, rng)
        cumulative = list(accumulate(weights))
        for _ in range(2000):
            target = rng.random()
            running, expected = 0.0, len(weights) - 1
            for index, weight in enumerate(weights):
                running += weight
                if target <= running:
                    expected = index
                    break
            assert _weighted_choice(cumulative, self._Draw(target)) == expected


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


#: rows past several bulk-load chunks in every loaded table below
PINNED_QUEST = QuestParameters(
    transactions=1000, avg_transaction_size=10, avg_pattern_size=4,
    patterns=200, items=400, seed=19,
)


class TestPinnedStreams:
    """Every generator yields the same rows in the same order: digests
    of what each one gave before the loaders streamed their rows."""

    def test_generate_quest(self):
        baskets = generate_quest(PINNED_QUEST)
        assert _digest(
            sorted((tid, sorted(basket)) for tid, basket in baskets.items())
        ) == "3b73afebc1216ad2"

    @pytest.mark.parametrize("load, rows, digest", [
        (lambda db: load_quest(db, PINNED_QUEST), 11039, "8604a0bc2eab2c13"),
        (lambda db: load_purchase_synthetic(db, customers=400, seed=19),
         6075, "20bf254012f7da0b"),
        (lambda db: load_clickstream(db, users=300, seed=19),
         5381, "161de39bf504dc6a"),
        (lambda db: load_telecom(db, subscribers=200, seed=19),
         4272, "12a880aa0badf5f0"),
    ], ids=["quest", "purchase", "clickstream", "telecom"])
    def test_loaded_rows(self, db, load, rows, digest):
        table = load(db)
        assert len(table) == rows
        assert _digest(table.rows) == digest

    def test_dictionaries_in_first_appearance_order(self, db):
        for table, digest in (
            (load_quest(db, PINNED_QUEST), "64558d9fccadc50d"),
            (load_clickstream(db, users=300, seed=19), "9d86d8e5893783f4"),
        ):
            assert _digest(
                [table.column_vector(i).values for i in range(table.arity)]
            ) == digest


class TestClickstream:
    def test_schema(self, db):
        table = load_clickstream(db, users=5, seed=1)
        assert table.columns == (
            "session", "usr", "page", "section", "minute", "dwell",
        )

    def test_user_count(self, db):
        load_clickstream(db, users=6, seed=2)
        users = db.execute(
            "SELECT COUNT(*) FROM (SELECT DISTINCT usr FROM Clicks)"
        ).scalar()
        assert users == 6

    def test_sessions_start_at_home(self, db):
        load_clickstream(db, users=4, seed=3)
        firsts = db.query(
            "SELECT section FROM Clicks WHERE minute = 0"
        )
        assert all(section == "home" for (section,) in firsts)

    def test_minutes_increase_within_session(self, db):
        load_clickstream(db, users=3, seed=4)
        rows = db.query("SELECT session, minute FROM Clicks")
        by_session = {}
        for session, minute in rows:
            by_session.setdefault(session, []).append(minute)
        for minutes in by_session.values():
            assert minutes == sorted(minutes)

    def test_page_names_match_sections(self, db):
        load_clickstream(db, users=3, seed=5)
        for page, section in db.query(
            "SELECT DISTINCT page, section FROM Clicks"
        ):
            assert page.startswith(section + "_")


class TestTelecom:
    def test_schema(self, db):
        from repro.datagen import load_telecom

        table = load_telecom(db, subscribers=10, days=2, seed=1)
        assert table.columns == (
            "caller", "callee", "cdate", "hour", "duration", "cost",
            "calltype",
        )

    def test_deterministic(self, db):
        from repro.datagen import load_telecom

        a = load_telecom(db, subscribers=8, seed=2, table_name="A").rows
        b = load_telecom(db, subscribers=8, seed=2, table_name="B").rows
        assert a == b

    def test_premium_calls_target_services(self, db):
        from repro.datagen import load_telecom

        load_telecom(db, subscribers=20, days=5, seed=3,
                     premium_fraction=0.3)
        rows = db.query(
            "SELECT DISTINCT callee FROM Calls WHERE calltype = 'premium'"
        )
        assert rows
        assert all(callee.startswith("svc") for (callee,) in rows)

    def test_cost_consistent_with_duration_and_type(self, db):
        from repro.datagen import load_telecom
        from repro.datagen.telecom import _RATES

        load_telecom(db, subscribers=10, days=3, seed=4)
        for duration, cost, calltype in db.query(
            "SELECT duration, cost, calltype FROM Calls"
        ):
            assert cost == round(duration * _RATES[calltype], 2)

    def test_social_circles_overlap(self, db):
        from repro.datagen import load_telecom

        load_telecom(db, subscribers=30, days=7, seed=5)
        # some callee must be shared by several callers (the overlap
        # that makes circle rules minable)
        rows = db.query(
            "SELECT callee, COUNT(DISTINCT caller) AS n FROM Calls "
            "WHERE calltype <> 'premium' GROUP BY callee "
            "HAVING COUNT(DISTINCT caller) >= 3"
        )
        assert rows


class TestDriftAppends:
    def test_batches_and_schema(self):
        from repro.datagen import iter_drift_appends

        batches = list(iter_drift_appends(batches=3, seed=9))
        assert len(batches) == 3
        for batch in batches:
            for row in batch:
                assert len(row) == 6  # Purchase schema width
                tr, customer, item, date, price, qty = row
                assert isinstance(tr, int)
                assert isinstance(date, datetime.date)

    def test_transaction_ids_continue_from_start_tr(self):
        from repro.datagen import iter_drift_appends

        batches = list(
            iter_drift_appends(batches=2, start_tr=100, seed=9)
        )
        trs = [row[0] for batch in batches for row in batch]
        assert min(trs) == 101
        assert trs == sorted(trs)

    def test_deterministic(self):
        from repro.datagen import iter_drift_appends

        a = list(iter_drift_appends(batches=2, seed=11))
        b = list(iter_drift_appends(batches=2, seed=11))
        assert a == b

    def test_popularity_drifts_between_batches(self):
        from collections import Counter

        from repro.datagen import iter_drift_appends

        def top5(rows):
            counts = Counter(row[2] for row in rows)
            return {item for item, _ in counts.most_common(5)}

        first, last = list(
            iter_drift_appends(
                batches=4, transactions_per_batch=80, drift=0.25,
                seed=13,
            )
        )[:: 3]
        # the popular head moves: early and late batches disagree
        assert top5(first) != top5(last)

    def test_invalid_batches_rejected(self):
        from repro.datagen import iter_drift_appends

        with pytest.raises(ValueError):
            list(iter_drift_appends(batches=0))


class TestBurstAppends:
    def test_batches_and_schema(self):
        from repro.datagen import iter_burst_appends

        bursts = list(iter_burst_appends(bursts=3, seed=9))
        assert len(bursts) == 3
        for rows in bursts:
            for row in rows:
                assert len(row) == 7  # Calls schema width
                caller, callee, cdate, hour, duration, cost, ct = row
                assert caller.startswith("sub")
                assert isinstance(cdate, datetime.date)
                assert 0 <= hour <= 23

    def test_premium_heavy_traffic(self):
        from repro.datagen import iter_burst_appends

        rows = [
            row
            for rows in iter_burst_appends(
                bursts=3, premium_fraction=0.6, seed=5
            )
            for row in rows
        ]
        premium = [r for r in rows if r[6] == "premium"]
        assert len(premium) > len(rows) // 4
        assert all(r[1].startswith("svc") for r in premium)

    def test_one_day_per_burst(self):
        from repro.datagen import iter_burst_appends

        bursts = list(iter_burst_appends(bursts=3, seed=7))
        days = [
            {row[2] for row in rows} for rows in bursts
        ]
        assert all(len(d) == 1 for d in days)
        assert len(set().union(*days)) == 3

    def test_deterministic(self):
        from repro.datagen import iter_burst_appends

        a = list(iter_burst_appends(bursts=2, seed=3))
        b = list(iter_burst_appends(bursts=2, seed=3))
        assert a == b

    def test_invalid_bursts_rejected(self):
        from repro.datagen import iter_burst_appends

        with pytest.raises(ValueError):
            list(iter_burst_appends(bursts=0))

"""Persistence (dump/load) and rule-quality metric tests."""

import datetime
import math

import pytest

from repro import MiningSystem
from repro.datagen import load_purchase_figure1
from repro.sqlengine import Database
from repro.sqlengine.dump import dump_database, load_database


class TestDumpLoad:
    @pytest.fixture
    def populated(self):
        db = Database()
        load_purchase_figure1(db)
        db.execute("CREATE VIEW cheap AS (SELECT item FROM Purchase "
                   "WHERE price < 100)")
        db.execute("CREATE SEQUENCE ids")
        db.execute("SELECT ids.NEXTVAL")  # advance to 2
        db.execute("CREATE INDEX pidx ON Purchase (customer)")
        db.execute("SELECT COUNT(*) INTO :n FROM Purchase")
        return db

    def test_roundtrip_tables(self, populated, tmp_path):
        dump_database(populated, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        assert restored.query(
            "SELECT tr, customer, item, date, price, qty FROM Purchase"
        ) == populated.query(
            "SELECT tr, customer, item, date, price, qty FROM Purchase"
        )

    def test_roundtrip_preserves_types(self, populated, tmp_path):
        dump_database(populated, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        row = restored.query("SELECT date, price, qty FROM Purchase "
                             "WHERE tr = 1")[0]
        assert isinstance(row[0], datetime.date)
        assert isinstance(row[1], float)
        assert isinstance(row[2], int)

    def test_roundtrip_views_work(self, populated, tmp_path):
        dump_database(populated, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        assert len(restored.query("SELECT * FROM cheap")) == 2

    def test_roundtrip_sequence_continues(self, populated, tmp_path):
        dump_database(populated, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        assert restored.execute("SELECT ids.NEXTVAL").scalar() == 2

    def test_roundtrip_variables(self, populated, tmp_path):
        dump_database(populated, tmp_path / "dump")
        restored = load_database(tmp_path / "dump")
        assert restored.variables["n"] == 8

    def test_nulls_and_special_strings(self, tmp_path):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute("INSERT INTO t VALUES (NULL, 'tab\there')")
        db.execute("INSERT INTO t VALUES (1, :s)", {"s": "back\\slash"})
        db.execute("INSERT INTO t VALUES (2, :s)", {"s": "\\N"})
        dump_database(db, tmp_path / "d")
        restored = load_database(tmp_path / "d")
        assert restored.query("SELECT a, b FROM t") == db.query(
            "SELECT a, b FROM t"
        )

    def test_corrupt_row_count_detected(self, populated, tmp_path):
        target = dump_database(populated, tmp_path / "dump")
        tsv = target / "Purchase.tsv"
        lines = tsv.read_text().splitlines()
        tsv.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_database(target)

    def test_mining_results_survive_dump(self, tmp_path):
        system = MiningSystem()
        load_purchase_figure1(system.db)
        system.execute(
            "MINE RULE Kept AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.9"
        )
        dump_database(system.db, tmp_path / "session")
        restored = load_database(tmp_path / "session")
        assert restored.execute("SELECT COUNT(*) FROM Kept").scalar() > 0
        assert restored.query("SELECT BODY FROM Kept_Display") \
            == system.db.query("SELECT BODY FROM Kept_Display")


class TestMetrics:
    @pytest.fixture
    def executed(self):
        system = MiningSystem()
        load_purchase_figure1(system.db)
        result = system.execute(
            "MINE RULE M AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5"
        )
        return system, result

    def test_metrics_computed_for_every_rule(self, executed):
        system, result = executed
        metrics = system.compute_metrics(result, store=False)
        assert len(metrics) == len(result.rules)

    def test_lift_matches_direct_computation(self, executed):
        system, result = executed
        metrics = system.compute_metrics(result, store=False)
        totg = system.db.variables["totg"]
        for m in metrics:
            head_support = m.head_count / totg
            assert math.isclose(m.lift, m.rule.confidence / head_support)

    def test_leverage_bounds(self, executed):
        system, result = executed
        for m in system.compute_metrics(result, store=False):
            assert -0.25 <= m.leverage <= 0.25 + 1e-9

    def test_conviction_none_iff_confidence_one(self, executed):
        system, result = executed
        for m in system.compute_metrics(result, store=False):
            if m.rule.confidence >= 1.0 - 1e-12:
                assert m.conviction is None
            else:
                assert m.conviction is not None and m.conviction >= 0

    def test_metrics_stored_and_joinable(self, executed):
        system, result = executed
        system.compute_metrics(result, store=True)
        rows = system.db.query(
            "SELECT R.SUPPORT, X.LIFT FROM M R, M_Metrics X "
            "WHERE R.BodyId = X.BodyId AND R.HeadId = X.HeadId"
        )
        assert len(rows) == len(result.rules)

    def test_independent_items_have_lift_one(self):
        # 4 groups; x and y co-occur exactly at independence:
        # supp(x)=0.5, supp(y)=0.5, supp(xy)=0.25
        system = MiningSystem()
        system.db.create_table_from_rows(
            "T",
            ("g", "item"),
            [(1, "x"), (1, "y"), (2, "x"), (3, "y"), (4, "z")],
        )
        result = system.execute(
            "MINE RULE L AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1"
        )
        metrics = {
            (tuple(sorted(m.rule.body)), tuple(sorted(m.rule.head))): m
            for m in system.compute_metrics(result, store=False)
        }
        # decode: find encoded ids through the decoded rules
        for m in metrics.values():
            assert m.lift > 0
        # the x => y rule has confidence 0.5 and head support 0.5
        one = [
            m for m in metrics.values()
            if math.isclose(m.rule.confidence, 0.5)
            and math.isclose(m.lift, 1.0)
        ]
        assert one  # independence detected

    @pytest.mark.parametrize("name", ["filtered_ordered_sets", "ordered_sets"])
    def test_clustered_head_counts_match_the_source(self, name):
        """A general statement: a group counts for a head iff all of
        its items were bought on one date (one head cluster) — counted
        here straight from Purchase, without the encoded tables."""
        from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

        system = MiningSystem()
        load_purchase_figure1(system.db)
        result = system.execute(GOLDEN_STATEMENTS[name])
        assert not result.program.core.simple and result.program.core.clustered
        metrics = system.compute_metrics(result, store=False)
        assert metrics and len(metrics) == len(result.rules)

        where = (
            " WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'"
            if "WHERE date" in GOLDEN_STATEMENTS[name] else ""
        )
        baskets = {}
        for customer, date, item in system.db.query(
            f"SELECT customer, date, item FROM Purchase{where}"
        ):
            baskets.setdefault((customer, date), set()).add(item)
        item_of = dict(system.db.query(
            f"SELECT Bid, item FROM {result.program.workspace.bset}"
        ))
        for m in metrics:
            head = {item_of[hid] for hid in m.rule.head}
            customers = {c for (c, _), items in baskets.items() if head <= items}
            assert m.head_count == len(customers), m.rule
            totg = system.db.variables["totg"]
            assert math.isclose(m.lift, m.rule.confidence * totg / m.head_count)

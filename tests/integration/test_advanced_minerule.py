"""Advanced MINE RULE semantics: multi-attribute partitions, cross-side
mining conditions, cardinality interplay, and failure injection."""

import datetime

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.minerule import MineRuleValidationError
from repro.sqlengine.types import SqlType


def make_system(rows, columns, types=None, table="T"):
    db = Database()
    db.create_table_from_rows(table, columns, rows, types)
    return MiningSystem(database=db)


class TestCrossSideMiningConditions:
    """Mining conditions comparing BODY and HEAD attributes."""

    @pytest.fixture
    def system(self):
        rows = [
            (1, "a", 10), (1, "b", 20), (1, "c", 30),
            (2, "a", 10), (2, "b", 20), (2, "c", 30),
            (3, "a", 10), (3, "c", 30),
        ]
        return make_system(
            rows,
            ("grp", "item", "price"),
            (SqlType.INTEGER, SqlType.VARCHAR, SqlType.INTEGER),
        )

    def test_body_cheaper_than_head(self, system):
        result = system.execute(
            "MINE RULE Up AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
            "WHERE BODY.price < HEAD.price FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1"
        )
        prices = {"a": 10, "b": 20, "c": 30}
        assert result.rules
        for rule in result.rules:
            body = next(iter(rule.body))
            head = next(iter(rule.head))
            assert prices[body] < prices[head]

    def test_price_difference_condition(self, system):
        result = system.execute(
            "MINE RULE Far AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
            "WHERE HEAD.price - BODY.price >= 20 FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.1"
        )
        keys = {
            (next(iter(r.body)), next(iter(r.head))) for r in result.rules
        }
        assert keys == {("a", "c")}

    def test_composite_bodies_respect_pairwise_condition(self, system):
        result = system.execute(
            "MINE RULE Multi AS SELECT DISTINCT 1..2 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
            "WHERE BODY.price < HEAD.price FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        # {a,b} => c requires both a<c and b<c: present
        keys = {
            (tuple(sorted(r.body)), next(iter(r.head)))
            for r in result.rules
        }
        assert (("a", "b"), "c") in keys
        # {b,c} => anything is impossible (c is the maximum)
        assert not any(body == ("b", "c") for body, _ in keys)


class TestMultiAttributePartitions:
    @pytest.fixture
    def system(self):
        rows = [
            # grp, region, day, item
            (1, "north", 1, "x"), (1, "north", 2, "y"),
            (1, "south", 1, "x"), (1, "south", 2, "z"),
            (2, "north", 1, "x"), (2, "north", 2, "y"),
        ]
        return make_system(
            rows,
            ("grp", "region", "day", "item"),
            (SqlType.INTEGER, SqlType.VARCHAR, SqlType.INTEGER,
             SqlType.VARCHAR),
        )

    def test_two_attribute_cluster_by(self, system):
        result = system.execute(
            "MINE RULE RC AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "CLUSTER BY region, day "
            "HAVING BODY.region = HEAD.region AND BODY.day < HEAD.day "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        keys = {
            (next(iter(r.body)), next(iter(r.head))) for r in result.rules
        }
        # within north: day1 x -> day2 y in both groups
        assert ("x", "y") in keys
        # within south (group 1): day1 x -> day2 z
        assert ("x", "z") in keys
        # y -> z crosses regions (north day2 -> south day2): excluded
        assert ("y", "z") not in keys

    def test_cluster_encoding_carries_both_attributes(self, system):
        result = system.execute(
            "MINE RULE RC2 AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "CLUSTER BY region, day "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        names = result.program.workspace
        table = system.db.table(names.clusters)
        assert "region" in [c.lower() for c in table.columns]
        assert "day" in [c.lower() for c in table.columns]


class TestCardinalityInterplay:
    @pytest.fixture
    def system(self):
        rows = [
            (g, item)
            for g in (1, 2, 3)
            for item in ("a", "b", "c", "d")
        ]
        return make_system(
            rows, ("grp", "item"), (SqlType.INTEGER, SqlType.VARCHAR)
        )

    def test_exact_cardinalities(self, system):
        result = system.execute(
            "MINE RULE C22 AS SELECT DISTINCT 2..2 item AS BODY, "
            "2..2 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 1.0, CONFIDENCE: 0.1"
        )
        assert result.rules
        assert all(
            len(r.body) == 2 and len(r.head) == 2 for r in result.rules
        )

    def test_body_min_greater_than_one(self, system):
        result = system.execute(
            "MINE RULE C31 AS SELECT DISTINCT 3..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 1.0, CONFIDENCE: 0.1"
        )
        assert result.rules
        assert all(len(r.body) == 3 for r in result.rules)

    def test_impossible_cardinality_yields_empty(self, system):
        result = system.execute(
            "MINE RULE C5 AS SELECT DISTINCT 5..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        assert result.rules == []


class TestGroupAndClusterCombined:
    def test_group_having_with_clusters(self):
        rows = [
            (1, 1, "a"), (1, 2, "b"),
            (2, 1, "a"), (2, 2, "b"),
            (3, 1, "a"),  # group 3 has only 1 tuple
        ]
        system = make_system(
            rows, ("grp", "step", "item"),
            (SqlType.INTEGER, SqlType.INTEGER, SqlType.VARCHAR),
        )
        result = system.execute(
            "MINE RULE GC AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T "
            "GROUP BY grp HAVING COUNT(*) >= 2 "
            "CLUSTER BY step HAVING BODY.step < HEAD.step "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        assert result.directives.G and result.directives.K
        keys = {
            (next(iter(r.body)), next(iter(r.head))) for r in result.rules
        }
        assert keys == {("a", "b")}
        rule = result.rules[0]
        # support over ALL 3 groups (totg from Q1), found in 2
        assert rule.support == pytest.approx(2 / 3)


class TestMiningConditionRewrite:
    """The translator rewrites a mining condition onto the encoded
    tables; every part of it survives: a LIKE's ESCAPE (it was dropped,
    so ``'ski!_pants'`` matched nothing) and the left operand of
    ``IN (subquery)`` (it was left as ``BODY.item``, an unknown column
    in the emitted query)."""

    @staticmethod
    def mine(condition):
        database = Database()
        load_purchase_figure1(database)
        return MiningSystem(database=database).execute(
            "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
            f"WHERE {condition} FROM Purchase GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        ).rules

    def test_like_keeps_its_escape(self):
        rules = self.mine("BODY.item LIKE 'ski!_pants' ESCAPE '!'")
        assert len(rules) == 2
        assert rules == self.mine("BODY.item = 'ski_pants'")

    def test_in_subquery_operand_is_requalified(self):
        # each item of Figure 1 has one price
        rules = self.mine(
            "BODY.item IN (SELECT item FROM Purchase WHERE price > 150)"
        )
        assert len(rules) == 7
        assert rules == self.mine("BODY.price > 150")


class TestFailureInjection:
    def test_type_error_in_mining_condition_surfaces(self):
        system = make_system(
            [(1, "a", "oops")], ("grp", "item", "price"),
            (SqlType.INTEGER, SqlType.VARCHAR, SqlType.VARCHAR),
        )
        from repro.sqlengine.errors import SqlTypeError

        with pytest.raises(SqlTypeError):
            system.execute(
                "MINE RULE F AS SELECT DISTINCT 1..1 item AS BODY, "
                "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
                "WHERE BODY.price > 10 AND HEAD.price > 10 "
                "FROM T GROUP BY grp "
                "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
            )

    def test_failed_preprocessing_leaves_system_usable(self):
        system = make_system(
            [(1, "a", "oops"), (1, "b", "x")], ("grp", "item", "price"),
            (SqlType.INTEGER, SqlType.VARCHAR, SqlType.VARCHAR),
        )
        from repro.sqlengine.errors import SqlTypeError

        with pytest.raises(SqlTypeError):
            system.execute(
                "MINE RULE F AS SELECT DISTINCT 1..1 item AS BODY, "
                "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
                "WHERE BODY.price > 10 AND HEAD.price > 10 "
                "FROM T GROUP BY grp "
                "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
            )
        # a subsequent valid statement still runs (stale working tables
        # are dropped by the next setup program)
        ok = system.execute(
            "MINE RULE OK AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
        )
        assert ok.rules

    def test_nulls_in_partition_attributes(self):
        # a row with a NULL group key belongs to no group (DESIGN.md
        # section 3): it is neither counted nor mined
        rows = [(None, "a"), (None, "b"), (1, "a"), (1, "b")]
        system = make_system(
            rows, ("grp", "item"), (SqlType.INTEGER, SqlType.VARCHAR)
        )
        result = system.execute(
            "MINE RULE N AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM T GROUP BY grp "
            "EXTRACTING RULES WITH SUPPORT: 0.4, CONFIDENCE: 0.1"
        )
        assert system.db.variables["totg"] == 1
        assert {
            (tuple(rule.body), tuple(rule.head), rule.support)
            for rule in result.rules
        } == {(("a",), ("b",), 1.0), (("b",), ("a",), 1.0)}

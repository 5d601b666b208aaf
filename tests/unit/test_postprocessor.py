"""Postprocessor tests: the normalized three-table output format."""

import pytest

from repro import MiningSystem
from repro.kernel.postprocessor import DecodedRule, render_itemset

SIMPLE = """
MINE RULE Normalized AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY customer
EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5
"""


@pytest.fixture
def executed(system):
    return system, system.execute(SIMPLE)


class TestNormalizedOutput:
    def test_main_table_schema(self, executed):
        system, _ = executed
        table = system.db.table("Normalized")
        assert table.columns == ("BodyId", "HeadId", "SUPPORT", "CONFIDENCE")

    def test_support_column_omitted_when_not_selected(self, system):
        system.execute(
            SIMPLE.replace(", SUPPORT, CONFIDENCE", ", CONFIDENCE").replace(
                "Normalized", "NoSupport"
            )
        )
        assert system.db.table("NoSupport").columns == (
            "BodyId",
            "HeadId",
            "CONFIDENCE",
        )

    def test_neither_measure_selected(self, system):
        system.execute(
            SIMPLE.replace(", SUPPORT, CONFIDENCE", "").replace(
                "Normalized", "Bare"
            )
        )
        assert system.db.table("Bare").columns == ("BodyId", "HeadId")

    def test_identical_bodies_share_one_id(self, executed):
        system, result = executed
        pairs = system.db.query("SELECT BodyId, Bid FROM MR1_OutputBodies")
        memberships = {}
        for body_id, bid in pairs:
            memberships.setdefault(body_id, set()).add(bid)
        # no two BodyIds map to the same itemset
        as_sets = [frozenset(v) for v in memberships.values()]
        assert len(as_sets) == len(set(as_sets))

    def test_every_rule_references_valid_ids(self, executed):
        system, _ = executed
        body_ids = {
            i for (i,) in system.db.query(
                "SELECT DISTINCT BodyId FROM MR1_OutputBodies")
        }
        head_ids = {
            i for (i,) in system.db.query(
                "SELECT DISTINCT HeadId FROM MR1_OutputHeads")
        }
        for body_id, head_id in system.db.query(
            "SELECT BodyId, HeadId FROM Normalized"
        ):
            assert body_id in body_ids
            assert head_id in head_ids

    def test_decoded_bodies_match_rules(self, executed):
        system, result = executed
        decoded_bodies = {}
        for body_id, item in system.db.query(
            "SELECT BodyId, item FROM Normalized_Bodies"
        ):
            decoded_bodies.setdefault(body_id, set()).add(item)
        rule_bodies = {frozenset(r.body) for r in result.rules}
        assert {frozenset(v) for v in decoded_bodies.values()} == rule_bodies

    def test_display_table_sorted_and_braced(self, executed):
        system, _ = executed
        rows = system.db.query("SELECT BODY, HEAD FROM Normalized_Display")
        assert rows == sorted(rows)
        assert all(b.startswith("{") and b.endswith("}") for b, _ in rows)

    def test_decoded_rule_str(self):
        rule = DecodedRule(
            body=frozenset({"a"}), head=frozenset({"b"}),
            support=0.5, confidence=1.0,
        )
        assert "{a} => {b}" in str(rule)


class TestItemRendering:
    def test_single_attribute(self):
        assert render_itemset([1, 2], {1: "b", 2: "a"}) == "{a,b}"

    def test_composite_items(self):
        decoder = {1: ("boots", 150.0)}
        assert render_itemset([1], decoder) == "{(boots,150.0)}"


class TestCompositeSchemas:
    def test_two_attribute_body_schema(self, system):
        result = system.execute(
            "MINE RULE Pairs AS SELECT DISTINCT item, price AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5"
        )
        assert result.directives.H  # different schemas
        # body items decode to (item, price) tuples
        assert all(
            isinstance(next(iter(r.body)), tuple) for r in result.rules
        )
        bodies_table = system.db.table("Pairs_Bodies")
        assert bodies_table.columns == ("BodyId", "item", "price")


class TestItemTableReads:
    """Bset and Hset are read once per statement: ``decode`` reads the
    item decoders, builds the display table with them and hands them on
    to ``decoded_rules``."""

    @pytest.mark.parametrize(
        "head, hset_reads", [("1..1 item", 0), ("1..1 price", 1)]
    )
    def test_each_item_table_is_read_once(
        self, system, monkeypatch, head, hset_reads
    ):
        statements = []
        execute = system.db.execute

        def recording(sql, *args, **kwargs):
            statements.append(sql)
            return execute(sql, *args, **kwargs)

        monkeypatch.setattr(system.db, "execute", recording)
        result = system.execute(
            SIMPLE.replace("1..1 item AS HEAD", f"{head} AS HEAD")
        )
        assert result.rules
        names = result.program.workspace

        def selects_from(table):
            return sum(
                sql.startswith("SELECT") and f" FROM {table}" in sql
                for sql in statements
            )

        assert selects_from(names.bset) == 1
        assert selects_from(names.hset) == hset_reads
        assert result.directives.H == bool(hset_reads)

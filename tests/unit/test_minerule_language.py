"""MINE RULE parser, validator and classifier tests (Section 4.1)."""

import pytest

from repro.minerule import (
    Directives,
    MineRuleParseError,
    MineRuleValidationError,
    classify,
    parse_mine_rule,
    statement_kind,
    validate,
)
from repro.sqlengine import ast_nodes as ast

PURCHASE_COLUMNS = ["tr", "customer", "item", "date", "price", "qty"]

SIMPLE = """
MINE RULE Out AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY customer
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""

PAPER = """
MINE RULE FilteredOrderedSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""


class TestParserAccepts:
    def test_paper_statement(self):
        stmt = parse_mine_rule(PAPER)
        assert stmt.output_table == "FilteredOrderedSets"
        assert stmt.body.attributes == ("item",)
        assert stmt.body.card_min == 1 and stmt.body.card_max is None
        assert stmt.head.card_max is None
        assert stmt.select_support and stmt.select_confidence
        assert stmt.group_attributes == ("customer",)
        assert stmt.cluster_attributes == ("date",)
        assert stmt.min_support == 0.2
        assert stmt.min_confidence == 0.3
        assert stmt.mining_condition is not None
        assert stmt.source_condition is not None
        assert stmt.cluster_condition is not None

    def test_defaults_body_1n_head_11(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert (stmt.body.card_min, stmt.body.card_max) == (1, None)
        assert (stmt.head.card_min, stmt.head.card_max) == (1, 1)
        assert not stmt.select_support and not stmt.select_confidence

    def test_explicit_cardinalities(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT 2..4 item AS BODY, "
            "1..2 item AS HEAD FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert (stmt.body.card_min, stmt.body.card_max) == (2, 4)
        assert (stmt.head.card_min, stmt.head.card_max) == (1, 2)

    def test_multi_attribute_schemas(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT item, price AS BODY, "
            "item AS HEAD FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert stmt.body.attributes == ("item", "price")

    def test_multiple_source_tables(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM orders o, lines l WHERE o.id = l.oid GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert [t.name for t in stmt.from_list] == ["orders", "lines"]
        assert stmt.from_list[1].alias == "l"

    def test_group_having(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM t GROUP BY g HAVING COUNT(*) >= 2 "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert stmt.group_condition is not None

    def test_support_and_confidence_order_free(self):
        stmt = parse_mine_rule(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD, "
            "CONFIDENCE, SUPPORT FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert stmt.select_support and stmt.select_confidence

    def test_describe_summary(self):
        text = parse_mine_rule(PAPER).describe()
        assert "FilteredOrderedSets" in text
        assert "cluster by date" in text


class TestParserRejects:
    def reject(self, text):
        with pytest.raises(MineRuleParseError):
            parse_mine_rule(text)

    def test_missing_mine_keyword(self):
        self.reject("RULE r AS SELECT DISTINCT item AS BODY FROM t")

    def test_missing_distinct(self):
        self.reject(
            "MINE RULE r AS SELECT item AS BODY, item AS HEAD FROM t "
            "GROUP BY g EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )

    def test_missing_group_by(self):
        self.reject(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM t EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )

    def test_missing_extracting(self):
        self.reject(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM t GROUP BY g"
        )

    def test_threshold_above_one(self):
        self.reject(SIMPLE.replace("SUPPORT: 0.2", "SUPPORT: 1.5"))

    def test_negative_threshold(self):
        self.reject(SIMPLE.replace("CONFIDENCE: 0.3", "CONFIDENCE: -0.1"))

    def test_empty_card_range(self):
        self.reject(SIMPLE.replace("1..n item AS BODY", "3..2 item AS BODY"))

    def test_zero_cardinality(self):
        self.reject(SIMPLE.replace("1..n item AS BODY", "0..n item AS BODY"))

    def test_bad_card_upper(self):
        self.reject(SIMPLE.replace("1..n item AS BODY", "1..x item AS BODY"))

    def test_trailing_garbage(self):
        self.reject(SIMPLE + " AND MORE")

    def test_wrong_side_label(self):
        self.reject(
            "MINE RULE r AS SELECT DISTINCT item AS HEAD, item AS BODY "
            "FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )


class TestValidator:
    def test_paper_statement_passes(self):
        validate(parse_mine_rule(PAPER), PURCHASE_COLUMNS)

    def check_fails(self, text, check, columns=None):
        with pytest.raises(MineRuleValidationError) as excinfo:
            validate(parse_mine_rule(text), columns or PURCHASE_COLUMNS)
        assert excinfo.value.check == check

    def test_check1_unknown_body_attribute(self):
        self.check_fails(SIMPLE.replace("n item AS BODY", "n sku AS BODY"), 1)

    def test_check1_unknown_group_attribute(self):
        self.check_fails(SIMPLE.replace("GROUP BY customer", "GROUP BY shop"), 1)

    def test_check2_group_and_cluster_overlap(self):
        text = PAPER.replace("CLUSTER BY date", "CLUSTER BY customer")
        # adjust the HAVING so it still parses on the renamed attribute
        text = text.replace("BODY.date < HEAD.date", "BODY.customer < HEAD.customer")
        self.check_fails(text, 2)

    def test_check2_body_overlaps_grouping(self):
        self.check_fails(
            SIMPLE.replace("n item AS BODY", "n customer AS BODY"), 2
        )

    def test_check3_group_having_foreign_attribute(self):
        self.check_fails(
            SIMPLE.replace(
                "GROUP BY customer", "GROUP BY customer HAVING price > 3"
            ),
            3,
        )

    def test_check3_group_having_aggregate_is_allowed(self):
        validate(
            parse_mine_rule(
                SIMPLE.replace(
                    "GROUP BY customer",
                    "GROUP BY customer HAVING SUM(price) > 100",
                )
            ),
            PURCHASE_COLUMNS,
        )

    def test_check3_cluster_having_foreign_attribute(self):
        self.check_fails(
            PAPER.replace("BODY.date < HEAD.date", "BODY.price < HEAD.date"),
            3,
        )

    def test_check4_mining_condition_requires_qualifier(self):
        self.check_fails(
            PAPER.replace(
                "WHERE BODY.price >= 100 AND HEAD.price < 100",
                "WHERE price >= 100",
            ),
            4,
        )

    def test_check4_mining_condition_on_grouping_attribute(self):
        self.check_fails(
            PAPER.replace(
                "WHERE BODY.price >= 100 AND HEAD.price < 100",
                "WHERE BODY.customer = HEAD.customer",
            ),
            4,
        )


class TestClassifier:
    def classify_text(self, text):
        return classify(parse_mine_rule(text))

    def test_paper_statement_vector(self):
        d = self.classify_text(PAPER)
        assert d.as_tuple() == (
            False,  # H: same attribute on both sides
            True,  # W: source condition present
            True,  # M
            False,  # G
            True,  # C
            True,  # K
            False,  # F
            False,  # R
        )
        assert d.general and not d.simple

    def test_simple_statement(self):
        d = self.classify_text(SIMPLE)
        assert d.simple
        assert str(d).endswith("(simple)")

    def test_w_true_with_two_tables(self):
        d = self.classify_text(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, item AS HEAD "
            "FROM a, b GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert d.W

    def test_h_true_with_different_schemas(self):
        d = self.classify_text(
            "MINE RULE r AS SELECT DISTINCT item AS BODY, brand AS HEAD "
            "FROM t GROUP BY g "
            "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1"
        )
        assert d.H and d.general

    def test_r_true_with_group_aggregate(self):
        d = self.classify_text(
            SIMPLE.replace(
                "GROUP BY customer",
                "GROUP BY customer HAVING COUNT(*) >= 2",
            )
        )
        assert d.G and d.R
        assert d.simple  # G/R do not force the general class

    def test_f_true_with_cluster_aggregate(self):
        d = self.classify_text(
            PAPER.replace(
                "HAVING BODY.date < HEAD.date",
                "HAVING SUM(BODY.price) > 100",
            )
        )
        assert d.C and d.K and d.F

    def test_k_requires_c_invariant(self):
        with pytest.raises(ValueError):
            Directives(
                H=False, W=False, M=False, G=False,
                C=False, K=True, F=False, R=False,
            )

    def test_f_requires_k_invariant(self):
        with pytest.raises(ValueError):
            Directives(
                H=False, W=False, M=False, G=False,
                C=True, K=False, F=True, R=False,
            )

    def test_r_requires_g_invariant(self):
        with pytest.raises(ValueError):
            Directives(
                H=False, W=False, M=False, G=False,
                C=False, K=False, F=False, R=True,
            )


class TestStatementKind:
    """The one classifier behind ``cli.Shell.execute`` and
    ``JobService.submit``: the first two tokens decide, not a prefix
    of the text."""

    @pytest.mark.parametrize("text, kind", [
        (SIMPLE, "mine"),
        ("mine rule Out as select", "mine"),
        ("MINE\n\tRULE Out", "mine"),
        ("/* why */ MINE RULE Out", "mine"),
        ("REFRESH RULES Out", "refresh"),
        ("refresh rules Out;", "refresh"),
        ("-- nightly\nREFRESH RULES Out", "refresh"),
        (".help", "meta"),
        ("  .load purchase", "meta"),
        ("SELECT * FROM Purchase", "sql"),
        ("CREATE TABLE mine (rule INTEGER)", "sql"),
        ("INSERT INTO refresh VALUES (1)", "sql"),
        # a first identifier that merely starts with the letters
        ("MINERALS", "sql"),
        ("refreshments", "sql"),
        ("MINE_RULE Out", "sql"),
        ("MINE", "sql"),
        ("REFRESH Purchase", "sql"),
        # the SQL parser reports what the lexer rejects
        ("'unterminated", "sql"),
        ("", "sql"),
    ])
    def test_kinds(self, text, kind):
        assert statement_kind(text) == kind

    def test_both_front_ends_route_through_it(self):
        from repro import MiningSystem
        from repro.cli import Shell
        from repro.jobs import JobService

        # the prefix sniffers took these for REFRESH RULES / MINE RULE
        assert "expected a SQL statement" in Shell().execute("refreshments;")
        service = JobService(MiningSystem())  # not started: jobs stay queued
        assert service.submit("MINERALS").kind == "sql"
        assert service.submit("refresh rules Out").kind == "refresh"
        assert service.submit(SIMPLE).kind == "mine"
        with pytest.raises(ValueError, match="meta"):
            service.submit(".help")

"""Translator tests: which queries each statement class activates
(Figure 4) and the directives handed to the core operator."""

import pytest

from repro.kernel import Translator, Workspace
from repro.minerule import MineRuleValidationError
from repro.sqlengine import Database
from repro.sqlengine.errors import CatalogError
from repro.datagen import load_purchase_figure1


@pytest.fixture
def translator(purchase_db):
    return Translator(purchase_db)


def build(translator, text):
    return translator.translate(text, Workspace("T"))


SIMPLE = """
MINE RULE Out AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY customer
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""


def base_labels(program):
    """Query labels ignoring the a/b suffixes."""
    return {label.rstrip("ab") for label in program.labels()}


class TestSimpleProgram:
    def test_q0_skipped_without_source_condition(self, translator):
        program = build(translator, SIMPLE)
        assert "Q0v" in program.labels()
        assert "Q0" not in program.labels()

    def test_q0_present_with_source_condition(self, translator):
        program = build(
            translator,
            SIMPLE.replace("FROM Purchase", "FROM Purchase WHERE price > 10"),
        )
        assert "Q0" in program.labels()

    def test_simple_query_set(self, translator):
        program = build(translator, SIMPLE)
        assert base_labels(program) == {"Q0v", "Q1", "Q2", "Q3", "Q4"}

    def test_core_directives_simple(self, translator):
        core = build(translator, SIMPLE).core
        assert core.simple
        assert core.input_rules is None
        assert core.cluster_couples is None
        assert core.min_support == 0.2
        assert core.body_card == (1, None)
        assert core.head_card == (1, 1)

    def test_group_having_lands_in_q2(self, translator):
        program = build(
            translator,
            SIMPLE.replace(
                "GROUP BY customer",
                "GROUP BY customer HAVING COUNT(*) >= 2",
            ),
        )
        assert "HAVING" in program.query("Q2a").sql

    def test_no_group_having_no_q2_having(self, translator):
        program = build(translator, SIMPLE)
        assert "HAVING" not in program.query("Q2a").sql

    def test_q3_counts_within_valid_groups_when_g(self, translator):
        program = build(
            translator,
            SIMPLE.replace(
                "GROUP BY customer",
                "GROUP BY customer HAVING COUNT(*) >= 2",
            ),
        )
        assert "ValidGroups" in program.query("Q3a").sql


class TestGeneralProgram:
    def test_paper_statement_queries(self, translator, paper_statement):
        program = build(translator, paper_statement)
        labels = base_labels(program)
        assert labels == {"Q0", "Q1", "Q2", "Q3", "Q6", "Q7", "Q4", "Q11",
                          "Q8", "Q9", "Q10"}

    def test_h_adds_q5(self, translator):
        program = build(
            translator,
            SIMPLE.replace("1..1 item AS HEAD", "1..1 price AS HEAD"),
        )
        assert "Q5a" in program.labels() and "Q5b" in program.labels()

    def test_mining_condition_adds_q8_q9_q10(self, translator):
        program = build(
            translator,
            SIMPLE.replace(
                "SUPPORT, CONFIDENCE",
                "SUPPORT, CONFIDENCE WHERE BODY.price > HEAD.price",
            ),
        )
        for label in ("Q8", "Q9", "Q10"):
            assert label in program.labels()

    def test_cluster_without_condition_skips_q7(self, translator):
        text = SIMPLE.replace(
            "GROUP BY customer", "GROUP BY customer CLUSTER BY date"
        )
        program = build(translator, text)
        assert "Q6" in program.labels()
        assert "Q7" not in program.labels()
        assert program.core.cluster_couples is None

    def test_cluster_condition_rewritten_for_q7(
        self, translator, paper_statement
    ):
        program = build(translator, paper_statement)
        sql = program.query("Q7").sql
        assert "BC.date" in sql and "HC.date" in sql
        assert "BODY" not in sql

    def test_cluster_aggregates_precomputed_in_q6(self, translator):
        text = SIMPLE.replace(
            "GROUP BY customer",
            "GROUP BY customer CLUSTER BY date "
            "HAVING SUM(BODY.price) < SUM(HEAD.price)",
        )
        program = build(translator, text)
        q6 = program.query("Q6").sql
        assert "SUM(S.price) AS MRAGG1" in q6
        q7 = program.query("Q7").sql
        assert "BC.MRAGG1" in q7 and "HC.MRAGG1" in q7

    def test_mining_condition_rewritten_for_q8(
        self, translator, paper_statement
    ):
        sql = build(translator, paper_statement).query("Q8").sql
        assert "B.price" in sql and "H.price" in sql
        assert "BODY" not in sql

    def test_q8_excludes_self_pairs_same_schema(self, translator):
        program = build(
            translator,
            SIMPLE.replace(
                "SUPPORT, CONFIDENCE",
                "SUPPORT, CONFIDENCE WHERE BODY.price > HEAD.price",
            ),
        )
        assert "B.Bid <> H.Bid" in program.query("Q8").sql

    def test_q4b_left_joins_when_h(self, translator):
        program = build(
            translator,
            SIMPLE.replace("1..1 item AS HEAD", "1..1 price AS HEAD"),
        )
        sql = program.query("Q4b").sql
        assert "LEFT JOIN" in sql
        assert "IS NOT NULL" in sql

    def test_q4b_inner_join_when_same_schema(self, translator):
        text = SIMPLE.replace(
            "GROUP BY customer", "GROUP BY customer CLUSTER BY date"
        )
        sql = build(translator, text).query("Q4b").sql
        assert "LEFT JOIN" not in sql

    def test_coded_source_is_view_q11(self, translator, paper_statement):
        program = build(translator, paper_statement)
        assert program.query("Q11").sql.startswith("CREATE VIEW")

    def test_schemas_follow_directives(self, translator, paper_statement):
        program = build(translator, paper_statement)
        names = program.workspace
        assert program.schemas[names.coded_source] == ["Gid", "Cid", "Bid"]
        assert program.schemas[names.input_rules] == [
            "Gid",
            "BCid",
            "HCid",
            "Bid",
            "Hid",
        ]


class TestValidationAtTranslation:
    def test_unknown_table_rejected(self, translator):
        with pytest.raises(CatalogError):
            build(translator, SIMPLE.replace("FROM Purchase", "FROM Nope"))

    def test_semantic_check_applied(self, translator):
        with pytest.raises(MineRuleValidationError):
            build(
                translator,
                SIMPLE.replace("n item AS BODY", "n missing AS BODY"),
            )


class TestProgramListing:
    def test_listing_contains_sections(self, translator, paper_statement):
        listing = build(translator, paper_statement).listing()
        assert "===== setup =====" in listing
        assert "===== preprocessing =====" in listing
        assert "-- Q8:" in listing

    def test_query_lookup_by_label(self, translator):
        program = build(translator, SIMPLE)
        assert program.query("Q1").sql.startswith("SELECT COUNT(*)")
        with pytest.raises(KeyError):
            program.query("Q99")


class TestAppendixAQueries:
    """Structural conformance with Appendix A (simple rules)."""

    def test_q1_counts_distinct_groups(self, translator):
        # without a group HAVING ValidGroups holds every group: Q1
        # counts it once Q2b has filled it
        program = build(translator, SIMPLE)
        assert program.query("Q1").sql == (
            "SELECT COUNT(*) INTO :totg FROM T_ValidGroups"
        )
        labels = program.labels()
        assert labels.index("Q2b") < labels.index("Q1") < labels.index("Q3b")
        # with one Q1 counts the source's groups first, as Appendix A
        program = build(translator, SIMPLE.replace(
            "GROUP BY customer", "GROUP BY customer HAVING COUNT(*) >= 2"
        ))
        sql = program.query("Q1").sql
        assert sql.startswith("SELECT COUNT(*) INTO :totg")
        assert "SELECT DISTINCT customer" in sql
        assert program.labels().index("Q1") < program.labels().index("Q2a")

    def test_q2_creates_view_then_encodes_with_sequence(self, translator):
        program = build(translator, SIMPLE)
        assert program.query("Q2a").sql.startswith("CREATE VIEW")
        q2b = program.query("Q2b").sql
        assert ".NEXTVAL AS Gid" in q2b
        assert "V.*" in q2b

    def test_q3_stages_then_filters_by_mingroups(self, translator):
        program = build(translator, SIMPLE)
        assert "SELECT DISTINCT item, customer" in program.query("Q3a").sql
        q3b = program.query("Q3b").sql
        assert "GROUP BY item" in q3b
        assert "COUNT(*) >= :mingroups" in q3b
        assert ".NEXTVAL AS Bid" in q3b

    def test_q4_joins_staged_pairs(self, translator):
        # Q3a's pairs are distinct and group -> Gid, item -> Bid are
        # one-to-one: no DISTINCT, no second pass over Source, with and
        # without a group HAVING
        for having in ("", " HAVING COUNT(*) >= 2"):
            sql = build(translator, SIMPLE.replace(
                "GROUP BY customer", f"GROUP BY customer{having}"
            )).query("Q4").sql
            assert sql.startswith(
                "INSERT INTO T_CodedSource (SELECT V.Gid, B.Bid "
            )
            assert ("FROM T_DistinctGroupsInBody D, T_ValidGroups V, "
                    "T_Bset B") in sql
            assert "D.customer = V.customer" in sql
            assert "D.item = B.item" in sql
            assert "DISTINCT" not in sql and "T_Source" not in sql

    def test_postprocessing_decodes_bodies(self, translator):
        program = build(translator, SIMPLE)
        p1 = program.query("P1").sql
        assert "Out_Bodies" in p1
        assert "OutputBodies.Bid = Bset.Bid" in p1

    def test_all_generated_sql_parses(self, translator, paper_statement):
        from repro.sqlengine.parser import parse_sql

        for statement_text in (SIMPLE, paper_statement):
            program = build(translator, statement_text)
            for query in (
                program.setup + program.preprocessing + program.postprocessing
            ):
                parse_sql(query.sql)

"""End-to-end MINE RULE scenarios beyond the paper's worked example."""

import pytest

from repro import Database, MiningSystem
from repro.datagen import (
    QuestParameters,
    load_clickstream,
    load_purchase_figure1,
    load_purchase_synthetic,
    load_quest,
)


def template(**overrides):
    parts = dict(
        out="Out",
        select="1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE",
        mining="",
        source="FROM Purchase",
        group="GROUP BY customer",
        cluster="",
        extract="EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5",
    )
    parts.update(overrides)
    return (
        f"MINE RULE {parts['out']} AS SELECT DISTINCT {parts['select']} "
        f"{parts['mining']} {parts['source']} {parts['group']} "
        f"{parts['cluster']} {parts['extract']}"
    )


class TestSimpleScenarios:
    def test_simple_rules_on_figure1(self, system):
        result = system.execute(template())
        assert result.directives.simple
        assert all(len(r.head) == 1 for r in result.rules)
        assert all(r.support >= 0.5 for r in result.rules)
        assert all(r.confidence >= 0.5 for r in result.rules)

    def test_group_by_transaction_instead_of_customer(self, system):
        result = system.execute(template(group="GROUP BY tr"))
        # tr groups: support denominators over 4 transactions
        assert system.db.variables["totg"] == 4
        assert all(r.support >= 0.5 for r in result.rules)

    def test_multi_attribute_grouping(self, system):
        result = system.execute(template(group="GROUP BY customer, date"))
        assert system.db.variables["totg"] == 4

    def test_group_having_restricts_rule_extraction(self, system):
        with_having = system.execute(
            template(
                out="WithHaving",
                group="GROUP BY customer HAVING COUNT(*) >= 4",
            )
        )
        # only cust2 has >= 4 purchases; totg still counts both
        assert with_having.directives.G and with_having.directives.R
        assert all(r.support <= 0.5 for r in with_having.rules)

    def test_thresholds_monotone(self, system):
        loose = system.execute(
            template(extract="EXTRACTING RULES WITH SUPPORT: 0.2, "
                             "CONFIDENCE: 0.1")
        )
        tight = system.execute(
            template(out="Out2",
                     extract="EXTRACTING RULES WITH SUPPORT: 0.6, "
                             "CONFIDENCE: 0.9")
        )
        assert {(r.body, r.head) for r in tight.rules} <= {
            (r.body, r.head) for r in loose.rules
        }

    def test_source_condition_limits_input(self, system):
        result = system.execute(
            template(source="FROM Purchase WHERE price < 200")
        )
        items = {item for r in result.rules for item in r.body | r.head}
        assert "jackets" not in items  # price 300 filtered out


class TestGeneralScenarios:
    def test_mining_condition_without_clusters(self, system):
        result = system.execute(
            template(
                mining="WHERE BODY.price >= 100 AND HEAD.price < 100",
                extract="EXTRACTING RULES WITH SUPPORT: 0.2, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert result.directives.M and not result.directives.C
        prices = dict(
            system.db.query("SELECT DISTINCT item, price FROM Purchase")
        )
        for rule in result.rules:
            assert all(prices[i] >= 100 for i in rule.body)
            assert all(prices[i] < 100 for i in rule.head)

    def test_different_body_head_schemas(self, system):
        result = system.execute(
            template(
                select="1..1 item AS BODY, 1..1 price AS HEAD, "
                       "SUPPORT, CONFIDENCE",
                extract="EXTRACTING RULES WITH SUPPORT: 0.5, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert result.directives.H
        # heads are prices now
        assert all(
            isinstance(next(iter(r.head)), float) for r in result.rules
        )

    def test_clusters_without_condition_include_reversed_pairs(self, system):
        result = system.execute(
            template(
                select="1..1 item AS BODY, 1..1 item AS HEAD, "
                       "SUPPORT, CONFIDENCE",
                cluster="CLUSTER BY date",
                extract="EXTRACTING RULES WITH SUPPORT: 0.5, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert result.directives.C and not result.directives.K
        keys = {(r.body, r.head) for r in result.rules}
        assert (
            frozenset({"brown_boots"}),
            frozenset({"col_shirts"}),
        ) in keys
        # same-cluster pair: brown_boots and col_shirts on 12/18
        assert (
            frozenset({"col_shirts"}),
            frozenset({"brown_boots"}),
        ) in keys

    def test_cluster_condition_with_aggregates(self, system):
        result = system.execute(
            template(
                cluster="CLUSTER BY date "
                        "HAVING SUM(BODY.price) > SUM(HEAD.price)",
                extract="EXTRACTING RULES WITH SUPPORT: 0.2, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert result.directives.F
        # body clusters must have strictly larger price sums; the rules
        # are a subset of the unconditioned cluster run
        unconditioned = system.execute(
            template(
                out="Uncond",
                cluster="CLUSTER BY date",
                extract="EXTRACTING RULES WITH SUPPORT: 0.2, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert {(r.body, r.head) for r in result.rules} <= {
            (r.body, r.head) for r in unconditioned.rules
        }

    def test_paper_statement_without_mining_condition(self, system):
        """Clusters + cluster condition but no mining condition: the
        core derives elementary rules itself (Section 4.3.2)."""
        result = system.execute(
            template(
                select="1..n item AS BODY, 1..n item AS HEAD, "
                       "SUPPORT, CONFIDENCE",
                cluster="CLUSTER BY date HAVING BODY.date < HEAD.date",
                extract="EXTRACTING RULES WITH SUPPORT: 0.2, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert result.directives.K and not result.directives.M
        assert result.program.core.input_rules is None
        keys = {(r.body, r.head) for r in result.rules}
        # cust2: 12/18 {col_shirts, brown_boots, jackets} -> 12/19
        # {col_shirts, jackets}
        assert (
            frozenset({"brown_boots"}),
            frozenset({"col_shirts", "jackets"}),
        ) in keys

    def test_simple_equals_general_on_same_statement(self, purchase_db):
        """A simple statement forced through the general machinery (via
        a tautological mining condition) gives the same rules."""
        simple_system = MiningSystem(database=purchase_db)
        simple = simple_system.execute(
            template(extract="EXTRACTING RULES WITH SUPPORT: 0.5, "
                             "CONFIDENCE: 0.1")
        )
        general = simple_system.execute(
            template(
                out="OutG",
                mining="WHERE BODY.qty >= 1 AND HEAD.qty >= 1",
                extract="EXTRACTING RULES WITH SUPPORT: 0.5, "
                        "CONFIDENCE: 0.1",
            )
        )
        assert general.directives.general
        assert {(r.body, r.head, round(r.support, 9)) for r in simple.rules} \
            == {(r.body, r.head, round(r.support, 9)) for r in general.rules}


class TestLargerWorkloads:
    def test_quest_workload_end_to_end(self):
        system = MiningSystem()
        load_quest(
            system.db,
            QuestParameters(transactions=200, items=80, patterns=30, seed=3),
        )
        result = system.execute(
            "MINE RULE Q AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets "
            "GROUP BY tid EXTRACTING RULES WITH SUPPORT: 0.05, "
            "CONFIDENCE: 0.3"
        )
        assert result.rules
        assert all(0 < r.support <= 1 for r in result.rules)
        assert all(0 < r.confidence <= 1 for r in result.rules)
        assert all(r.support >= 0.05 - 1e-9 for r in result.rules)

    def test_synthetic_purchase_with_clusters(self):
        system = MiningSystem()
        load_purchase_synthetic(system.db, customers=25, days=5, seed=11)
        result = system.execute(
            "MINE RULE Seq AS SELECT DISTINCT 1..1 item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE "
            "FROM Purchase GROUP BY customer "
            "CLUSTER BY date HAVING BODY.date < HEAD.date "
            "EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.2"
        )
        assert result.directives.K
        assert all(r.confidence <= 1.0 + 1e-9 for r in result.rules)

    def test_clickstream_cross_schema(self):
        system = MiningSystem()
        load_clickstream(system.db, users=20, sessions_per_user=2, seed=4)
        result = system.execute(
            "MINE RULE X AS SELECT DISTINCT 1..1 page AS BODY, "
            "1..1 section AS HEAD, SUPPORT, CONFIDENCE "
            "WHERE BODY.section = 'product' AND HEAD.section <> 'product' "
            "FROM Clicks GROUP BY usr "
            "EXTRACTING RULES WITH SUPPORT: 0.15, CONFIDENCE: 0.2"
        )
        assert result.directives.H and result.directives.M
        sections = {s for (s,) in system.db.query(
            "SELECT DISTINCT section FROM Clicks")}
        for rule in result.rules:
            assert all(head in sections for head in rule.head)
            assert all(head != "product" for head in rule.head)


class TestAlgorithmInteroperability:
    """Section 3: the core operator accepts any pool algorithm."""

    @pytest.fixture(scope="class")
    def quest_db(self):
        database = Database()
        load_quest(
            database,
            QuestParameters(transactions=120, items=60, patterns=25, seed=8),
        )
        return database

    STATEMENT = (
        "MINE RULE A AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Baskets "
        "GROUP BY tid EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.3"
    )

    @pytest.mark.parametrize("algorithm", ["eclat", "auto"])
    def test_every_pool_algorithm_agrees_with_apriori(
        self, quest_db, algorithm
    ):
        reference = MiningSystem(
            database=quest_db, algorithm="apriori",
            reuse_preprocessing=False,
        ).execute(self.STATEMENT)
        candidate = MiningSystem(
            database=quest_db, algorithm=algorithm,
            reuse_preprocessing=False,
        ).execute(self.STATEMENT)
        assert candidate.rule_set() == reference.rule_set()

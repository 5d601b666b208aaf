"""EXPLAIN output and engine-option (planner ablation) tests."""

import pytest

from repro.sqlengine import Database, EngineOptions


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE s (g INTEGER, item VARCHAR)")
    database.execute("CREATE TABLE v (gid INTEGER, g INTEGER)")
    database.execute("CREATE TABLE b (bid INTEGER, item VARCHAR)")
    for g, item in [(1, "a"), (1, "b"), (2, "a")]:
        database.execute(f"INSERT INTO s VALUES ({g}, '{item}')")
    for gid, g in [(10, 1), (20, 2)]:
        database.execute(f"INSERT INTO v VALUES ({gid}, {g})")
    for bid, item in [(100, "a"), (200, "b")]:
        database.execute(f"INSERT INTO b VALUES ({bid}, '{item}')")
    return database


Q4_SHAPE = (
    "SELECT DISTINCT V.gid, B.bid FROM s S, v V, b B "
    "WHERE S.g = V.g AND S.item = B.item"
)


class TestExplain:
    def test_equijoins_become_hash_joins(self, db):
        plan = db.explain(Q4_SHAPE)
        assert plan.count("HashJoin") == 2
        assert "NestedLoopJoin" not in plan
        assert plan.startswith("Project [distinct]")

    def test_filter_pushdown_visible(self, db):
        plan = db.explain(
            "SELECT S.item FROM s S, v V WHERE S.g = V.g AND V.gid > 5"
        )
        # the single-table conjunct sits below the join, on v's scan
        join_pos = plan.index("HashJoin")
        filter_pos = plan.index("Filter")
        assert filter_pos > join_pos

    def test_aggregate_and_sort_nodes(self, db):
        plan = db.explain(
            "SELECT item, COUNT(*) FROM s GROUP BY item "
            "HAVING COUNT(*) > 1 ORDER BY item"
        )
        assert "Sort" in plan
        assert "Aggregate keys=(item)" in plan
        assert "having=" in plan

    def test_theta_join_is_nested_loop(self, db):
        plan = db.explain("SELECT 1 FROM s a, s b WHERE a.g < b.g")
        assert "NestedLoopJoin" in plan

    def test_view_shows_subplan(self, db):
        db.execute("CREATE VIEW vw AS (SELECT item FROM s)")
        plan = db.explain("SELECT * FROM vw")
        lines = plan.splitlines()
        assert lines[1].strip() == "Subplan vw"
        # the nested plan hangs under the node
        assert lines[2].strip().startswith("Project (item)")
        assert "Scan s" in lines[3]

    def test_explain_executes_nothing(self, db):
        # planning used to run views: EXPLAIN consumed sequence values
        db.execute("CREATE SEQUENCE sq")
        db.execute("CREATE VIEW numbered AS (SELECT sq.NEXTVAL AS n FROM s)")
        version = db.catalog.version
        plan = db.explain("SELECT * FROM numbered")
        assert "Subplan numbered" in plan
        derived = db.explain("SELECT * FROM (SELECT sq.NEXTVAL AS n FROM s) d")
        assert "Subplan d" in derived
        assert db.catalog.version == version
        assert db.catalog.get_sequence("sq").nextval() == 1

    def test_row_executor_reason_shown(self, db):
        plan = db.explain(
            "SELECT CASE WHEN g > 1 THEN 'x' ELSE 'y' END FROM s"
        )
        assert "[row executor: no vector lowering for Case]" in plan
        assert "row executor" not in db.explain("SELECT g FROM s")

    def test_non_select_statement(self, db):
        text = db.explain("DROP TABLE IF EXISTS zz")
        assert "no plan" in text

    def test_select_without_from(self, db):
        assert "SingleRow" in db.explain("SELECT 1 + 1")


class TestEngineOptions:
    def test_knob_census(self):
        """The exact option surface: a new knob has to edit a count."""
        import dataclasses
        import inspect

        from repro import MiningSystem

        fields = [f.name for f in dataclasses.fields(EngineOptions)]
        assert len(fields) == 8 and fields == [
            "hash_joins", "filter_pushdown", "plan_cache", "statement_cache_size",
            "plan_cache_size", "batch_size", "memory_budget", "vectorize",
        ]
        parameters = list(inspect.signature(MiningSystem.__init__).parameters)[1:]
        assert len(parameters) == 9 and parameters == [
            "database", "algorithm", "reuse_preprocessing", "retry_policy",
            "tracer", "metrics", "slowlog", "health", "runlog",
        ]
        for gone in ({"workers": 2}, {"representation": "set"},
                     {"batch_size": 16}, {"memory_budget": 1 << 20}):
            with pytest.raises(TypeError):
                MiningSystem(**gone)
        # executor tuning is the engine's, rejected at its boundary
        for bad in ({"batch_size": 0}, {"memory_budget": 0}):
            (name, value), = bad.items()
            with pytest.raises(
                ValueError, match=f"{name} must be positive, got {value}"
            ):
                EngineOptions(**bad)

        # the pool: each member has the tuning its algorithm defines
        # and no layout switch
        import repro.algorithms as pool

        members = {
            name: list(inspect.signature(cls).parameters)
            for name, cls in pool.ALGORITHMS.items()
        }
        assert members == {
            "apriori": [], "aprioritid": [], "eclat": [], "auto": [],
            "exhaustive": [], "dhp": ["buckets"], "partition": ["partitions"],
            "sampling": ["sample_fraction", "lowering", "seed"],
        }
        with pytest.raises(TypeError):
            pool.get_algorithm("apriori", representation="set")
        with pytest.raises(TypeError):
            pool.Eclat(diffsets=False)
        assert not hasattr(pool, "REPRESENTATIONS")
        assert "REPRESENTATIONS" not in pool.__all__

    @pytest.mark.parametrize("flag", ["--workers=2", "--shard-start-method=fork"])
    def test_sharding_flags_are_gone(self, flag, capsys):
        """One process, one execution mode: neither front end takes the
        flags that chose another."""
        from repro import cli, serve

        for main in (cli.main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                main([flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def options_db(self, **kwargs):
        database = Database(EngineOptions(**kwargs))
        database.execute("CREATE TABLE l (x INTEGER)")
        database.execute("CREATE TABLE r (x INTEGER)")
        for v in (1, 2, 3):
            database.execute(f"INSERT INTO l VALUES ({v})")
            database.execute(f"INSERT INTO r VALUES ({v})")
        return database

    def test_hash_joins_disabled_uses_nested_loop(self):
        database = self.options_db(hash_joins=False)
        plan = database.explain(
            "SELECT 1 FROM l, r WHERE l.x = r.x"
        )
        assert "NestedLoopJoin" in plan
        assert "HashJoin" not in plan

    def test_results_identical_regardless_of_strategy(self):
        fast = self.options_db()
        slow = self.options_db(hash_joins=False, filter_pushdown=False)
        query = "SELECT l.x FROM l, r WHERE l.x = r.x AND l.x > 1 ORDER BY 1"
        assert fast.query(query) == slow.query(query)

    def test_pushdown_disabled_keeps_filter_at_join_level(self):
        database = self.options_db(filter_pushdown=False)
        plan = database.explain(
            "SELECT l.x FROM l, r WHERE l.x = r.x AND r.x > 1"
        )
        # the single-table conjunct is evaluated as a join residual
        # instead of below the scan
        assert "residual=(r.x > 1)" in plan
        with_pushdown = self.options_db().explain(
            "SELECT l.x FROM l, r WHERE l.x = r.x AND r.x > 1"
        )
        assert "Filter (r.x > 1)" in with_pushdown

    def test_left_join_without_hash_joins_still_correct(self):
        database = self.options_db(hash_joins=False)
        database.execute("INSERT INTO l VALUES (99)")
        rows = database.query(
            "SELECT l.x, r.x FROM l LEFT JOIN r ON l.x = r.x ORDER BY 1"
        )
        assert (99, None) in rows

    def test_mining_pipeline_unaffected_by_options(self):
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1

        baseline_db = Database()
        load_purchase_figure1(baseline_db)
        baseline = MiningSystem(database=baseline_db).execute(STATEMENT)

        slow_db = Database(EngineOptions(hash_joins=False,
                                         filter_pushdown=False))
        load_purchase_figure1(slow_db)
        slow = MiningSystem(database=slow_db).execute(STATEMENT)
        assert baseline.rule_set() == slow.rule_set()


STATEMENT = """
MINE RULE OptCheck AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3
"""

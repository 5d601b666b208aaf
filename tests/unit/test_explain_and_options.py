"""EXPLAIN output and the knob census: the engine has no options."""

import pytest

from repro.sqlengine import Database


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

    def test_no_plan_names_a_second_executor(self, db):
        # CASE, subqueries and theta joins used to send a plan to a
        # row executor, which its first line named
        for sql in (
            "SELECT CASE WHEN g > 1 THEN 'x' ELSE 'y' END FROM s",
            "SELECT item FROM s WHERE EXISTS "
            "(SELECT 1 FROM v WHERE v.g = s.g)",
            "SELECT 1 FROM s a, s b WHERE a.g < b.g",
        ):
            assert "executor" not in db.explain(sql)
            assert all(
                node["loops"] >= 1 for node in db.analyze(sql).nodes
            )

    def test_non_select_statement(self, db):
        text = db.explain("DROP TABLE IF EXISTS zz")
        assert "no plan" in text

    def test_select_without_from(self, db):
        assert "SingleRow" in db.explain("SELECT 1 + 1")

    def test_compound_renders_every_block_under_its_set_operation(self, db):
        plan = db.explain(
            "SELECT g FROM s UNION SELECT gid FROM v ORDER BY 1"
        )
        assert plan.splitlines() == [
            "Sort (1 keys)",
            "  Union",
            "    Project (g)",
            "      Scan s (3 rows)",
            "    Project (gid)",
            "      Scan v (2 rows)",
        ]

    def test_set_operations_nest_left_deep(self, db):
        plan = db.explain(
            "SELECT g FROM s UNION ALL SELECT gid FROM v "
            "EXCEPT SELECT bid FROM b LIMIT 2"
        )
        assert plan.splitlines() == [
            "Limit 2",
            "  Except",
            "    Union [all]",
            "      Project (g)",
            "        Scan s (3 rows)",
            "      Project (gid)",
            "        Scan v (2 rows)",
            "    Project (bid)",
            "      Scan b (2 rows)",
        ]

    def test_limit_and_offset_are_drawn(self, db):
        plan = db.explain("SELECT g FROM s ORDER BY g LIMIT 1 OFFSET 1")
        assert plan.splitlines() == [
            "Project (g)",
            "  Limit 1 offset 1",
            "    Sort (1 keys)",
            "      Scan s (3 rows)",
        ]
        assert db.explain("SELECT g FROM s OFFSET 2").splitlines()[1] == (
            "  Limit all offset 2"
        )


class TestEngineOptions:
    """The knob census and the flags that are gone (the class name
    predates the engine having no options at all)."""

    def test_knob_census(self):
        """The exact option surface: a new knob has to edit a count."""
        import inspect

        from repro import MiningSystem

        import repro.sqlengine as sqlengine
        from repro.sqlengine import engine, vector

        # the engine has no options: the statement cache's capacity
        # and the kernels' chunk are module constants, neither planner
        # features nor the executor have a switch, and every node runs
        # in memory (no spill budget)
        with pytest.raises(ImportError):
            from repro.sqlengine import EngineOptions  # noqa: F401
        with pytest.raises(ImportError):
            import repro.sqlengine.options  # noqa: F401
        assert "EngineOptions" not in sqlengine.__all__
        assert not inspect.signature(Database).parameters
        assert not hasattr(Database(), "options")
        for gone in ({"options": None}, {"batch_size": 16},
                     {"statement_cache_size": 0}):
            with pytest.raises(TypeError):
                Database(**gone)
        assert engine.STATEMENT_CACHE_SIZE == 256
        assert vector.CHUNK_ROWS == 1024
        parameters = list(inspect.signature(MiningSystem.__init__).parameters)[1:]
        assert len(parameters) == 8 and parameters == [
            "database", "algorithm", "reuse_preprocessing", "retry_policy",
            "tracer", "metrics", "slowlog", "runlog",
        ]
        # health is a view attached to the tracer, not a parameter; the
        # shell takes its sinks on its tracer too
        from repro.cli import Shell

        with pytest.raises(TypeError):
            MiningSystem(health=None)
        shell = list(inspect.signature(Shell.__init__).parameters)[1:]
        assert len(shell) == 4 and shell == [
            "algorithm", "retry_policy", "tracer", "json_log",
        ]
        from repro.serve import MineRuleService

        service = list(
            inspect.signature(MineRuleService.__init__).parameters
        )[1:]
        assert len(service) == 13 and "batch_size" not in service
        # the job service finds its registry and journal on the
        # system's tracer
        from repro.jobs import JobService

        jobs = list(inspect.signature(JobService.__init__).parameters)[1:]
        assert len(jobs) == 5 and jobs == [
            "system", "workers", "queue_size", "capacity", "retry_policy",
        ]
        for gone in ({"workers": 2}, {"representation": "set"},
                     {"batch_size": 16}, {"memory_budget": 1 << 20}):
            with pytest.raises(TypeError):
                MiningSystem(**gone)
        # a crashed statement is finished by running it again
        verbs = {
            verb: list(inspect.signature(getattr(MiningSystem, verb))
                       .parameters)[1:]
            for verb in ("run", "refresh")
        }
        assert verbs == {
            "run": ["statement_text", "retry", "cancel"],
            "refresh": ["target", "retry", "cancel"],
        }
        with pytest.raises(TypeError):
            MiningSystem().run("MINE RULE ...", resume=True)
        # the general core has the paper's smaller-parent rule and one
        # support layout, bitmaps: no knob at all
        from repro.kernel.core.general import GeneralCoreOperator

        assert not inspect.signature(GeneralCoreOperator).parameters
        for gone in ({"parent_strategy": "body"}, {"representation": "set"}):
            with pytest.raises(TypeError):
                GeneralCoreOperator(**gone)
        # the pool: no member takes a knob, not even a layout switch
        import repro.algorithms as pool

        members = {
            name: list(inspect.signature(cls).parameters)
            for name, cls in pool.ALGORITHMS.items()
        }
        assert members == {"apriori": [], "eclat": [], "auto": []}
        assert list(inspect.signature(pool.get_algorithm).parameters) == [
            "name"
        ]
        with pytest.raises(TypeError):
            pool.get_algorithm("apriori", representation="set")
        with pytest.raises(TypeError):
            pool.Eclat(diffsets=False)
        assert not hasattr(pool, "REPRESENTATIONS")
        assert "REPRESENTATIONS" not in pool.__all__

    def test_memory_budget_flag_is_gone(self, capsys):
        """Every node runs in memory: neither front end takes the flag
        that set a spill budget."""
        from repro import cli, serve

        for main in (cli.main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                main(["--memory-budget=4096"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--workers=2", "--shard-start-method=fork", "--batch-size=16"],
    )
    def test_sharding_flags_are_gone(self, flag, capsys):
        """One process, one execution mode, no engine knob: neither
        front end takes the flags that chose another mode or set the
        executor's chunk size."""
        from repro import cli, serve

        for main in (cli.main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                main([flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

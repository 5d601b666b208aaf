"""System-level behaviour: process flow, preprocessing reuse, errors,
and coexistence of several executions in one database."""

import pytest

from repro import Database, MiningSystem, faults
from repro.algorithms import get_algorithm
from repro.algorithms import bitset
from repro.algorithms.bitset import VerticalInput
from repro.datagen import load_purchase_figure1, load_purchase_synthetic
from repro.faults import FaultError, FaultSchedule
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.core.simple import SimpleCoreOperator
from repro.minerule import MineRuleParseError, MineRuleValidationError
from repro.minerule.parser import parse_mine_rule
from repro.sqlengine.errors import CatalogError

SIMPLE = """
MINE RULE Out AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Purchase
GROUP BY customer
EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5
"""


class TestProcessFlow:
    """Figure 3a: translator -> preprocessor -> core -> postprocessor."""

    def test_component_order(self, system):
        result = system.execute(SIMPLE)
        assert result.flow.components() == [
            "translator",
            "preprocessor",
            "core",
            "postprocessor",
        ]

    def test_timings_cover_all_components(self, system):
        result = system.execute(SIMPLE)
        assert set(result.timings) == {
            "translator",
            "preprocessor",
            "core",
            "postprocessor",
        }
        assert all(t >= 0 for t in result.timings.values())

    def test_preprocessor_events_carry_query_labels(self, system):
        result = system.execute(SIMPLE)
        ran = [
            e.detail
            for e in result.flow.events
            if e.component == "preprocessor" and e.action.startswith("ran")
        ]
        assert ran  # at least Q0v/Q1/Q2/Q3/Q4

    def test_flow_render(self, system):
        result = system.execute(SIMPLE)
        text = result.flow.render()
        assert "[translator]" in text and "timings" in text


class TestPreprocessingReuse:
    """Section 3: shared preprocessing across statements."""

    def test_second_identical_statement_reuses(self, purchase_db):
        system = MiningSystem(database=purchase_db)
        first = system.execute(SIMPLE)
        second = system.execute(SIMPLE.replace("Out", "Out2"))
        assert not first.preprocessing_reused
        assert second.preprocessing_reused
        assert second.rule_set() == {
            (r.body, r.head, round(r.support, 9), round(r.confidence, 9))
            for r in first.rules
        }

    def test_reuse_skips_preprocessing_queries(self, purchase_db):
        system = MiningSystem(database=purchase_db)
        system.execute(SIMPLE)
        before = purchase_db.statements_executed
        second = system.execute(SIMPLE.replace("Out", "Out2"))
        executed = purchase_db.statements_executed - before
        assert second.preprocess_stats is None
        # only output handling runs; far fewer statements than a full
        # preprocessing (which runs > 15 setup+Q statements)
        assert executed < 10

    def test_different_confidence_still_reuses(self, purchase_db):
        # confidence does not parameterize the encoded tables
        system = MiningSystem(database=purchase_db)
        system.execute(SIMPLE)
        second = system.execute(
            SIMPLE.replace("Out", "Out2").replace(
                "CONFIDENCE: 0.5", "CONFIDENCE: 0.9"
            )
        )
        assert second.preprocessing_reused
        assert all(r.confidence >= 0.9 for r in second.rules)

    def test_different_support_does_not_reuse(self, purchase_db):
        # support parameterizes Bset (:mingroups), so no reuse
        system = MiningSystem(database=purchase_db)
        system.execute(SIMPLE)
        second = system.execute(
            SIMPLE.replace("Out", "Out2").replace(
                "SUPPORT: 0.5", "SUPPORT: 0.9"
            )
        )
        assert not second.preprocessing_reused

    def test_different_grouping_does_not_reuse(self, purchase_db):
        system = MiningSystem(database=purchase_db)
        system.execute(SIMPLE)
        second = system.execute(
            SIMPLE.replace("Out", "Out2").replace(
                "GROUP BY customer", "GROUP BY tr"
            )
        )
        assert not second.preprocessing_reused

    def test_reused_run_parses_its_statement_once(
        self, purchase_db, monkeypatch
    ):
        """The re-targeted program is translated from the parsed
        statement, and so is a forced full re-mine."""
        from repro.kernel import translator

        parses = []

        def counting_parse(text):
            parses.append(text)
            return parse_mine_rule(text)

        monkeypatch.setattr(translator, "parse_mine_rule", counting_parse)
        system = MiningSystem(database=purchase_db)
        system.execute(SIMPLE)
        del parses[:]
        assert system.execute(SIMPLE.replace("Out", "Out2")).preprocessing_reused
        assert len(parses) == 1
        system.refresh("Out")  # captures the mining state
        purchase_db.execute("DELETE FROM Purchase WHERE customer = 'cust1'")
        assert system.refresh("Out").stats.mode == "full"
        assert len(parses) == 1

    def test_reuse_can_be_disabled(self, purchase_db):
        system = MiningSystem(database=purchase_db,
                              reuse_preprocessing=False)
        system.execute(SIMPLE)
        second = system.execute(SIMPLE.replace("Out", "Out2"))
        assert not second.preprocessing_reused

    def test_invalidate_after_data_change(self, purchase_db):
        system = MiningSystem(database=purchase_db)
        first = system.execute(SIMPLE)
        purchase_db.execute(
            "INSERT INTO Purchase VALUES "
            "(5, 'cust3', 'jackets', DATE '1995-12-20', 300, 1)"
        )
        system.invalidate_preprocessing()
        second = system.execute(SIMPLE.replace("Out", "Out2"))
        assert not second.preprocessing_reused
        assert purchase_db.variables["totg"] == 3



RICH = (
    "MINE RULE {out} AS SELECT DISTINCT 1..n item AS BODY, "
    "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
    "GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
)


def rich(out, confidence=0.3, support=0.2):
    return RICH.format(out=out, confidence=confidence, support=support)


def rich_db():
    database = Database()
    load_purchase_synthetic(database, customers=30, seed=7)
    return database


@pytest.fixture
def loads(monkeypatch):
    """The calls of ``CoreInputLoader.load_simple_columns``, counted."""
    calls = []
    load = CoreInputLoader.load_simple_columns

    def counted(self):
        calls.append(self)
        return load(self)

    monkeypatch.setattr(CoreInputLoader, "load_simple_columns", counted)
    return calls


def reused_input(result):
    return [e.detail for e in result.flow.events
            if (e.component, e.action) == ("core", "reused core input")]


APPEND = (
    "INSERT INTO Purchase VALUES "
    "(900, 'cust99', 'belt_14', DATE '1995-01-30', 27.43, 1)"
)


def cold_core(database, result):
    """The encoded rules a cold core computes on *result*'s encoded
    tables as they stand: the reference SQL loader, a fresh member."""
    loader = CoreInputLoader(database, result.program.core)
    return SimpleCoreOperator(get_algorithm("apriori")).run(
        loader.load_simple(), result.program.core
    )


class TestReusedCoreInput:
    """The reuse-cache entry keeps the simple core's input: a reusing
    statement mines the stored bitmaps instead of reading CodedSource
    again, and the input is dropped or rebuilt whenever the encoded
    tables it came from may have changed."""

    @pytest.mark.parametrize("algorithm", ["apriori", "eclat", "auto"])
    def test_reuse_skips_the_load_and_equals_a_cold_run(
        self, algorithm, loads
    ):
        system = MiningSystem(database=rich_db(), algorithm=algorithm)
        system.run(rich("Warm"))
        assert len(loads) == 1
        for confidence in (0.2, 0.4, 0.6):
            out = f"Out{int(confidence * 10)}"
            result = system.run(rich(out, confidence))
            assert len(loads) == 1  # the warm-up's, and no other
            assert result.preprocessing_reused
            assert reused_input(result) == [
                "30 encoded groups of MR1_CodedSource"
            ]
            cold = MiningSystem(database=rich_db(), algorithm=algorithm,
                                reuse_preprocessing=False)
            assert result.rule_set() == cold.run(
                rich(out, confidence)
            ).rule_set()
            del loads[1:]  # the cold run's

    def test_rebuilt_after_invalidate(self, loads):
        system = MiningSystem(database=rich_db())
        system.run(rich("A"))
        system.invalidate_preprocessing()
        result = system.run(rich("B"))
        assert not result.preprocessing_reused and not reused_input(result)
        assert len(loads) == 2

    def test_rebuilt_for_a_different_support(self, loads):
        system = MiningSystem(database=rich_db())
        system.run(rich("A"))
        result = system.run(rich("B", support=0.3))
        assert not reused_input(result)
        assert len(loads) == 2
        assert reused_input(system.run(rich("C", support=0.3)))
        assert len(loads) == 2

    def test_rebuilt_after_an_incremental_refresh(self, loads):
        database = rich_db()
        system = MiningSystem(database=database)
        system.run(rich("A"))
        database.execute(APPEND)
        assert system.refresh("A").stats.mode == "incremental"
        result = system.run(rich("B", confidence=0.5))
        assert not result.preprocessing_reused and not reused_input(result)
        assert len(loads) == 2
        appended = rich_db()
        appended.execute(APPEND)
        cold = MiningSystem(database=appended, reuse_preprocessing=False)
        expected = cold.run(rich("B", confidence=0.5)).rule_set()
        assert result.rule_set() == expected

    def test_rebuilt_after_a_forced_full_remine(self, loads):
        database = rich_db()
        system = MiningSystem(database=database)
        system.run(rich("A"))
        system.refresh("A")  # captures the mining state
        database.execute("DELETE FROM Purchase WHERE customer = 'cust1'")
        refreshed = system.refresh("A")
        assert refreshed.stats.mode == "full"
        assert not reused_input(refreshed)
        assert len(loads) == 2
        # the re-mine's input is the one the next statement reuses
        result = system.run(rich("B", confidence=0.5))
        assert reused_input(result) and len(loads) == 2
        assert result.encoded_rules == cold_core(database, result)

    @pytest.mark.parametrize("edit", [
        "DELETE FROM MR1_CodedSource WHERE Gid = 3",
        "INSERT INTO MR1_CodedSource VALUES (3, 1)",
        "UPDATE MR1_CodedSource SET Bid = 2 WHERE Gid = 4",
    ], ids=["delete", "insert", "update"])
    def test_rebuilt_after_an_edit_of_coded_source(self, edit, loads):
        database = rich_db()
        system = MiningSystem(database=database)
        system.run(rich("A"))
        before = len(database.catalog.get_table("MR1_CodedSource"))
        database.execute(edit)
        result = system.run(rich("B", confidence=0.5))
        assert result.preprocessing_reused  # the tables, not the input
        assert not reused_input(result)
        assert len(loads) == 2
        assert result.encoded_rules == cold_core(database, result)
        if "INSERT" in edit:
            assert len(database.catalog.get_table("MR1_CodedSource")) > before
        # the rebuilt input is stamped with the edited table
        assert reused_input(system.run(rich("C", confidence=0.5)))
        assert len(loads) == 2

    @pytest.mark.parametrize("gid", [10**12, 0, -5],
                             ids=["huge", "zero", "negative"])
    def test_gids_that_are_not_dense_are_renumbered_once(
        self, gid, loads, monkeypatch
    ):
        # CodedSource is a user table: an edited Gid that cannot be its
        # own bit slot is renumbered before the same build, and sizes
        # no bitmap
        renumbered = []
        renumber = bitset._renumbered

        def counted(ids):
            renumbered.append(len(ids))
            return renumber(ids)

        monkeypatch.setattr(bitset, "_renumbered", counted)
        database = rich_db()
        system = MiningSystem(database=database)
        system.run(rich("A"))
        assert renumbered == []  # the sequence's Gids are dense
        database.execute(f"UPDATE MR1_CodedSource SET Gid = {gid} WHERE Gid = 4")
        result = system.run(rich("B", confidence=0.5))
        assert not reused_input(result) and len(loads) == 2
        rows = len(database.catalog.get_table("MR1_CodedSource"))
        assert renumbered == [rows]
        assert result.encoded_rules == cold_core(database, result)
        (kept,) = [reuse.core_input for reuse in system._preprocess_cache.values()
                   if reuse.core_input is not None]
        assert len(kept) == 30
        assert all(bitmap.bit_length() <= 2 * rows
                   for bitmap in kept.bitmaps.values())

    def test_rebuilt_when_coded_source_is_replaced(self, loads):
        # a new table object with as many rows and no rewrite yet
        database = rich_db()
        system = MiningSystem(database=database)
        system.run(rich("A"))
        table = database.catalog.get_table("MR1_CodedSource")
        rows = [(gid, bid) for gid, bid in table.rows if gid != 3]
        rows += [(3, 1)] * (len(table) - len(rows))
        database.create_table_from_rows(
            "MR1_CodedSource", table.columns, rows, table.types, replace=True
        )
        assert database.catalog.get_table("MR1_CodedSource").rewrites == 0
        result = system.run(rich("B", confidence=0.5))
        assert not reused_input(result) and len(loads) == 2
        assert result.encoded_rules == cold_core(database, result)

    def test_core_load_fault_fires_on_a_reuse_hit(self, loads):
        system = MiningSystem(database=rich_db())
        system.run(rich("A"))
        schedule = FaultSchedule().arm("core.load")
        with faults.injected(schedule):
            with pytest.raises(FaultError):
                system.run(rich("B", confidence=0.5))
            assert schedule.fired == [("core.load", 1, "error")]
            rerun = system.run(rich("B", confidence=0.5))
        assert reused_input(rerun) and len(loads) == 1
        reference = MiningSystem(database=rich_db())
        reference.run(rich("A"))
        assert rerun.rule_set() == reference.run(
            rich("B", confidence=0.5)
        ).rule_set()

    def test_failed_build_leaves_nothing_cached(self, loads, monkeypatch):
        system = MiningSystem(database=rich_db())
        build = VerticalInput.from_columns

        def broken(gid_col, bid_col):
            raise RuntimeError("input build failed")

        monkeypatch.setattr(VerticalInput, "from_columns", broken)
        with pytest.raises(RuntimeError, match="input build failed"):
            system.run(rich("A"))
        assert all(reuse.core_input is None
                   for reuse in system._preprocess_cache.values())
        monkeypatch.setattr(VerticalInput, "from_columns", build)
        result = system.run(rich("A"))
        assert result.preprocessing_reused and not reused_input(result)
        assert len(loads) == 2
        assert reused_input(system.run(rich("B")))
        assert len(loads) == 2


class TestMultipleExecutions:
    def test_output_tables_coexist(self, system):
        system.execute(SIMPLE)
        system.execute(SIMPLE.replace("Out", "Other"))
        assert system.db.catalog.has_table("Out")
        assert system.db.catalog.has_table("Other")

    def test_rerun_same_output_table_replaces(self, system):
        system.execute(SIMPLE)
        result = system.execute(SIMPLE)
        count = system.db.execute("SELECT COUNT(*) FROM Out").scalar()
        assert count == len(result.rules)

    def test_workspaces_are_isolated(self, system):
        first = system.execute(SIMPLE)
        second = system.execute(
            SIMPLE.replace("Out", "Out2").replace(
                "SUPPORT: 0.5", "SUPPORT: 0.2"
            )
        )
        assert (
            first.program.workspace.prefix != second.program.workspace.prefix
        )


class TestErrorPaths:
    def test_parse_error_propagates(self, system):
        with pytest.raises(MineRuleParseError):
            system.execute("MINE RULE broken FROM nowhere")

    def test_validation_error_propagates(self, system):
        with pytest.raises(MineRuleValidationError):
            system.execute(SIMPLE.replace("item AS BODY", "sku AS BODY"))

    def test_missing_table_propagates(self, system):
        with pytest.raises(CatalogError):
            system.execute(SIMPLE.replace("FROM Purchase", "FROM Missing"))

    def test_failed_execution_leaves_system_usable(self, system):
        with pytest.raises(MineRuleParseError):
            system.execute("garbage")
        assert system.execute(SIMPLE).rules  # still works


class TestEmptyResults:
    def test_impossible_support_yields_empty_tables(self, system):
        result = system.execute(
            SIMPLE.replace("SUPPORT: 0.5", "SUPPORT: 1.0").replace(
                "CONFIDENCE: 0.5", "CONFIDENCE: 1.0"
            )
        )
        # with support 1.0 only items in *every* group survive; no
        # cross-customer pair exists except jackets alone
        assert all(
            {"jackets"} == set(r.body | r.head) or True for r in result.rules
        )
        assert system.db.catalog.has_table("Out")

    def test_empty_source_yields_no_rules(self):
        database = Database()
        load_purchase_figure1(database)
        database.execute("DELETE FROM Purchase")
        system = MiningSystem(database=database)
        result = system.execute(SIMPLE)
        assert result.rules == []
        assert database.execute("SELECT COUNT(*) FROM Out").scalar() == 0


class TestWorkspaceCleanup:
    def test_invalidate_with_drop_tables(self, purchase_db):
        system = MiningSystem(database=purchase_db)
        result = system.execute(SIMPLE)
        workspace = result.program.workspace
        assert purchase_db.catalog.has_table(workspace.bset)
        system.invalidate_preprocessing(drop_tables=True)
        assert not purchase_db.catalog.has_table(workspace.bset)
        assert not purchase_db.catalog.has_view(workspace.coded_source) \
            or True  # simple path: CodedSource was a table
        assert not purchase_db.catalog.has_table(workspace.coded_source)
        # output tables survive: they belong to the user
        assert purchase_db.catalog.has_table("Out")
        # and the system still works afterwards
        assert system.execute(SIMPLE.replace("Out", "Out2")).rules

    def test_cold_runs_leave_no_dead_plans_behind(self, purchase_db):
        """Every run's workspace prefix makes its SQL text new, so the
        plans of a dropped workspace can never be looked up again: they
        must leave the statement cache's entries (with the tables and
        decoded columns they pin) instead of piling up until LRU
        eviction."""
        from repro.sqlengine.vector import SubplanSource

        def scanned_tables(plan):
            for node in plan.nodes():
                if isinstance(node, SubplanSource):
                    yield from scanned_tables(node.plan)
                elif hasattr(node, "table"):
                    yield node.table

        def plans(database):
            return [
                entry.plan for entry in database._statement_cache.values()
                if entry.plan is not None
            ]

        def assert_only_live_tables(database):
            catalog = database.catalog
            for plan in plans(database):
                for table in scanned_tables(plan):
                    assert catalog.has_table(table.name), table.name
                    assert catalog.get_table(table.name) is table

        system = MiningSystem(database=purchase_db)
        sizes = []
        for _ in range(6):
            system.execute(SIMPLE)
            assert_only_live_tables(purchase_db)
            sizes.append(len(plans(purchase_db)))
            system.invalidate_preprocessing(drop_tables=True)
        # flat, not one run's worth of plans more per cycle
        assert max(sizes) == sizes[0]
        # the next statement sweeps what the last drop made stale
        purchase_db.query("SELECT COUNT(*) FROM Purchase")
        assert len(plans(purchase_db)) == 1
        assert_only_live_tables(purchase_db)

"""Property: every generated translation program is executable.

Random MINE RULE statements spanning the full directive space
(H, W, M, G, C, K, F, R combinations) are translated; every emitted
query must parse, and the whole pipeline must run on a small synthetic
source table producing semantically valid rules.
"""

import math

from hypothesis import given, settings

from repro import MiningSystem
from repro.sqlengine.parser import parse_sql
from tests.property.minerule_cases import build_db, cases, source_rows

rows_strategy = source_rows()


def statements():
    """Statement texts over the directive space, cardinalities and
    ``1..n`` heads included (:mod:`tests.property.minerule_cases`)."""
    return cases().map(lambda case: case.text)


class TestExecutablePrograms:
    @given(rows=rows_strategy, text=statements())
    @settings(max_examples=60, deadline=None)
    def test_program_parses_and_runs(self, rows, text):
        db = build_db(rows)
        system = MiningSystem(database=db)
        result = system.execute(text)

        # every generated query is valid SQL
        program = result.program
        for query in (
            program.setup + program.preprocessing + program.postprocessing
        ):
            parse_sql(query.sql)

        # semantic sanity of whatever came out
        totg = db.variables["totg"]
        min_support = result.statement.min_support
        for rule in result.rules:
            assert 0.0 < rule.support <= 1.0
            assert 0.0 < rule.confidence <= 1.0 + 1e-9
            assert rule.support * totg >= math.ceil(
                min_support * totg - 1e-9
            ) - 1e-9
            assert rule.confidence >= result.statement.min_confidence - 1e-9
            assert rule.body and rule.head

        # the output relations exist and are consistent
        count = db.execute("SELECT COUNT(*) FROM Out").scalar()
        assert count == len(result.rules)

    @given(rows=rows_strategy, text=statements())
    @settings(max_examples=30, deadline=None)
    def test_rerun_is_deterministic(self, rows, text):
        db = build_db(rows)
        system = MiningSystem(database=db, reuse_preprocessing=False)
        first = system.execute(text)
        second = system.execute(text)
        assert first.rule_set() == second.rule_set()

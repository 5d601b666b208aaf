"""The system against the executable reference semantics of MINE RULE
(:mod:`tests.minerule_reference`, the code form of DESIGN.md section 3).

Every generated statement over the eight directives runs through the
whole kernel — parser, translator, preprocessor on the SQL engine, core
operator, postprocessor — and all four output relations must equal what
the reference computes from the source rows alone.  Surrogate keys
(``BodyId`` / ``HeadId``) are compared through what they stand for.

The example budget is the active hypothesis profile's (``default``: 100;
CI runs this file under ``--hypothesis-profile=oracle-ci``, registered
in the root ``conftest.py``).
"""

import datetime

from hypothesis import given, settings

from repro import MiningSystem
from repro.datagen.retail import PURCHASE_COLUMNS, figure1_rows
from tests import minerule_reference as reference
from tests.property.minerule_cases import (
    CLUSTER,
    build_db,
    cases,
    source_rows,
)


def system_tables(db, out="Out"):
    return {
        name: db.query(f"SELECT * FROM {name}")
        for name in (out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display")
    }


def test_all_four_output_tables_equal_the_reference():
    """... on every example, and the examples of one run set and clear
    each of H, W, M, G, C, K, F, R.  The budget is spent in one round
    per CLUSTER BY shape: hypothesis is no uniform sampler — left to
    draw the shape it leaves the aggregate cluster condition (F) out of
    one run of 100 in five."""
    seen = set()
    budget = max(1, settings.default.max_examples // len(CLUSTER))
    for cluster in CLUSTER:

        @given(case=cases(cluster), rows=source_rows())
        @settings(max_examples=budget, deadline=None)
        def check(case, rows):
            db = build_db(rows)
            result = MiningSystem(database=db).execute(case.text)
            assert result.directives.as_tuple() == case.directives
            seen.add(case.directives)
            expected = reference.output_tables(case.statement, rows)
            assert reference.canonical_tables(
                system_tables(db)
            ) == reference.canonical_tables(expected)

        check()
    for position, name in enumerate("HWMGCKFR"):
        drawn = {directives[position] for directives in seen}
        assert drawn == {True, False}, f"{name} drawn only as {drawn}"


SIX_ROWS = [
    dict(grp=g, ckey=1, item=i, tag=t, price=1)
    for g, i, t in [
        (1, "a", "t1"), (1, "b", "t2"), (2, "a", "t2"),
        (2, "b", "t2"), (3, "a", "t1"), (3, "c", "t1"),
    ]
]
SIX_ROWS_TEXT = (
    "MINE RULE Out AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE WHERE BODY.tag = 't1' FROM Src GROUP BY grp "
    "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.0"
)


def test_confidence_denominator_ignores_the_mining_condition():
    """DESIGN.md section 3, point 6, on six rows: ``a`` is a body in
    all three groups although only groups 1 and 3 hold it with tag
    ``t1``, so {a} => {b} (group 1 alone) has confidence 1/3, not 1/2."""
    statement = reference.Statement(
        body=("item",), head=("item",), group_by=("grp",),
        min_support=0.1, min_confidence=0.0,
        mining_condition=lambda b, h: b["tag"] == "t1",
    )
    by_sides = {
        (tuple(sorted(rule.body)), tuple(sorted(rule.head))): rule
        for rule in reference.mine_rule(statement, SIX_ROWS)
    }
    rule = by_sides[("a",), ("b",)]
    assert (rule.support_count, rule.body_count) == (1, 3)
    assert (rule.support, rule.confidence) == (1 / 3, 1 / 3)
    assert set(by_sides) == {(("a",), ("b",)), (("a",), ("c",)),
                             (("c",), ("a",))}

    db = build_db(SIX_ROWS)
    MiningSystem(database=db).execute(SIX_ROWS_TEXT)
    assert reference.canonical_tables(
        system_tables(db)
    ) == reference.canonical_tables(
        reference.output_tables(statement, SIX_ROWS)
    )


def test_reference_reproduces_figure_2b():
    """The reference alone, against the paper's numbers."""
    rows = [dict(zip(PURCHASE_COLUMNS, row)) for row in figure1_rows()]
    year = (datetime.date(1995, 1, 1), datetime.date(1995, 12, 31))
    statement = reference.Statement(
        body=("item",), head=("item",), group_by=("customer",),
        cluster_by=("date",), head_card=(1, None),
        min_support=0.2, min_confidence=0.3,
        source_condition=lambda row: year[0] <= row["date"] <= year[1],
        cluster_condition=lambda b, h: b[0]["date"] < h[0]["date"],
        mining_condition=lambda b, h: b["price"] >= 100 and h["price"] < 100,
    )
    tables = reference.output_tables(statement, rows, "FilteredOrderedSets")
    assert tables["FilteredOrderedSets_Display"] == [
        ("{brown_boots,jackets}", "{col_shirts}", 0.5, 1.0),
        ("{brown_boots}", "{col_shirts}", 0.5, 1.0),
        ("{jackets}", "{col_shirts}", 0.5, 0.5),
    ]

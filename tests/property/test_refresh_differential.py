"""Differential property: REFRESH RULES == from-scratch MINE RULE.

The contract of :mod:`repro.incremental` is *bit-identity*: for any
append schedule — empty deltas, batches that push border itemsets over
the support threshold, batches that dilute frequent itemsets below it
(``totg`` grows, so ``mingroups`` rises), new items, new groups, a
first run mined in the ``"set"`` layout — a chain of REFRESH runs must
leave every output table (out, ``_Bodies``, ``_Heads``, ``_Display``)
byte-equal to mining the final table from scratch.  Hypothesis drives the schedules; the tables
are compared row-for-row including order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, MiningSystem
from repro.sqlengine.types import SqlType

STATEMENT = (
    "MINE RULE RefreshDiff AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Baskets GROUP BY basket "
    "EXTRACTING RULES WITH SUPPORT: 0.3, CONFIDENCE: 0.4"
)

ITEMS = ["i%d" % n for n in range(8)]

#: one basket: a group id and a non-empty item subset
baskets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=8,
)

#: an append schedule: the seed load plus up to 3 delta batches
#: (batches may be empty — an empty-delta refresh must also hold)
schedules = st.tuples(
    baskets,
    st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=14),
                st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
            ),
            max_size=6,
        ),
        min_size=1,
        max_size=3,
    ),
)


def _rows(batch):
    return [
        (gid, item) for gid, items in batch for item in sorted(items)
    ]


def _fresh_system(rows, **system_arguments):
    database = Database()
    database.create_table_from_rows(
        "Baskets",
        ("basket", "item"),
        rows,
        (SqlType.INTEGER, SqlType.VARCHAR),
        replace=True,
    )
    return MiningSystem(database=database, **system_arguments)


def _append(system, rows):
    table = system.db.catalog.get_table("Baskets")
    for row in rows:
        table.insert(list(row))


def _dump(system):
    out = "RefreshDiff"
    tables = []
    for suffix in ("", "_Bodies", "_Heads", "_Display"):
        table = system.db.catalog.get_table(out + suffix)
        tables.append(
            (
                out + suffix,
                tuple(table.columns),
                [tuple(row) for row in table.rows],
            )
        )
    return tables


class TestRefreshMatchesScratch:
    @given(schedule=schedules)
    @settings(max_examples=40, deadline=None)
    def test_refresh_chain_is_bit_identical(self, schedule):
        seed, deltas = schedule
        seed_rows = _rows(seed)
        incremental = _fresh_system(seed_rows)
        incremental.run(STATEMENT)
        incremental.refresh("RefreshDiff")  # captures state

        all_rows = list(seed_rows)
        for batch in deltas:
            delta_rows = _rows(batch)
            all_rows.extend(delta_rows)
            _append(incremental, delta_rows)
            result = incremental.refresh("RefreshDiff")
            assert result.stats.mode == "incremental"
            assert result.stats.delta_rows == len(delta_rows)

        scratch = _fresh_system(all_rows)
        scratch.run(STATEMENT)
        assert _dump(incremental) == _dump(scratch)

    @given(schedule=schedules)
    @settings(max_examples=10, deadline=None)
    def test_refresh_after_set_layout_run_matches_scratch(self, schedule):
        seed, deltas = schedule
        seed_rows = _rows(seed)
        incremental = _fresh_system(seed_rows, representation="set")
        incremental.run(STATEMENT)
        incremental.refresh("RefreshDiff")

        all_rows = list(seed_rows)
        for batch in deltas:
            delta_rows = _rows(batch)
            all_rows.extend(delta_rows)
            _append(incremental, delta_rows)
            incremental.refresh("RefreshDiff")

        scratch = _fresh_system(all_rows)
        scratch.run(STATEMENT)
        assert _dump(incremental) == _dump(scratch)

    @given(batch=baskets)
    @settings(max_examples=20, deadline=None)
    def test_empty_delta_refresh_is_idempotent(self, batch):
        system = _fresh_system(_rows(batch))
        system.run(STATEMENT)
        system.refresh("RefreshDiff")
        before = _dump(system)
        result = system.refresh("RefreshDiff")
        assert result.stats.delta_rows == 0
        assert _dump(system) == before


class TestBorderCrossings:
    """Deterministic schedules that force border traffic both ways."""

    def test_border_itemset_turns_frequent(self):
        # {a,b} appears in 1 of 4 groups (border at support 0.3);
        # appending two more {a,b} groups pushes it over
        seed = [(g, "a") for g in range(4)] + [(0, "b")]
        system = _fresh_system(seed)
        system.run(STATEMENT)
        system.refresh("RefreshDiff")
        _append(system, [(4, "a"), (4, "b"), (5, "a"), (5, "b")])
        result = system.refresh("RefreshDiff")
        assert result.stats.mode == "incremental"
        assert result.stats.recounted_itemsets > 0  # crossed upward

        scratch = _fresh_system(
            seed + [(4, "a"), (4, "b"), (5, "a"), (5, "b")]
        )
        scratch.run(STATEMENT)
        assert _dump(system) == _dump(scratch)

    def test_frequent_itemset_dilutes_below_threshold(self):
        # {a,b} frequent in 2 of 4 groups; appending 8 groups without
        # it drops its support under 0.3
        seed = [(g, "a") for g in range(4)] + [(0, "b"), (1, "b")]
        system = _fresh_system(seed)
        system.run(STATEMENT)
        system.refresh("RefreshDiff")
        delta = [(4 + g, "c") for g in range(8)]
        _append(system, delta)
        system.refresh("RefreshDiff")

        scratch = _fresh_system(seed + delta)
        scratch.run(STATEMENT)
        assert _dump(system) == _dump(scratch)

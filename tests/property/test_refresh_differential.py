"""Differential property: REFRESH RULES == from-scratch MINE RULE.

The contract of :mod:`repro.incremental` is *bit-identity*: for any
append schedule — empty deltas, batches that push border itemsets over
the support threshold, batches that dilute frequent itemsets below it
(``totg`` grows, so ``mingroups`` rises), new items, new groups, a
source condition on an aliased table, a columnar source — a chain of
REFRESH runs must leave
every output table (out, ``_Bodies``, ``_Heads``, ``_Display``)
byte-equal to mining the final table from scratch.  Hypothesis drives
the schedules; the tables are compared row-for-row including order.
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

#: the same statement behind a source condition that names its table
#: through an alias: the increment must answer to ``B`` as Baskets does
FILTERED = STATEMENT.replace(
    "FROM Baskets GROUP", "FROM Baskets AS B WHERE B.qty > 1 GROUP"
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
    # qty is a function of the pair, so FILTERED keeps about two pairs
    # in three of any schedule
    return [
        (gid, item, 1 + (gid + int(item[1:])) % 3)
        for gid, items in batch for item in sorted(items)
    ]


def _fresh_system(rows, storage="row", **system_arguments):
    database = Database()
    database.storage_hints["baskets"] = storage
    database.create_table_from_rows(
        "Baskets",
        ("basket", "item", "qty"),
        rows,
        (SqlType.INTEGER, SqlType.VARCHAR, SqlType.INTEGER),
        replace=True,
    )
    assert database.catalog.get_table("Baskets").storage == storage
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


def _check_chain(schedule, statement=STATEMENT, **system_arguments):
    """Mine the seed load, capture, then append + refresh per batch;
    the tables must equal a from-scratch run on everything appended."""
    seed, deltas = schedule
    all_rows = _rows(seed)
    incremental = _fresh_system(all_rows, **system_arguments)
    incremental.run(statement)
    incremental.refresh("RefreshDiff")  # captures state

    for batch in deltas:
        delta_rows = _rows(batch)
        all_rows = all_rows + delta_rows
        _append(incremental, delta_rows)
        result = incremental.refresh("RefreshDiff")
        assert result.stats.mode == "incremental"
        assert result.stats.delta_rows == len(delta_rows)
        assert result.stats.scanned_rows == len(delta_rows)

    scratch = _fresh_system(all_rows)
    scratch.run(statement)
    assert _dump(incremental) == _dump(scratch)


class TestRefreshMatchesScratch:
    @given(schedule=schedules)
    @settings(max_examples=40, deadline=None)
    def test_refresh_chain_is_bit_identical(self, schedule):
        _check_chain(schedule)

    @given(schedule=schedules)
    @settings(max_examples=20, deadline=None)
    def test_source_condition_on_aliased_table_matches_scratch(
        self, schedule
    ):
        _check_chain(schedule, FILTERED)

    @given(schedule=schedules, statement=st.sampled_from([STATEMENT, FILTERED]))
    @settings(max_examples=20, deadline=None)
    def test_columnar_source_matches_scratch(self, schedule, statement):
        _check_chain(schedule, statement, storage="columnar")

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

    @pytest.mark.parametrize("storage", ["row", "columnar"])
    @pytest.mark.parametrize("statement", [STATEMENT, FILTERED])
    def test_one_batch_mixes_every_kind_of_pair(self, statement, storage):
        # one increment that repeats a snapshot pair, adds a new item to
        # an old group, an old item to a new group, and a new item to a
        # new group (qty 2 or 3 throughout, so FILTERED sees them all)
        seed = [(0, {"i2", "i5"}), (1, {"i1", "i4"}), (3, {"i2", "i5"})]
        batch = [
            (0, {"i2"}),   # repeated pair
            (0, {"i4"}),   # old item, old group, new pair
            (3, {"i8"}),   # new item to an old group
            (6, {"i2"}),   # old item to a new group
            (6, {"i5"}),
            (9, {"i11"}),  # new item to a new group
        ]
        assert all(row[2] > 1 for row in _rows(seed + batch))
        system = _fresh_system(_rows(seed), storage=storage)
        system.run(statement)
        system.refresh("RefreshDiff")
        _append(system, _rows(batch))
        stats = system.refresh("RefreshDiff").stats
        assert (stats.delta_rows, stats.delta_pairs) == (6, 5)
        assert (stats.new_items, stats.new_groups) == (2, 2)
        assert stats.touched_groups == 4  # two of them old

        scratch = _fresh_system(_rows(seed + batch))
        scratch.run(statement)
        assert _dump(system) == _dump(scratch)

    def test_border_itemset_turns_frequent(self):
        # {a,b} appears in 1 of 4 groups (border at support 0.3);
        # appending two more {a,b} groups pushes it over
        seed = [(g, "a", 1) for g in range(4)] + [(0, "b", 1)]
        system = _fresh_system(seed)
        system.run(STATEMENT)
        system.refresh("RefreshDiff")
        delta = [(4, "a", 1), (4, "b", 1), (5, "a", 1), (5, "b", 1)]
        _append(system, delta)
        result = system.refresh("RefreshDiff")
        assert result.stats.mode == "incremental"
        assert result.stats.recounted_itemsets > 0  # crossed upward

        scratch = _fresh_system(seed + delta)
        scratch.run(STATEMENT)
        assert _dump(system) == _dump(scratch)

    def test_frequent_itemset_dilutes_below_threshold(self):
        # {a,b} frequent in 2 of 4 groups; appending 8 groups without
        # it drops its support under 0.3
        seed = [(g, "a", 1) for g in range(4)] + [(0, "b", 1), (1, "b", 1)]
        system = _fresh_system(seed)
        system.run(STATEMENT)
        system.refresh("RefreshDiff")
        delta = [(4 + g, "c", 1) for g in range(8)]
        _append(system, delta)
        system.refresh("RefreshDiff")

        scratch = _fresh_system(seed + delta)
        scratch.run(STATEMENT)
        assert _dump(system) == _dump(scratch)

"""Unit tests for the big-int bitmap kernel, the eclat pool member and
the layout the system reports for each core variant."""

import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.apriori import Apriori
from repro.algorithms.bitset import (
    BitsetStats,
    GroupedUniverse,
    SlotUniverse,
    VerticalInput,
    count_itemsets,
    mask_from_slots,
)
from repro.algorithms.eclat import Eclat
from repro.algorithms.selector import InputStatistics, select_algorithm
from repro.kernel.core.general import GeneralCoreOperator


def groups_of(*itemsets):
    return {gid: frozenset(items) for gid, items in enumerate(itemsets, 1)}


EXAMPLE = groups_of({1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3})


class TestSlotUniverse:
    def test_slots_assigned_in_first_appearance_order(self):
        universe = SlotUniverse(["c", "a", "b"])
        assert universe.slot("c") == 0
        assert universe.slot("a") == 1
        assert universe.slot("b") == 2
        assert universe.slot("c") == 0  # stable on re-intern
        assert len(universe) == 3

    def test_contains(self):
        universe = SlotUniverse([1])
        assert 1 in universe
        assert 2 not in universe


class TestVerticalInput:
    GIDS = [70, 30, 70, 50, 30, 70]
    BIDS = [2, 2, 1, 9, 1, 2]  # (70, 2) twice

    def test_from_columns_slots_in_first_appearance_order(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert list(vertical.universe) == [70, 30, 50]
        assert len(vertical) == 3
        assert vertical.entries == 6
        # the repeated pair repeats its slot; the bitmap absorbs it
        assert vertical.slots_of == {2: [0, 1, 0], 1: [0, 1], 9: [2]}
        assert vertical.gid_lists() == {1: 0b011, 2: 0b011, 9: 0b100}

    def test_from_groups_inverts_the_group_map(self):
        groups = groups_of({1, 2}, {2})
        vertical = VerticalInput.from_groups(groups)
        assert {i: sorted(s) for i, s in vertical.slots_of.items()} == {
            1: [0], 2: [0, 1]
        }
        assert vertical.entries == 3
        assert vertical.groups is groups  # nothing derived

    def test_gid_lists_ascending_and_pruned_before_materialisation(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert list(vertical.gid_lists()) == [1, 2, 9]
        assert list(vertical.gid_lists(min_count=2)) == [1, 2]
        assert vertical.gid_lists(min_count=4) == {}

    def test_horizontal_view_is_lazy_and_cached(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert vertical._groups is None
        groups = vertical.groups
        assert groups == {
            70: frozenset({1, 2}), 30: frozenset({1, 2}), 50: frozenset({9})
        }
        assert list(groups) == [70, 30, 50]
        assert vertical.groups is groups

    def test_of_normalises(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert VerticalInput.of(vertical) is vertical
        assert VerticalInput.of(EXAMPLE).groups is EXAMPLE
        assert len(VerticalInput.of({})) == 0

    def test_count_itemsets(self):
        vertical = VerticalInput.from_groups(EXAMPLE)
        stats = BitsetStats()
        candidates = [
            frozenset({1, 2}), frozenset({2}), frozenset({1, 5}),
            frozenset({1, 7}),  # 7 occurs nowhere
        ]
        assert count_itemsets(vertical, candidates, 2, stats) == {
            frozenset({1, 2}): 2, frozenset({2}): 4
        }
        assert stats.universe_sizes == {"gid": 5}


class TestMaskFromSlots:
    @pytest.mark.parametrize(
        "slots, nbytes",
        [
            ([], 0),
            ([], 3),
            ([5, 5, 5], 1),  # duplicates
            ([7, 8], 2),  # byte boundary
            ([63, 64], 9),  # word boundary
            ([0, 7, 8, 63, 64, 71], 9),  # last slot of the universe
            (iter([3, 1, 2]), 1),  # any iterable, any order
        ],
    )
    def test_equals_the_or_of_shifts(self, slots, nbytes):
        slots = list(slots)
        expected = 0
        for slot in slots:
            expected |= 1 << slot
        assert mask_from_slots(slots, nbytes) == expected

    def test_slot_beyond_the_universe_rejected(self):
        with pytest.raises(IndexError):
            mask_from_slots([8], 1)


class TestGroupedUniverse:
    def test_group_count_counts_distinct_keys(self):
        universe = GroupedUniverse()
        # two slots in group 1, one in group 2, two in group 3
        slots = [universe.add(key) for key in (1, 1, 2, 3, 3)]
        mask = mask_from_slots(slots, universe.nbytes)
        assert universe.group_count(mask) == 3
        # subset hitting two groups
        sub = mask_from_slots([slots[1], slots[4]], universe.nbytes)
        assert universe.group_count(sub) == 2
        assert universe.group_count(0) == 0

    def test_non_contiguous_interning_rejected(self):
        universe = GroupedUniverse()
        universe.add(1)
        universe.add(2)
        with pytest.raises(ValueError, match="non-contiguously"):
            universe.add(1)

    def test_group_count_calls_counter(self):
        universe = GroupedUniverse()
        universe.add(1)
        universe.group_count(1)
        universe.group_count(0)
        assert universe.group_count_calls == 2

    def test_uninterned_spans_count_like_interned_slots(self):
        universe = GroupedUniverse()
        assert universe.next_slot("a") == 0
        assert universe.add("a", 3) == 0
        assert universe.next_slot("a") == 3  # same span
        assert universe.next_slot("b") == 4  # past a's guard bit
        assert universe.add("b") == 4
        assert universe.add("b", 2) == 5
        assert (len(universe), universe.groups) == (6, 2)
        assert universe.group_of[:3] == [0, 0, 0]
        assert universe.group_of[4:] == [1, 1, 1]
        for slots, groups in ([0, 2], 1), ([2, 4], 2), ([5, 6], 1), ([], 0):
            mask = mask_from_slots(slots, universe.nbytes)
            assert universe.group_count(mask) == groups
            assert universe.slot_group_count(frozenset(slots)) == groups
        with pytest.raises(ValueError, match="non-contiguously"):
            universe.add("a")


class TestRepresentationValidation:
    def test_unknown_representation_rejected_everywhere(self):
        with pytest.raises(ValueError, match="representation"):
            GeneralCoreOperator(representation="roaring")
        from repro import MiningSystem

        # neither the system nor a pool member has a layout knob
        with pytest.raises(TypeError):
            Apriori(representation="set")
        with pytest.raises(TypeError):
            MiningSystem(representation="set")

    def test_stats_merge_and_clear(self):
        a = BitsetStats(universe_sizes={"gid": 5}, popcount_calls=2)
        b = BitsetStats(universe_sizes={"gid": 9}, intersections=3)
        a.merge(b)
        assert a.universe_sizes == {"gid": 9}
        assert a.popcount_calls == 2 and a.intersections == 3
        a.clear()
        assert a.universe_sizes == {} and a.popcount_calls == 0


class TestEclat:
    def test_matches_apriori(self):
        expected = Apriori().mine(EXAMPLE, 2)
        assert Eclat().mine(EXAMPLE, 2) == expected

    def test_registered_in_pool(self):
        assert isinstance(get_algorithm("eclat"), Eclat)

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            Eclat().mine(EXAMPLE, 0)

    def test_records_bitmap_stats(self):
        miner = Eclat()
        miner.mine(EXAMPLE, 2)
        assert miner.stats.universe_sizes["gid"] == len(EXAMPLE)
        assert miner.stats.popcount_calls > 0

    def test_deep_itemsets(self):
        # every group shares the same 5 items -> full power set frequent
        groups = {gid: frozenset(range(5)) for gid in range(1, 4)}
        counts = Eclat().mine(groups, 3)
        assert len(counts) == 2**5 - 1
        assert all(count == 3 for count in counts.values())

    def test_selector_routes_moderately_dense_inputs_to_eclat(self):
        stats = InputStatistics(
            groups=500, distinct_items=100, total_entries=7_000
        )  # average 14 items/group, narrow bitmaps
        assert isinstance(select_algorithm(stats, min_count=5), Eclat)


class TestSystemRepresentationSwitch:
    STATEMENT = (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
        "GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5"
    )
    CLUSTERED = (
        "MINE RULE C AS SELECT DISTINCT 1..n item AS BODY, "
        "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
        "GROUP BY customer CLUSTER BY date "
        "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.2"
    )

    @staticmethod
    def _run(statement, load=None, **shape):
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1

        system = MiningSystem()
        (load or load_purchase_figure1)(system.db, **shape)
        return system, system.execute(statement)

    @staticmethod
    def _forced(system, result, layout):
        """The general core re-run on the statement's encoded tables
        with *layout* forced (the system itself never forces one)."""
        from repro.kernel.core.inputs import CoreInputLoader

        core = result.program.core
        operator = GeneralCoreOperator(representation=layout)
        rules = operator.run(CoreInputLoader(system.db, core).load_general(), core)
        return operator, rules

    def test_general_core_identical_across_representations(self):
        system, result = self._run(self.CLUSTERED)
        assert result.core_stats.variant == "general"
        assert result.core_stats.lattice_sizes
        for layout in ("bitset", "set"):
            operator, rules = self._forced(system, result, layout)
            assert operator.representation == layout
            assert rules == result.encoded_rules
            assert operator.lattice_sizes == result.core_stats.lattice_sizes

    def test_general_core_picks_its_layout_from_the_density(self):
        """Dense inputs (the Figure 2 golden, the BENCH_PR2 shape) mine
        on bitmaps, a sparse clickstream on slot sets, and the layout
        not picked gives the same ordered rules on the same encoded
        tables.  The simple core always reports its one layout."""
        from repro.datagen import load_clickstream, load_purchase_synthetic

        sequences = (
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date "
            "EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.1"
        )
        clicks = (
            "MINE RULE S AS SELECT DISTINCT 1..2 page AS BODY, "
            "1..1 page AS HEAD, SUPPORT, CONFIDENCE FROM Clicks GROUP BY usr "
            "CLUSTER BY minute HAVING BODY.minute < HEAD.minute "
            "EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.3"
        )
        cases = [
            (None, {}, self.CLUSTERED, "bitset"),
            (
                load_purchase_synthetic,
                dict(customers=60, days=5, transactions_per_customer=4,
                     items_per_transaction=4, catalog_size=30),
                sequences,
                "bitset",
            ),
            (load_clickstream, dict(users=150, seed=19), clicks, "set"),
        ]
        for load, shape, statement, expected in cases:
            system, result = self._run(statement, load, **shape)
            assert result.encoded_rules
            assert result.core_stats.representation == expected
            other = "set" if expected == "bitset" else "bitset"
            assert self._forced(system, result, other)[1] == result.encoded_rules
        _, simple = self._run(self.STATEMENT)
        assert simple.core_stats.variant == "simple"
        assert simple.core_stats.representation == "bitset"

    def test_core_stats_surfaced_in_trace_and_report(self):
        from repro.report import render_report
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1

        system = MiningSystem()
        load_purchase_figure1(system.db)
        result = system.execute(self.CLUSTERED)
        rendered = result.flow.render()
        assert "observability" in rendered
        assert "general core" in rendered
        report_text = render_report(system, result)
        assert "lattice sets:" in report_text
        assert "bitmaps:" in report_text
        # the layout is named where there is a choice, and only there
        assert "core: general variant, bitset support sets" in report_text
        simple = system.execute(self.STATEMENT)
        assert (
            "core: simple variant, bitmap gid lists, algorithm apriori"
            in render_report(system, simple)
        )
        assert "simple core, bitmap gid lists" in simple.flow.render()

    def test_general_bitmap_stats_populated(self):
        _, result = self._run(self.CLUSTERED)
        stats = result.core_stats
        assert stats.universe_sizes.get("triple", 0) > 0
        assert stats.popcount_calls > 0

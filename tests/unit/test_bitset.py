"""Unit tests for the big-int bitmap kernel, the eclat pool member and
the layout the system reports for each core variant."""

import dataclasses
from array import array

import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.algorithms.apriori import Apriori
from repro.algorithms.bitset import (
    BitsetStats,
    GroupedUniverse,
    VerticalInput,
    mask_from_slots,
)
from repro.algorithms.eclat import Eclat
from repro.algorithms.selector import select_algorithm
from repro.kernel.core.general import GeneralCoreOperator
from tests import minerule_reference as reference
from tests.exhaustive import mask_slots
from tests.general_input import reference_view


def groups_of(*itemsets):
    return {gid: frozenset(items) for gid, items in enumerate(itemsets, 1)}


EXAMPLE = groups_of({1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3})


class TestVerticalInput:
    GIDS = [3, 1, 3, 2, 1, 3]
    BIDS = [2, 2, 1, 9, 1, 2]  # (3, 2) twice

    def test_from_columns_uses_each_gid_as_its_slot(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert len(vertical) == 3
        assert vertical.entries == 6
        # bit Gid - 1; the repeated pair sets its bit once; items ascend
        assert vertical.bitmaps == {1: 0b101, 2: 0b101, 9: 0b010}
        assert list(vertical.bitmaps) == [1, 2, 9]
        assert not hasattr(vertical, "gids")  # no gid array

    def test_len_counts_the_groups_holding_a_pair(self):
        # Gids 2 and 5 hold no pair: five slots, three groups
        vertical = VerticalInput.from_columns(array("q", [4, 1, 3]), [7, 7, 8])
        assert vertical.bitmaps == {7: 0b1001, 8: 0b0100}
        assert len(vertical) == 3
        assert len(VerticalInput.from_columns([], [])) == 0

    @pytest.mark.parametrize("gids, bitmaps", [
        ([70, 30, 70], {1: 0b01, 2: 0b10}),  # max > 2 x rows
        ([0, 2, 0], {1: 0b01, 2: 0b10}),  # below 1
        ([-1, 1, -1], {1: 0b01, 2: 0b10}),
        ([1.0, 2, 1.0], {1: 0b01, 2: 0b10}),  # not ints
    ])
    def test_ids_that_are_not_dense_are_renumbered_first(self, gids, bitmaps):
        vertical = VerticalInput.from_columns(gids, [1, 2, 1])
        assert vertical.bitmaps == bitmaps
        assert len(vertical) == 2

    def test_from_groups_inverts_the_group_map(self):
        groups = groups_of({1, 2}, {2})
        vertical = VerticalInput.from_groups(groups)
        assert vertical.bitmaps == {1: 0b01, 2: 0b11}
        assert vertical.entries == 3
        assert len(vertical) == 2
        assert not hasattr(vertical, "groups")  # no horizontal view

    def test_root_level_ascending_and_pruned_by_popcount(self):
        """Each miner's root level reads the bitmaps in ascending item
        order, keeps the items of at least ``min_count`` groups and
        samples the density of those only."""
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        for miner in (Apriori(), Eclat()):
            singletons = [
                (*itemset, count)
                for itemset, count in miner.mine(vertical, 1).items()
                if len(itemset) == 1
            ]
            assert singletons == [(1, 2), (2, 2), (9, 1)]
            # (3, 2) twice is still two groups, not three
            counts = miner.mine(vertical, 2)
            assert [next(iter(itemset)) for itemset in counts
                    if len(itemset) == 1] == [1, 2]
            stats = miner.stats
            assert (stats.bits_set, stats.bits_possible) == (4, 2 * 3)
            assert stats.candidates == 3 + 1  # every root, then {1, 2}
            assert miner.mine(vertical, 3) == {}

    def test_never_changes_once_built(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            vertical.bitmaps = {}
        before = dict(vertical.bitmaps)
        for name in ALGORITHMS:
            get_algorithm(name).mine(vertical, 1)
        assert vertical.bitmaps == before
        assert len(vertical) == 3

    def test_group_ids_beyond_64_bits_are_kept(self):
        # accepted and renumbered before the build: no 2**70-bit bitmap
        vertical = VerticalInput.from_columns([2**70, "g"], [1, 1])
        assert vertical.bitmaps == {1: 0b11}
        assert max(vertical.bitmaps.values()).bit_length() <= 2 * 2

    def test_of_normalises(self):
        vertical = VerticalInput.from_columns(self.GIDS, self.BIDS)
        assert VerticalInput.of(vertical) is vertical
        assert VerticalInput.of(EXAMPLE) == VerticalInput.from_groups(EXAMPLE)
        assert len(VerticalInput.of({})) == 0


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

    @pytest.mark.parametrize(
        "slots", [[], [0], [7, 8], [63, 64], [0, 5, 9, 200], list(range(70))]
    )
    def test_mask_slots_inverts_it(self, slots):
        mask = mask_from_slots(slots, 26)
        assert list(mask_slots(mask)) == sorted(set(slots))


class TestGroupedUniverse:
    def test_group_count_counts_distinct_keys(self):
        universe = GroupedUniverse()
        # two slots in group 0, one in group 1, two in group 2
        assert [universe.add(count) for count in (2, 1, 2)] == [0, 3, 5]
        slots = [0, 1, 3, 5, 6]
        mask = mask_from_slots(slots, universe.nbytes)
        assert universe.group_count(mask) == 3
        # subset hitting two groups
        sub = mask_from_slots([slots[1], slots[4]], universe.nbytes)
        assert universe.group_count(sub) == 2
        assert universe.group_count(0) == 0

    def test_group_count_calls_counter(self):
        universe = GroupedUniverse()
        universe.add(1)
        universe.group_count(1)
        universe.group_count(0)
        assert universe.group_count_calls == 2

    def test_uninterned_spans_count_like_interned_slots(self):
        """Slots handed out from a group's first slot before any bitmap
        is built count like the ones the group was added with."""
        universe = GroupedUniverse()
        assert universe.add(3) == 0
        assert universe.add(3) == 4  # past the first group's guard bit
        assert (len(universe), universe.groups) == (6, 2)
        # each guard bit (slots 3 and 7) carries its own group
        assert universe.group_of == [0, 0, 0, 0, 1, 1, 1, 1]
        for slots, groups in ([0, 2], 1), ([2, 4], 2), ([5, 6], 1), ([], 0):
            mask = mask_from_slots(slots, universe.nbytes)
            assert universe.group_count(mask) == groups

    def test_group_without_slots_is_interned_and_never_counted(self):
        """A group whose triples are all left out still gets a position
        (its base slot is its guard slot) and counts as absent."""
        universe = GroupedUniverse()
        assert universe.add(2) == 0
        assert universe.add(0) == 3  # past the first group's guard bit
        assert universe.add(2) == 4  # past the empty group's guard bit
        assert (len(universe), universe.groups) == (4, 3)  # no guard bits
        assert universe.group_of == [0, 0, 0, 1, 2, 2, 2]
        for slots, groups in (
            ([0, 1], 1), ([1, 4], 2), ([0, 5], 2), ([4, 5], 1), ([], 0),
        ):
            mask = mask_from_slots(slots, universe.nbytes)
            assert universe.group_count(mask) == groups
        # the last group's guard bit (slot 6) lies within nbytes
        assert universe.nbytes * 8 > 6
        assert mask_from_slots([6], universe.nbytes).bit_length() == 7


class TestRepresentationValidation:
    def test_unknown_representation_rejected_everywhere(self):
        from repro import MiningSystem

        # neither core, the system nor a pool member has a layout knob
        with pytest.raises(TypeError):
            GeneralCoreOperator(representation="roaring")
        with pytest.raises(TypeError):
            Apriori(representation="set")
        with pytest.raises(TypeError):
            MiningSystem(representation="set")

    def test_stats_clear(self):
        stats = BitsetStats(universe_sizes={"gid": 5}, popcount_calls=2,
                            intersections=3)
        stats.clear()
        assert stats.universe_sizes == {} and stats.popcount_calls == 0
        assert stats.intersections == 0


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
        # average 14 items/group, narrow bitmaps
        assert isinstance(select_algorithm(500, 7_000), Eclat)


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
    #: the sparse clickstream statement of the general-core benchmark
    CLICKS = (
        "MINE RULE S AS SELECT DISTINCT 1..2 page AS BODY, "
        "1..1 page AS HEAD, SUPPORT, CONFIDENCE FROM Clicks GROUP BY usr "
        "CLUSTER BY minute HAVING BODY.minute < HEAD.minute "
        "EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.3"
    )

    @staticmethod
    def _run(statement, load=None, **shape):
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1

        system = MiningSystem()
        (load or load_purchase_figure1)(system.db, **shape)
        return system, system.execute(statement)

    @staticmethod
    def _core(result):
        """The attributes of the run's ``core`` component span."""
        (core,) = [s for s in result.flow.spans() if "variant" in s.args]
        return core.args

    def test_general_core_identical_across_representations(self):
        """Dense inputs (the Figure 2 golden, the shape of
        ``benchmarks/test_bench_core_bitset.py``): the bitmap core re-run
        on the statement's encoded tables gives the statement's rules and
        lattice, and the reference semantics over nested item sets give
        the same ordered rules."""
        from repro.datagen import load_purchase_synthetic
        from repro.kernel.core.inputs import CoreInputLoader

        sequences = (
            "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, "
            "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer CLUSTER BY date HAVING BODY.date < HEAD.date "
            "EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.1"
        )
        cases = [
            (self.CLUSTERED, None, {}),
            (sequences, load_purchase_synthetic,
             dict(customers=60, days=5, transactions_per_customer=4,
                  items_per_transaction=4, catalog_size=30)),
        ]
        for statement, load, shape in cases:
            system, result = self._run(statement, load, **shape)
            span = self._core(result)
            assert result.encoded_rules
            assert span["variant"] == "general"
            assert span["representation"] == "bitset"
            assert span["lattice_sizes"]
            core = result.program.core
            data = CoreInputLoader(system.db, core).load_general()
            operator = GeneralCoreOperator()
            assert operator.run(data, core) == result.encoded_rules
            assert operator.lattice_sizes == span["lattice_sizes"]
            assert [
                dataclasses.astuple(rule) for rule in result.encoded_rules
            ] == reference.general_core(reference_view(data), core)

    def test_clickstream_mines_on_bitmaps_like_the_reference(self):
        """The sparse clickstream the general-core benchmark workload
        mines reports the one layout and emits the reference's rules,
        on the statement's own encoded tables.  The simple core reports
        the same layout."""
        from repro.datagen import load_clickstream
        from repro.kernel.core.inputs import CoreInputLoader

        system, result = self._run(self.CLICKS, load_clickstream, users=150,
                                   seed=19)
        assert result.encoded_rules
        assert self._core(result)["variant"] == "general"
        assert self._core(result)["representation"] == "bitset"
        core = result.program.core
        data = CoreInputLoader(system.db, core).load_general()
        assert [
            dataclasses.astuple(rule) for rule in result.encoded_rules
        ] == reference.general_core(reference_view(data), core)
        _, simple = self._run(self.STATEMENT)
        assert self._core(simple)["variant"] == "simple"
        assert self._core(simple)["representation"] == "bitset"

    def test_clickstream_supports_only_where_a_join_reads_them(self):
        """On the clickstream case: only joinable triples get a slot,
        the leaf set (2, 1) of ``1..2 x 1..1`` keeps no supports, and
        the rules are still the reference's."""
        from repro.datagen import load_clickstream
        from repro.kernel.core.inputs import CoreInputLoader

        system, result = self._run(self.CLICKS, load_clickstream, users=150,
                                   seed=19)
        core = result.program.core
        data = CoreInputLoader(system.db, core).load_general()
        sets = {}

        class Recording(GeneralCoreOperator):
            def _compute_set(self, lattice, target, min_count, frontier):
                super()._compute_set(lattice, target, min_count, frontier)
                sets[target] = lattice.get(target)

        operator = Recording()
        rules = operator.run(data, core)
        read = sum(len(body_keys) for body_keys, _ in data.triples.values())
        assert 0 < operator.bitmap_stats.universe_sizes["triple"] < read
        assert sets.keys() == {(2, 1)} and sets[(2, 1)]
        assert all(support is None for support, _, _ in
                   sets[(2, 1)].values())
        assert rules == result.encoded_rules
        assert [dataclasses.astuple(rule) for rule in rules] == (
            reference.general_core(reference_view(data), core))

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
        # each variant names its one layout in its own words
        assert "core: general variant, bitset support sets" in report_text
        simple = system.execute(self.STATEMENT)
        assert (
            "core: simple variant, bitmap gid lists, algorithm apriori"
            in render_report(system, simple)
        )
        assert "simple core, bitmap gid lists" in simple.flow.render()

    def test_general_bitmap_stats_populated(self):
        _, result = self._run(self.CLUSTERED)
        core = self._core(result)
        assert core["universe_sizes"].get("triple", 0) > 0
        assert core["popcounts"] > 0

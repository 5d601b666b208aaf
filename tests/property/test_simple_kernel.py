"""The simple-core kernel (PR 17): ``CodedSource`` columns ->
``VerticalInput`` -> pool member -> rules.

* differential: over random ``(Gid, Bid)`` columns — unsorted gids,
  dense ones and ones far apart, below 1 or above twice the rows,
  repeated pairs, a single group, an item in every group,
  ``min_count`` from 1 to beyond the group count — the kernel
  (``load_simple_columns`` + every pool member) returns the counts of
  the reference (``load_simple`` + the tests' ``Exhaustive``), whether
  the columns were written column-wise or row by row, and the groups
  its item bitmaps hold are the reference's group map: each at slot
  ``Gid - 1`` when the gids are dense, else renumbered in
  first-appearance order;
* ``Apriori``'s inline candidate generation yields exactly
  ``tests.exhaustive.join_candidates``' set on random frequent levels;
* the program has one loader: no caller of ``load_simple`` in ``src/``.
"""

import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import Database
from repro.algorithms import ALGORITHMS, Apriori, get_algorithm
from repro.algorithms.bitset import VerticalInput
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.program import CoreDirectives
from tests.exhaustive import Exhaustive, group_map, join_candidates

DIRECTIVES = CoreDirectives(
    simple=True, same_schema=True, clustered=False,
    cluster_condition=False, mining_condition=False,
    coded_source="CS", cluster_couples=None, input_rules=None,
    min_support=0.0, min_confidence=0.0,
    body_card=(1, None), head_card=(1, 1),
)

#: gids far apart (some below 1) or dense, in any order; few distinct
#: items keep the exhaustive oracle cheap
pair_columns = st.lists(
    st.tuples(
        st.sampled_from([3, 4, 17, 90, 1001, 52_000, 7, 0, -2])
        | st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=40,
)


def expected_slots(gid_col):
    """gid -> bit slot: ``Gid - 1`` when every gid is in 1..2 x rows,
    else first-appearance order."""
    gids = list(dict.fromkeys(gid_col))
    if min(gids) >= 1 and max(gids) <= 2 * len(gid_col):
        return {gid: gid - 1 for gid in gids}
    return {gid: slot for slot, gid in enumerate(gids)}


def loader_over(pairs, min_count, write):
    """A loader over ``CS`` holding *pairs*, written in one column-wise
    ``insert_many`` (``"columnar"``) or one ``insert`` per row."""
    database = Database()
    database.execute("CREATE TABLE CS (Gid INTEGER, Bid INTEGER)")
    table = database.table("CS")
    if write == "columnar":
        table.insert_many(pairs)
    else:
        for pair in pairs:
            table.insert(pair)
    database.variables["totg"] = len({gid for gid, _ in pairs})
    database.variables["mingroups"] = min_count
    return CoreInputLoader(database, DIRECTIVES)


@pytest.mark.parametrize("write", ["columnar", "row"])
class TestKernelAgainstTheReference:
    @given(pairs=pair_columns, min_count=st.integers(1, 9))
    @example(pairs=[(90, 1), (90, 1), (90, 5), (90, 1)], min_count=1)  # one group
    @example(pairs=[(7, 2), (3, 2), (7, 2), (3, 2)], min_count=2)  # repeats only
    @example(
        pairs=[(g, 0) for g in (52_000, 3, 1001)] + [(3, 4), (1001, 4)],
        min_count=3,
    )  # item 0 in every group
    @example(pairs=[(4, 1), (17, 1), (4, 2)], min_count=8)  # > groups
    @example(pairs=[(3, 1), (1, 1), (3, 2), (6, 2)], min_count=1)  # gaps
    @settings(max_examples=40, deadline=None)
    def test_counts_and_views_agree(self, write, pairs, min_count):
        loader = loader_over(pairs, min_count, write)
        reference = loader.load_simple()
        data, (gid_col, bid_col) = loader.load_simple_columns()

        assert list(zip(gid_col, bid_col)) == pairs
        assert (data.totg, data.min_count) == (
            reference.totg, reference.min_count
        )
        vertical = data.groups
        assert isinstance(vertical, VerticalInput)
        assert len(vertical) == len(reference.groups)
        assert vertical.entries == len(pairs)
        # one bitmap per item, its popcount the item's group count
        assert {item: bitmap.bit_count()
                for item, bitmap in vertical.bitmaps.items()} == {
            item: sum(item in items for items in reference.groups.values())
            for item in {bid for _, bid in pairs}
        }
        # each slot's items, rebuilt from the bitmaps, by group id
        slot_of = expected_slots(gid_col)
        assert group_map(vertical) == {
            slot_of[gid]: items for gid, items in reference.groups.items()
        }
        assert max(vertical.bitmaps.values()).bit_length() <= 2 * len(pairs)

        expected = Exhaustive().mine(reference.groups, min_count)
        for name in sorted(ALGORITHMS):
            kernel = get_algorithm(name).mine(vertical, min_count)
            assert kernel == expected, name


sorted_itemsets = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.sets(
        st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=size, max_size=size, unique=True,
        ).map(lambda items: tuple(sorted(items))),
        max_size=25,
    )
)


class TestInlineCandidateGeneration:
    @given(level=sorted_itemsets)
    @settings(max_examples=150, deadline=None)
    def test_generates_exactly_the_join_candidates(self, level):
        """``join_candidates`` (join on the (k-1)-prefix, prune by all
        k-subsets) is the reference.  With a threshold of 0 every
        generated candidate survives ``_join_level``, so the next level
        *is* the candidate set."""
        by_prefix = {}
        for itemset in sorted(level):
            by_prefix.setdefault(itemset[:-1], []).append((itemset[-1], 0))
        counts = {}
        next_classes, generated_set, generated = Apriori._join_level(
            list(by_prefix.items()), set(level), 0, counts
        )
        reference = join_candidates(level)
        assert generated_set == set(reference)
        assert generated == len(reference) == len(counts)
        # the next level comes back as prefix classes, ascending
        flattened = [
            prefix + (last,)
            for prefix, members in next_classes
            for last, _gid_list in members
        ]
        assert flattened == sorted(reference)


def test_the_program_never_calls_the_reference_loader():
    source_root = pathlib.Path(repro.__file__).parent
    callers = [
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if re.search(r"\.load_simple\(", path.read_text())
    ]
    assert callers == []

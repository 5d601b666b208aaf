"""Property-based tests for the mining-algorithm pool.

The contract: every algorithm returns exactly the frequent itemsets
with exact group counts, for any input.  A brute-force enumerator is
the oracle, and the tests' :class:`~tests.exhaustive.Exhaustive` must
agree with it too.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHMS, get_algorithm
from tests.exhaustive import Exhaustive

#: the pool plus the oracle the other tests check it against
MINERS = {**ALGORITHMS, "exhaustive": Exhaustive}

#: small universes keep brute force tractable while covering the
#: combinatorics (collisions, shared prefixes, deep itemsets)
group_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=30),
    values=st.frozensets(st.integers(min_value=0, max_value=7), max_size=6),
    max_size=12,
)

thresholds = st.integers(min_value=1, max_value=5)


def brute_force(groups, min_count):
    items = sorted({i for s in groups.values() for i in s})
    counts = {}
    for size in range(1, len(items) + 1):
        any_frequent = False
        for combo in itertools.combinations(items, size):
            count = sum(1 for s in groups.values() if frozenset(combo) <= s)
            if count >= min_count:
                counts[frozenset(combo)] = count
                any_frequent = True
        if not any_frequent:
            break
    return counts


@pytest.mark.parametrize("name", sorted(MINERS))
class TestExactness:
    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, name, groups, min_count):
        result = MINERS[name]().mine(groups, min_count)
        assert result == brute_force(groups, min_count)


class TestStructuralInvariants:
    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_downward_closure(self, groups, min_count):
        """Every subset of a frequent itemset is frequent (Apriori
        property), with a count at least as large."""
        counts = get_algorithm("apriori").mine(groups, min_count)
        for itemset, count in counts.items():
            if len(itemset) < 2:
                continue
            for item in itemset:
                subset = itemset - {item}
                assert subset in counts
                assert counts[subset] >= count

    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=60, deadline=None)
    def test_counts_bounded_by_group_count(self, groups, min_count):
        counts = get_algorithm("apriori").mine(groups, min_count)
        for count in counts.values():
            assert min_count <= count <= len(groups)

    @given(groups=group_maps)
    @settings(max_examples=40, deadline=None)
    def test_threshold_one_covers_every_singleton(self, groups):
        counts = get_algorithm("apriori").mine(groups, 1)
        present = {i for s in groups.values() for i in s}
        for item in present:
            assert frozenset({item}) in counts

    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_threshold(self, groups, min_count):
        loose = get_algorithm("apriori").mine(groups, min_count)
        tight = get_algorithm("apriori").mine(groups, min_count + 1)
        assert set(tight) <= set(loose)
        for itemset, count in tight.items():
            assert loose[itemset] == count

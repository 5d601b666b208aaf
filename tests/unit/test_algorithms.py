"""Mining-algorithm pool tests.

Every algorithm must return the exact set of frequent itemsets with
exact group counts; the pool, and the exhaustive oracle the other
tests check it against, are exercised on hand-checked inputs and on
the pairwise-equivalence contract.
"""

import itertools

import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from tests.exhaustive import Exhaustive, join_candidates


def groups_of(*itemsets):
    return {gid: frozenset(items) for gid, items in enumerate(itemsets, 1)}


#: the classic 4-transaction example
EXAMPLE = groups_of(
    {1, 2, 5},
    {2, 4},
    {2, 3},
    {1, 2, 4},
    {1, 3},
    {2, 3},
    {1, 3},
    {1, 2, 3, 5},
    {1, 2, 3},
)


def brute_force(groups, min_count):
    """Reference implementation: enumerate all subsets."""
    items = sorted({i for s in groups.values() for i in s})
    counts = {}
    for size in range(1, len(items) + 1):
        found_any = False
        for combo in itertools.combinations(items, size):
            count = sum(
                1 for s in groups.values() if frozenset(combo) <= s
            )
            if count >= min_count:
                counts[frozenset(combo)] = count
                found_any = True
        if not found_any:
            break
    return counts


#: the pool plus its oracle, which must keep the same contract
MINERS = {**ALGORITHMS, "exhaustive": Exhaustive}
ALL_NAMES = sorted(MINERS)


def get_miner(name):
    return MINERS[name]()


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPoolContract:
    def test_matches_brute_force_on_example(self, name):
        miner = get_miner(name)
        assert miner.mine(EXAMPLE, 2) == brute_force(EXAMPLE, 2)

    def test_high_threshold(self, name):
        miner = get_miner(name)
        assert miner.mine(EXAMPLE, 7) == brute_force(EXAMPLE, 7)

    def test_threshold_one_returns_everything(self, name):
        groups = groups_of({1, 2}, {3})
        expected = brute_force(groups, 1)
        assert get_miner(name).mine(groups, 1) == expected

    def test_empty_input(self, name):
        assert get_miner(name).mine({}, 1) == {}

    def test_no_frequent_items(self, name):
        groups = groups_of({1}, {2}, {3})
        assert get_miner(name).mine(groups, 2) == {}

    def test_invalid_threshold_rejected(self, name):
        with pytest.raises(ValueError):
            get_miner(name).mine(EXAMPLE, 0)

    def test_counts_are_group_counts_not_occurrences(self, name):
        # the same item never counts twice within one group
        groups = groups_of({1, 2}, {1, 2}, {2})
        counts = get_miner(name).mine(groups, 1)
        assert counts[frozenset({1})] == 2
        assert counts[frozenset({2})] == 3
        assert counts[frozenset({1, 2})] == 2

    def test_deterministic(self, name):
        miner1, miner2 = get_miner(name), get_miner(name)
        assert miner1.mine(EXAMPLE, 2) == miner2.mine(EXAMPLE, 2)


class TestCandidateGeneration:
    def test_join_candidates_pairs(self):
        frequent = [(1,), (2,), (3,)]
        candidates = join_candidates(frequent)
        assert sorted(candidates) == [(1, 2), (1, 3), (2, 3)]

    def test_join_prunes_infrequent_subsets(self):
        # (1,2) missing, so (1,2,3) must not be generated
        frequent = [(1, 3), (2, 3)]
        assert join_candidates(frequent) == []

    def test_join_requires_shared_prefix(self):
        frequent = [(1, 2), (1, 3), (2, 3)]
        assert join_candidates(frequent) == [(1, 2, 3)]


class TestRegistry:
    def test_all_expected_algorithms_registered(self):
        # pytest imports every collected module before running any
        # test, so this also holds after tests.exhaustive was imported
        assert set(ALGORITHMS) == {"apriori", "auto", "eclat"}

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            get_algorithm("fpgrowth")
        assert "available: apriori, auto, eclat" in str(excinfo.value)

    def test_constructor_kwargs(self):
        # no member takes an argument, so the factory passes none on
        with pytest.raises(TypeError):
            get_algorithm("apriori", partitions=2)

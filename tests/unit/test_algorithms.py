"""Mining-algorithm pool tests.

Every algorithm must return the exact set of frequent itemsets with
exact group counts; the pool is exercised on hand-checked inputs and on
the pairwise-equivalence contract.
"""

import itertools

import pytest

from repro.algorithms import (
    ALGORITHMS,
    Apriori,
    AprioriTid,
    DirectHashingPruning,
    Partition,
    ToivonenSampling,
    get_algorithm,
)
from repro.algorithms.base import FrequentItemsetMiner


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


ALL_NAMES = sorted(ALGORITHMS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPoolContract:
    def test_matches_brute_force_on_example(self, name):
        miner = get_algorithm(name)
        assert miner.mine(EXAMPLE, 2) == brute_force(EXAMPLE, 2)

    def test_high_threshold(self, name):
        miner = get_algorithm(name)
        assert miner.mine(EXAMPLE, 7) == brute_force(EXAMPLE, 7)

    def test_threshold_one_returns_everything(self, name):
        groups = groups_of({1, 2}, {3})
        expected = brute_force(groups, 1)
        assert get_algorithm(name).mine(groups, 1) == expected

    def test_empty_input(self, name):
        assert get_algorithm(name).mine({}, 1) == {}

    def test_no_frequent_items(self, name):
        groups = groups_of({1}, {2}, {3})
        assert get_algorithm(name).mine(groups, 2) == {}

    def test_invalid_threshold_rejected(self, name):
        with pytest.raises(ValueError):
            get_algorithm(name).mine(EXAMPLE, 0)

    def test_counts_are_group_counts_not_occurrences(self, name):
        # the same item never counts twice within one group
        groups = groups_of({1, 2}, {1, 2}, {2})
        counts = get_algorithm(name).mine(groups, 1)
        assert counts[frozenset({1})] == 2
        assert counts[frozenset({2})] == 3
        assert counts[frozenset({1, 2})] == 2

    def test_deterministic(self, name):
        miner1, miner2 = get_algorithm(name), get_algorithm(name)
        assert miner1.mine(EXAMPLE, 2) == miner2.mine(EXAMPLE, 2)


class TestCandidateGeneration:
    def test_join_candidates_pairs(self):
        frequent = [(1,), (2,), (3,)]
        candidates = FrequentItemsetMiner.join_candidates(frequent)
        assert sorted(candidates) == [(1, 2), (1, 3), (2, 3)]

    def test_join_prunes_infrequent_subsets(self):
        # (1,2) missing, so (1,2,3) must not be generated
        frequent = [(1, 3), (2, 3)]
        assert FrequentItemsetMiner.join_candidates(frequent) == []

    def test_join_requires_shared_prefix(self):
        frequent = [(1, 2), (1, 3), (2, 3)]
        assert FrequentItemsetMiner.join_candidates(frequent) == [(1, 2, 3)]


class TestRegistry:
    def test_all_expected_algorithms_registered(self):
        assert set(ALL_NAMES) == {
            "apriori",
            "aprioritid",
            "auto",
            "dhp",
            "eclat",
            "exhaustive",
            "partition",
            "sampling",
        }

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError) as excinfo:
            get_algorithm("fpgrowth")
        assert "apriori" in str(excinfo.value)

    def test_constructor_kwargs(self):
        assert get_algorithm("partition", partitions=2).partitions == 2
        assert get_algorithm("dhp", buckets=64).buckets == 64


class TestAlgorithmSpecifics:
    def test_dhp_tiny_bucket_table_still_exact(self):
        # with 2 buckets nearly everything collides: the filter passes
        # most candidates, but the result must stay exact.
        miner = DirectHashingPruning(buckets=2)
        assert miner.mine(EXAMPLE, 2) == brute_force(EXAMPLE, 2)

    def test_partition_single_partition_degenerates_to_apriori(self):
        miner = Partition(partitions=1)
        assert miner.mine(EXAMPLE, 2) == Apriori().mine(EXAMPLE, 2)

    def test_partition_more_partitions_than_groups(self):
        miner = Partition(partitions=100)
        assert miner.mine(EXAMPLE, 2) == brute_force(EXAMPLE, 2)

    def test_sampling_exact_across_seeds(self):
        expected = brute_force(EXAMPLE, 2)
        for seed in range(5):
            miner = ToivonenSampling(sample_fraction=0.4, seed=seed)
            assert miner.mine(EXAMPLE, 2) == expected

    def test_sampling_full_sample_never_fails(self):
        miner = ToivonenSampling(sample_fraction=1.0, lowering=1.0)
        assert miner.mine(EXAMPLE, 2) == brute_force(EXAMPLE, 2)
        assert not miner.last_run_failed

    def test_sampling_invalid_parameters(self):
        with pytest.raises(ValueError):
            ToivonenSampling(sample_fraction=0.0)
        with pytest.raises(ValueError):
            ToivonenSampling(lowering=1.5)

    def test_negative_border_contains_minimal_infrequent(self):
        frequent = {frozenset({1}), frozenset({2}), frozenset({3})}
        groups = groups_of({1, 2, 3})
        border = ToivonenSampling.negative_border(frequent, groups)
        assert frozenset({1, 2}) in border
        assert frozenset({1, 2, 3}) not in border  # not minimal

    def test_aprioritid_drops_empty_groups_gracefully(self):
        groups = {1: frozenset({1, 2}), 2: frozenset(), 3: frozenset({1})}
        counts = AprioriTid().mine(groups, 1)
        assert counts[frozenset({1})] == 2

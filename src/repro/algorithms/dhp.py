"""DHP — Direct Hashing and Pruning (Park, Chen & Yu, SIGMOD 1995).

While counting level-``k`` itemsets, DHP hashes every level-``k+1``
itemset occurring in the scanned groups into a small bucket table; a
candidate of the next level can only be frequent if its bucket count
reaches the threshold, so many Apriori candidates are discarded before
they are ever counted.  The second DHP idea, *transaction trimming*,
also applies: items that cannot appear in any frequent itemset of the
next level are removed from the group encoding.

The bucket table is a coarse counting filter (collisions only ever
over-estimate), so the final result is exact.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set, Tuple

from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import VerticalInput


@register_algorithm
class DirectHashingPruning(FrequentItemsetMiner):
    """Hash-filtered levelwise mining.

    ``buckets`` trades memory for filter precision, exactly like the
    original paper's hash-table size parameter.
    """

    name = "dhp"

    def __init__(self, buckets: int = 4096):
        if buckets < 1:
            raise ValueError(f"buckets must be positive, got {buckets}")
        self.buckets = buckets

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        counts: ItemsetCounts = {}

        # Pass 1: count singletons, hash pairs (horizontal scans).
        item_counts: Dict[int, int] = {}
        bucket_counts = [0] * self.buckets
        groups = VerticalInput.of(groups).groups
        working: Dict[int, Tuple[int, ...]] = {
            gid: tuple(sorted(items)) for gid, items in groups.items() if items
        }
        for items in working.values():
            for item in items:
                item_counts[item] = item_counts.get(item, 0) + 1
            for pair in itertools.combinations(items, 2):
                bucket_counts[self._bucket(pair)] += 1

        frequent: Set[Tuple[int, ...]] = set()
        for item, count in item_counts.items():
            if count >= min_count:
                counts[frozenset((item,))] = count
                frequent.add((item,))

        level = 2
        while frequent:
            # The bucket table built during the previous pass filters
            # this level's candidates: a bucket count below the
            # threshold proves every itemset hashing there infrequent.
            candidates = [
                candidate
                for candidate in self.join_candidates(frequent)
                if bucket_counts[self._bucket(candidate)] >= min_count
            ]
            if not candidates:
                break
            candidate_set = set(candidates)

            candidate_counts: Dict[Tuple[int, ...], int] = {}
            next_bucket_counts = [0] * self.buckets
            next_working: Dict[int, Tuple[int, ...]] = {}
            for gid, items in working.items():
                if len(items) < level:
                    continue
                matched: List[Tuple[int, ...]] = []
                for combo in itertools.combinations(items, level):
                    if combo in candidate_set:
                        matched.append(combo)
                        candidate_counts[combo] = candidate_counts.get(combo, 0) + 1
                if not matched:
                    continue
                # Transaction trimming: keep only items that occur in at
                # least `level` matched candidates -- a necessary
                # condition for membership in a (level+1)-itemset.
                occurrence: Dict[int, int] = {}
                for combo in matched:
                    for item in combo:
                        occurrence[item] = occurrence.get(item, 0) + 1
                trimmed = tuple(
                    item for item in items if occurrence.get(item, 0) >= level
                )
                if len(trimmed) > level:
                    next_working[gid] = trimmed
                    for combo in itertools.combinations(trimmed, level + 1):
                        next_bucket_counts[self._bucket(combo)] += 1

            new_frequent: Set[Tuple[int, ...]] = set()
            for candidate, count in candidate_counts.items():
                if count >= min_count:
                    counts[frozenset(candidate)] = count
                    new_frequent.add(candidate)
            frequent = new_frequent
            working = next_working
            bucket_counts = next_bucket_counts
            level += 1
        return counts

    def _bucket(self, itemset: Tuple[int, ...]) -> int:
        return hash(itemset) % self.buckets

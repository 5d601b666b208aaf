"""Apriori with group-id lists.

This is the algorithm sketched in Section 4.3.1 of the paper:

    "The algorithm incrementally builds the so-called large itemsets
    [...] moving up from singleton itemsets to itemsets of generic
    cardinality by adding one new item to already computed large
    itemsets.  [...] Support of an itemset is evaluated by counting
    elements in an associated list that contains identifiers of groups
    in which the itemset is present; the list is computed when the new
    itemset is generated."

Candidate generation and subset pruning follow Agrawal & Srikant
(VLDB 1994); support counting intersects the parents' group-id lists
instead of rescanning the data, which is exact because a group contains
``a + (x,)`` iff it contains both ``a`` and ``(x,)``.

The gid lists carry no semantics beyond membership, so their physical
layout is free: the default ``"bitset"`` representation packs them
into big-int bitmaps (:mod:`repro.algorithms.bitset`) where the
intersection is ``&`` and the count is :meth:`int.bit_count`; the
original ``"set"`` representation remains selectable for differential
testing and the ablation bench.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.algorithms.base import (
    FrequentItemsetMiner,
    GroupMap,
    ItemsetCounts,
    register_algorithm,
)
from repro.algorithms.bitset import (
    BitsetStats,
    SlotUniverse,
    validate_representation,
)


@register_algorithm
class Apriori(FrequentItemsetMiner):
    """Levelwise mining with gid-list intersection."""

    name = "apriori"

    def __init__(self, representation: str = "bitset"):
        self.representation = validate_representation(representation)
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: GroupMap, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.stats.clear()
        if self.representation == "set":
            return self._mine_sets(groups, min_count)
        return self._mine_bitsets(groups, min_count)

    # -- bitset path (default) ----------------------------------------------

    def _mine_bitsets(self, groups: GroupMap, min_count: int) -> ItemsetCounts:
        counts: ItemsetCounts = {}
        universe = SlotUniverse(groups)
        popcounts = 0
        intersections = 0

        singleton_maps = self.item_gid_bitmaps(groups, universe)
        self.stats.sample_density(singleton_maps.values(), len(universe))
        gid_maps: Dict[Tuple[int, ...], int] = {}
        for item, bitmap in singleton_maps.items():
            support = bitmap.bit_count()
            popcounts += 1
            if support >= min_count:
                key = (item,)
                gid_maps[key] = bitmap
                counts[frozenset(key)] = support
        self.stats.passes += 1
        self.stats.candidates += len(singleton_maps)

        current = gid_maps
        while current:
            candidates = self.join_candidates(current.keys())
            self.stats.passes += 1
            self.stats.candidates += len(candidates)
            next_level: Dict[Tuple[int, ...], int] = {}
            for candidate in candidates:
                left = current[candidate[:-1]]
                right = current[candidate[:-2] + candidate[-1:]]
                support_map = left & right
                support = support_map.bit_count()
                intersections += 1
                popcounts += 1
                if support >= min_count:
                    next_level[candidate] = support_map
                    counts[frozenset(candidate)] = support
            current = next_level

        self.stats.universe_sizes["gid"] = len(universe)
        self.stats.popcount_calls = popcounts
        self.stats.intersections = intersections
        return counts

    # -- set path (differential / ablation) ---------------------------------

    def _mine_sets(self, groups: GroupMap, min_count: int) -> ItemsetCounts:
        counts: ItemsetCounts = {}

        singleton_lists = self.item_gid_lists(groups)
        gid_lists: Dict[Tuple[int, ...], Set[int]] = {}
        for item, gids in singleton_lists.items():
            if len(gids) >= min_count:
                key = (item,)
                gid_lists[key] = gids
                counts[frozenset(key)] = len(gids)
        self.stats.passes += 1
        self.stats.candidates += len(singleton_lists)

        current = gid_lists
        while current:
            candidates = self.join_candidates(current.keys())
            self.stats.passes += 1
            self.stats.candidates += len(candidates)
            next_level: Dict[Tuple[int, ...], Set[int]] = {}
            for candidate in candidates:
                left = current[candidate[:-1]]
                right = current[candidate[:-2] + candidate[-1:]]
                support_gids = left & right
                if len(support_gids) >= min_count:
                    next_level[candidate] = support_gids
                    counts[frozenset(candidate)] = len(support_gids)
            current = next_level
        return counts

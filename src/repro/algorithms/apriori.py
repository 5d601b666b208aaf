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
layout is free: they are big-int bitmaps (:mod:`repro.algorithms.bitset`)
where the intersection is ``&`` and the count is :meth:`int.bit_count`.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import BitsetStats, VerticalInput


@register_algorithm
class Apriori(FrequentItemsetMiner):
    """Levelwise mining with gid-list intersection."""

    name = "apriori"

    def __init__(self) -> None:
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        stats = self.stats
        stats.clear()
        vertical = VerticalInput.of(groups)
        stats.universe_sizes["gid"] = len(vertical)

        counts: ItemsetCounts = {}
        root: List[Tuple[int, int]] = []
        for item, gid_list in vertical.bitmaps.items():
            support = gid_list.bit_count()
            if support >= min_count:
                counts[frozenset((item,))] = support
                root.append((item, gid_list))
        stats.sample_density(list(counts.values()), len(vertical))
        stats.passes += 1
        stats.candidates += len(vertical.bitmaps)
        stats.popcount_calls += len(root)

        classes = [((), root)]
        frequent: Set[Tuple[int, ...]] = set()
        while classes:
            classes, frequent, generated = self._join_level(
                classes, frequent, min_count, counts
            )
            stats.passes += 1
            stats.candidates += generated
            stats.intersections += generated
            stats.popcount_calls += generated
        return counts

    @staticmethod
    def _join_level(
        classes: List[Tuple[Tuple[int, ...], List[Tuple[int, int]]]],
        frequent: Set[Tuple[int, ...]], min_count: int,
        counts: ItemsetCounts,
    ):
        """One levelwise step, candidates generated inline.

        A level is its prefix classes — ``(prefix, [(last item, gid
        list)])``, last items ascending — plus *frequent*, the same
        itemsets as sorted tuples.  Joining members ``a < b`` of a
        class yields ``prefix + (a, b)``, whose subsets without ``a``
        or ``b`` are those two members; only the other ``k-1`` subsets
        (one prefix item dropped) are probed in *frequent*.  Returns
        the next level and the number of candidates evaluated."""
        generated = 0
        next_classes = []
        next_frequent: Set[Tuple[int, ...]] = set()
        for prefix, members in classes:
            stems = [
                prefix[:drop] + prefix[drop + 1:]
                for drop in range(len(prefix))
            ]
            for index, (a, left) in enumerate(members):
                head = prefix + (a,)
                a_stems = [stem + (a,) for stem in stems]
                children = []
                for b, right in members[index + 1:]:
                    for stem in a_stems:
                        if stem + (b,) not in frequent:
                            break
                    else:
                        generated += 1
                        gid_list = left & right
                        support = gid_list.bit_count()
                        if support >= min_count:
                            itemset = head + (b,)
                            counts[frozenset(itemset)] = support
                            next_frequent.add(itemset)
                            children.append((b, gid_list))
                if children:
                    next_classes.append((head, children))
        return next_classes, next_frequent, generated

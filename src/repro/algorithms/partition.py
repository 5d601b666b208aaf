"""Partition (Savasere, Omiecinski & Navathe, VLDB 1995).

The group set is split into ``partitions`` roughly equal slices.  Any
globally frequent itemset must be *locally* frequent (with a
proportionally scaled threshold) in at least one slice, so the union of
the local results is a complete candidate set; a second pass counts the
candidates exactly over the whole input.  The original algorithm was
designed to need at most two disk scans — here the two scans survive as
two passes over the group map.

The second pass is vertical (:func:`bitset.count_itemsets`): a
candidate's exact count is the popcount of the AND of its items' gid
bitmaps, with no subset test per (group, candidate) pair.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Set

from repro.algorithms.apriori import Apriori
from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import (
    BitsetStats,
    VerticalInput,
    count_itemsets,
)


@register_algorithm
class Partition(FrequentItemsetMiner):
    """Two-pass partitioned mining."""

    name = "partition"

    def __init__(self, partitions: int = 4):
        if partitions < 1:
            raise ValueError(f"partitions must be positive, got {partitions}")
        self.partitions = partitions
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.stats.clear()
        vertical = VerticalInput.of(groups)
        total = len(vertical)
        if not total:
            return {}
        min_fraction = min_count / total

        # Phase 1: local large itemsets per partition (deterministic
        # slicing of the horizontal view in sorted-gid order).
        groups = vertical.groups
        gids = sorted(groups)
        slices = max(1, min(self.partitions, total))
        size = math.ceil(total / slices)
        local = Apriori()
        candidates: Set[FrozenSet[int]] = set()
        for start in range(0, total, size):
            part_gids = gids[start : start + size]
            part = {gid: groups[gid] for gid in part_gids}
            # local threshold: ceil preserves "at least the same
            # fraction of groups" (never misses a global winner).
            local_min = max(1, math.ceil(min_fraction * len(part) - 1e-9))
            candidates.update(local.mine(part, local_min).keys())
            self.stats.merge(local.stats)

        # Phase 2: exact global counts for the candidate union.
        return count_itemsets(vertical, candidates, min_count, self.stats)

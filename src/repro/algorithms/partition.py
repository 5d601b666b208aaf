"""Partition (Savasere, Omiecinski & Navathe, VLDB 1995).

The group set is split into ``partitions`` roughly equal slices.  Any
globally frequent itemset must be *locally* frequent (with a
proportionally scaled threshold) in at least one slice, so the union of
the local results is a complete candidate set; a second pass counts the
candidates exactly over the whole input.  The original algorithm was
designed to need at most two disk scans — here the two scans survive as
two passes over the group map.

On the default ``"bitset"`` representation the second pass is
vertical: each item's gid bitmap is built once, and a candidate's
exact count is the popcount of the AND of its items' bitmaps — no
subset test per (group, candidate) pair.  ``"set"`` keeps the original
horizontal rescan for differential testing.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Set

from repro.algorithms.apriori import Apriori
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
class Partition(FrequentItemsetMiner):
    """Two-pass partitioned mining."""

    name = "partition"

    def __init__(self, partitions: int = 4, representation: str = "bitset"):
        if partitions < 1:
            raise ValueError(f"partitions must be positive, got {partitions}")
        self.partitions = partitions
        self.representation = validate_representation(representation)
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: GroupMap, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.stats.clear()
        if not groups:
            return {}
        total = len(groups)
        min_fraction = min_count / total

        # Phase 1: local large itemsets per partition (deterministic
        # slicing in sorted-gid order).
        gids = sorted(groups)
        slices = max(1, min(self.partitions, total))
        size = math.ceil(total / slices)
        local = Apriori(representation=self.representation)
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
        if self.representation == "set":
            counts: Dict[FrozenSet[int], int] = {c: 0 for c in candidates}
            for items in groups.values():
                for candidate in candidates:
                    if candidate <= items:
                        counts[candidate] += 1
            return {
                candidate: count
                for candidate, count in counts.items()
                if count >= min_count
            }
        return self._count_candidates(groups, candidates, min_count)

    def _count_candidates(
        self,
        groups: GroupMap,
        candidates: Set[FrozenSet[int]],
        min_count: int,
    ) -> ItemsetCounts:
        """Vertical exact counting: AND the items' gid bitmaps."""
        universe = SlotUniverse(groups)
        item_maps = self.item_gid_bitmaps(groups, universe)
        self.stats.universe_sizes["gid"] = len(universe)
        out: ItemsetCounts = {}
        for candidate in candidates:
            # mask=None until the first item's bitmap (no all-ones
            # sentinel needed)
            mask = None
            missing = False
            for item in candidate:
                bitmap = item_maps.get(item)
                if bitmap is None:
                    missing = True
                    break
                mask = bitmap if mask is None else mask & bitmap
                self.stats.intersections += 1
                if not mask:
                    break
            count = 0 if missing or mask is None else mask.bit_count()
            self.stats.popcount_calls += 1
            if count >= min_count:
                out[candidate] = count
        return out

"""Exhaustive reference miner.

Enumerates candidate itemsets levelwise without any pruning beyond the
level cut-off (it still stops at the first empty level, which is safe
by downward closure).  Exponentially slower than the real pool members
— it exists as the oracle for tests and as the unflattering baseline
in the SYN-2 ablation bench, not for production use.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet

from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import VerticalInput


@register_algorithm
class Exhaustive(FrequentItemsetMiner):
    """Levelwise enumeration of every combination."""

    name = "exhaustive"

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        groups = VerticalInput.of(groups).groups
        items = sorted({item for basket in groups.values() for item in basket})
        counts: Dict[FrozenSet[int], int] = {}
        for size in range(1, len(items) + 1):
            found_any = False
            for combo in itertools.combinations(items, size):
                candidate = frozenset(combo)
                count = sum(
                    1 for basket in groups.values() if candidate <= basket
                )
                if count >= min_count:
                    counts[candidate] = count
                    found_any = True
            if not found_any:
                break
        return counts

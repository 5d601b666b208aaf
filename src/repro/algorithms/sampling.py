"""Toivonen's sampling algorithm (VLDB 1996).

A random sample of the groups is mined with a *lowered* threshold; the
resulting local itemsets plus their **negative border** (minimal
itemsets not locally frequent) are then counted exactly over the whole
input — usually one full pass, i.e. "more than one but less than two"
input scans as the paper puts it.  If some negative-border itemset
turns out to be globally frequent the sample missed part of the answer
and the algorithm falls back to an exact pass with the failed itemsets
as new seeds (here: a full Apriori run, preserving exactness).

The sample and therefore the runtime are randomized; the *result* never
is.  A fixed ``seed`` keeps runs reproducible.

The verification pass counts every candidate (local itemsets plus the
negative border) over the whole input by ANDing the items' gid lists
(:func:`bitset.count_itemsets`).
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Set, Tuple

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
class ToivonenSampling(FrequentItemsetMiner):
    """Sampling with negative-border verification.

    ``sample_fraction`` is the share of groups sampled;
    ``lowering`` scales the threshold used on the sample (``< 1``
    lowers it, decreasing the miss probability at the cost of more
    candidates).
    """

    name = "sampling"

    def __init__(
        self,
        sample_fraction: float = 0.5,
        lowering: float = 0.8,
        seed: int = 12345,
    ):
        if not 0 < sample_fraction <= 1:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0 < lowering <= 1:
            raise ValueError("lowering must be in (0, 1]")
        self.sample_fraction = sample_fraction
        self.lowering = lowering
        self.seed = seed
        #: observability: True when the last run needed the fallback pass
        self.last_run_failed = False
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.last_run_failed = False
        self.stats.clear()
        vertical = VerticalInput.of(groups)
        total = len(vertical)
        if not total:
            return {}

        # the draw works on the horizontal view
        groups = vertical.groups
        rng = random.Random(self.seed)
        sample_size = max(1, round(self.sample_fraction * total))
        sample_gids = rng.sample(sorted(groups), sample_size)
        sample = {gid: groups[gid] for gid in sample_gids}

        fraction = min_count / total
        sample_min = max(
            1, math.floor(self.lowering * fraction * sample_size)
        )
        miner = Apriori()
        local = miner.mine(sample, sample_min)
        self.stats.merge(miner.stats)
        local_sets = set(local.keys())

        candidates = local_sets | self.negative_border(local_sets, vertical)

        frequent = count_itemsets(
            vertical, candidates, min_count, self.stats
        )
        border_failures = [
            candidate for candidate in frequent if candidate not in local_sets
        ]
        if border_failures:
            # The sample missed part of the answer: fall back to an
            # exact full pass so the result stays complete.
            self.last_run_failed = True
            fallback = Apriori()
            result = fallback.mine(vertical, min_count)
            self.stats.merge(fallback.stats)
            return result
        return frequent

    @staticmethod
    def negative_border(
        frequent: Set[FrozenSet[int]], groups: MinerInput
    ) -> Set[FrozenSet[int]]:
        """Minimal itemsets (over the items present in *groups*) that
        are not in *frequent* but whose every proper subset is."""
        border: Set[FrozenSet[int]] = set()
        # Level 1: singletons not locally frequent.
        for item in VerticalInput.of(groups).bitmaps:
            singleton = frozenset((item,))
            if singleton not in frequent:
                border.add(singleton)
        # Higher levels: Apriori-style join of the frequent collection.
        by_size: Dict[int, List[Tuple[int, ...]]] = {}
        for itemset in frequent:
            ordered = tuple(sorted(itemset))
            by_size.setdefault(len(ordered), []).append(ordered)
        for size, level_sets in sorted(by_size.items()):
            for candidate in FrequentItemsetMiner.join_candidates(level_sets):
                candidate_set = frozenset(candidate)
                if candidate_set not in frequent:
                    border.add(candidate_set)
        return border

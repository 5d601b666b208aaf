"""AprioriTid (Agrawal & Srikant, VLDB 1994).

Instead of rescanning the groups on every pass, the database is
re-encoded after each level: pass ``k`` represents every group by the
set of level-``k`` candidate itemsets it contains (the :math:`\\bar
C_k` structure of the original paper).  Groups containing no candidate
drop out, so later passes scan progressively less data — the property
that made AprioriTid attractive for the late iterations.

Each group's candidate-id set is packed into a big-int bitmap over the
level's candidate slots: membership of a candidate's two generating
subsets is one mask-and-compare instead of two dict probes, and the
re-encoded database shrinks to one integer per surviving group.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.algorithms.base import (
    FrequentItemsetMiner,
    GroupMap,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import BitsetStats, VerticalInput


@register_algorithm
class AprioriTid(FrequentItemsetMiner):
    """Levelwise mining over the candidate-id re-encoding."""

    name = "aprioritid"

    def __init__(self) -> None:
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.stats.clear()
        vertical = VerticalInput.of(groups)

        # Pass 1: singleton counts, read off the slot lists (a repeated
        # pair repeats its slot).
        item_counts = {
            item: len(set(slots)) for item, slots in vertical.slots_of.items()
        }
        frequent1 = sorted(
            (item,) for item, count in item_counts.items()
            if count >= min_count
        )
        counts: ItemsetCounts = {
            frozenset(itemset): item_counts[itemset[0]]
            for itemset in frequent1
        }
        self.stats.passes += 1
        self.stats.candidates += len(item_counts)

        # the candidate-id re-encoding scans the horizontal view
        return self._reencode(vertical.groups, frequent1, counts, min_count)

    def _reencode(
        self, groups: GroupMap, frequent1: List[Tuple[int, ...]],
        counts: ItemsetCounts, min_count: int,
    ) -> ItemsetCounts:
        # \bar C_1 packed: group -> bitmap over the frequent singleton
        # slots (slot order = ascending item id, deterministic).
        slot_of: Dict[Tuple[int, ...], int] = {
            candidate: index for index, candidate in enumerate(frequent1)
        }
        max_slots = len(frequent1)
        encoded: Dict[int, int] = {}
        for gid, items in groups.items():
            present = 0
            for item in items:
                slot = slot_of.get((item,))
                if slot is not None:
                    present |= 1 << slot
            if present:
                encoded[gid] = present

        self.stats.sample_density(encoded.values(), len(frequent1))

        frequent: List[Tuple[int, ...]] = frequent1
        while frequent:
            candidates = sorted(self.join_candidates(frequent))
            if not candidates:
                break
            self.stats.passes += 1
            self.stats.candidates += len(candidates)
            # For each candidate, the mask of its two generating
            # (k-1)-subsets in the previous level's slot layout.
            generator_masks = [
                (1 << slot_of[candidate[:-1]])
                | (1 << slot_of[candidate[:-2] + candidate[-1:]])
                for candidate in candidates
            ]
            candidate_counts = [0] * len(candidates)
            next_encoded: Dict[int, int] = {}
            for gid, present in encoded.items():
                found = 0
                for index, mask in enumerate(generator_masks):
                    if present & mask == mask:
                        found |= 1 << index
                        candidate_counts[index] += 1
                if found:
                    next_encoded[gid] = found
            frequent = []
            for index, count in enumerate(candidate_counts):
                if count >= min_count:
                    candidate = candidates[index]
                    frequent.append(candidate)
                    counts[frozenset(candidate)] = count
            slot_of = {
                candidate: index for index, candidate in enumerate(candidates)
            }
            max_slots = max(max_slots, len(candidates))
            encoded = next_encoded

        self.stats.universe_sizes["candidate"] = max_slots
        return counts

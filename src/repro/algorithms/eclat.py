"""Eclat — depth-first vertical mining (Zaki, TKDE 2000) with the
diffset refinement of dEclat (Zaki & Gouda, KDD 2003).

Where Apriori sweeps the itemset lattice breadth-first, Eclat walks it
depth-first over *equivalence classes* of a common prefix: the class
of prefix ``P`` holds the frequent extensions of ``P``, and each
member's support set is intersected with its right siblings' to form
the child class.  The support sets are big-int gid bitmaps
(:mod:`repro.algorithms.bitset`), so the whole algorithm is
``&``/``bit_count`` over dense words — no candidate hashing, no
per-level rescan.

Diffset pruning keeps the memory of deep classes small: below the
first level a member stores ``d(PX) = t(P) - t(PX)`` (the groups the
prefix has that the extension loses) instead of its full tidset, and

* from tidsets:  ``d(PXY) = t(PX) & ~t(PY)``,
* from diffsets: ``d(PXY) = d(PY) & ~d(PX)``,

with ``support(PXY) = support(PX) - popcount(d(PXY))`` in both cases.
Dense inputs shrink the diffsets rapidly, which is exactly the regime
where tidset intersection is at its most expensive.

The result is the exact :data:`~repro.algorithms.base.ItemsetCounts`
contract of the pool — identical to Apriori for every input.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import BitsetStats, VerticalInput


@register_algorithm
class Eclat(FrequentItemsetMiner):
    """Depth-first vertical mining over gid bitmaps, dEclat's
    difference encoding below the first level."""

    name = "eclat"

    def __init__(self) -> None:
        #: observability: bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.stats.clear()
        counts: ItemsetCounts = {}

        vertical = VerticalInput.of(groups)
        self.stats.universe_sizes["gid"] = len(vertical)

        # Root class: frequent singletons in ascending item order (the
        # order fixes the prefix tree, making runs deterministic).
        root: List[Tuple[Tuple[int, ...], int, int]] = []
        for item, tidset in vertical.bitmaps.items():
            support = tidset.bit_count()
            if support >= min_count:
                counts[frozenset((item,))] = support
                root.append(((item,), tidset, support))
        self.stats.sample_density(list(counts.values()), len(vertical))
        self.stats.passes += 1
        self.stats.candidates += len(vertical.bitmaps)
        self.stats.popcount_calls += len(root)
        self._expand(root, min_count, counts, parents_are_diffsets=False)
        return counts

    # ------------------------------------------------------------------

    def _expand(
        self,
        extensions: List[Tuple[Tuple[int, ...], int, int]],
        min_count: int,
        counts: ItemsetCounts,
        parents_are_diffsets: bool,
    ) -> None:
        """Recurse over one equivalence class.

        ``extensions`` holds ``(itemset, support set, support)``
        members sharing a prefix; the support set is a tidset bitmap
        or, when ``parents_are_diffsets``, a diffset bitmap.
        """
        self.stats.passes += 1  # one class expansion ~ one lattice round
        for i, (itemset_i, rep_i, support_i) in enumerate(extensions):
            children: List[Tuple[Tuple[int, ...], int, int]] = []
            for itemset_j, rep_j, _support_j in extensions[i + 1 :]:
                self.stats.candidates += 1
                if parents_are_diffsets:
                    diff = rep_j & ~rep_i
                else:
                    diff = rep_i & ~rep_j
                support = support_i - diff.bit_count()
                self.stats.intersections += 1
                self.stats.popcount_calls += 1
                if support >= min_count:
                    child = itemset_i + (itemset_j[-1],)
                    counts[frozenset(child)] = support
                    children.append((child, diff, support))
            if children:
                self._expand(
                    children, min_count, counts, parents_are_diffsets=True
                )

"""Automatic algorithm selection for the simple core.

Section 3: the core operator "uses directives from the translator to
decide the mining technique to apply [...] typically each of them has
better performance under specific assumptions about data and rule
distribution."  The decision here is a rule read off a measured table
— every pool member over a grid of input shapes, same vertical input,
mine only (EXPERIMENTS.md SYN-2):

* few groups of many items each -> Eclat: bitmaps of a few machine
  words make the bit operations nearly free, and of the Python work
  left per candidate Apriori's subset probes grow with the itemset
  size while the depth-first search has none (1.1-1.7x faster at
  <= 1000 groups of >= 14 items, 6x on a 16-deep lattice);
* everything else -> Apriori: on wide bitmaps the popcount per
  candidate dominates and levelwise pruning evaluates the fewest.

The pool is exact, so the rule only ever trades running time.
"""

from __future__ import annotations

from repro.algorithms.apriori import Apriori
from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import BitsetStats, VerticalInput
from repro.algorithms.eclat import Eclat


#: at most this many groups: gid bitmaps of a few machine words
_NARROW_GROUPS = 1_000
#: average group size from which the lattice is deep enough for the
#: depth-first search to beat levelwise subset probing on them
_DEEP_AVERAGE = 12.0


def select_algorithm(groups: int, entries: int) -> FrequentItemsetMiner:
    """Pick a pool algorithm for an input of *groups* groups holding
    *entries* (group, item) pairs."""
    if 0 < groups <= _NARROW_GROUPS and entries >= _DEEP_AVERAGE * groups:
        return Eclat()
    return Apriori()


@register_algorithm
class AutoSelect(FrequentItemsetMiner):
    """Pool member that defers to :func:`select_algorithm` per input.

    Registered as ``"auto"`` so ``MiningSystem(algorithm="auto")`` and
    the CLI's ``.algorithm auto`` both work.
    """

    name = "auto"

    def __init__(self) -> None:
        #: the concrete algorithm chosen on the last run (observability)
        self.last_choice: str = ""
        #: the chosen member's bitmap counters of the last run
        self.stats = BitsetStats()

    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        vertical = VerticalInput.of(groups)
        chosen = select_algorithm(len(vertical), vertical.entries)
        self.last_choice = chosen.name
        self.stats = chosen.stats
        return chosen.mine(vertical, min_count)

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

from dataclasses import dataclass

from repro.algorithms.apriori import Apriori
from repro.algorithms.base import (
    FrequentItemsetMiner,
    ItemsetCounts,
    MinerInput,
    register_algorithm,
)
from repro.algorithms.bitset import BitsetStats, VerticalInput
from repro.algorithms.eclat import Eclat


@dataclass(frozen=True)
class InputStatistics:
    """Cheap one-pass statistics of an encoded input."""

    groups: int
    distinct_items: int
    total_entries: int

    @property
    def average_group_size(self) -> float:
        return self.total_entries / self.groups if self.groups else 0.0

    @classmethod
    def of(cls, encoded: MinerInput) -> "InputStatistics":
        """Read off the vertical input, which knows all three."""
        vertical = VerticalInput.of(encoded)
        return cls(
            groups=len(vertical),
            distinct_items=len(vertical.bitmaps),
            total_entries=vertical.entries,
        )


#: at most this many groups: gid bitmaps of a few machine words
_NARROW_GROUPS = 1_000
#: average group size from which the lattice is deep enough for the
#: depth-first search to beat levelwise subset probing on them
_DEEP_AVERAGE = 12.0


def select_algorithm(
    statistics: InputStatistics, min_count: int
) -> FrequentItemsetMiner:
    """Pick a pool algorithm for the given input shape."""
    if (
        statistics.groups <= _NARROW_GROUPS
        and statistics.average_group_size >= _DEEP_AVERAGE
    ):
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
        chosen = select_algorithm(InputStatistics.of(vertical), min_count)
        self.last_choice = chosen.name
        self.stats = chosen.stats
        return chosen.mine(vertical, min_count)

"""The pool of frequent-itemset mining algorithms.

Section 3 of the paper requires *algorithm interoperability*: "the core
operator can be constituted of a pool of mining algorithms", each
working only on encoded data (group identifiers and item identifiers),
never on the real source.  This package provides that pool:

* :class:`~repro.algorithms.apriori.Apriori` — the classic iterative
  algorithm [Agrawal et al. 1993/1994] with group-id lists, matching
  the description in Section 4.3.1;
* :class:`~repro.algorithms.eclat.Eclat` — depth-first vertical mining
  over gid bitmaps with diffset pruning [Zaki, TKDE 2000; Zaki
  & Gouda, KDD 2003];
* :class:`~repro.algorithms.selector.AutoSelect` (``"auto"``) — picks
  one of the two from the input's shape.

Every ``mine()`` takes the one vertical input type of
:mod:`repro.algorithms.bitset` (:class:`VerticalInput`; a group map is
normalised to it).  Both members run on its big-int gid bitmaps
(``&`` and ``int.bit_count``), and no member takes a constructor
argument.

All algorithms return the identical, exact answer: every itemset whose
group count reaches the threshold, with its exact count (this is the
contract the property-based tests enforce).
"""

from repro.algorithms.apriori import Apriori
from repro.algorithms.base import (
    ALGORITHMS,
    FrequentItemsetMiner,
    GroupMap,
    ItemsetCounts,
    MinerInput,
    get_algorithm,
    register_algorithm,
)
from repro.algorithms.bitset import (
    BitsetStats,
    GroupedUniverse,
    VerticalInput,
)
from repro.algorithms.eclat import Eclat
from repro.algorithms.selector import AutoSelect, select_algorithm

__all__ = [
    "ALGORITHMS",
    "Apriori",
    "AutoSelect",
    "BitsetStats",
    "Eclat",
    "GroupedUniverse",
    "select_algorithm",
    "FrequentItemsetMiner",
    "GroupMap",
    "ItemsetCounts",
    "MinerInput",
    "VerticalInput",
    "get_algorithm",
    "register_algorithm",
]

"""The pool of frequent-itemset mining algorithms.

Section 3 of the paper requires *algorithm interoperability*: "the core
operator can be constituted of a pool of mining algorithms", each
working only on encoded data (group identifiers and item identifiers),
never on the real source.  This package provides that pool:

* :class:`~repro.algorithms.apriori.Apriori` — the classic iterative
  algorithm [Agrawal et al. 1993/1994] with group-id lists, matching
  the description in Section 4.3.1;
* :class:`~repro.algorithms.aprioritid.AprioriTid` — the
  candidate-id-list variant of Apriori [Agrawal & Srikant 1994];
* :class:`~repro.algorithms.dhp.DirectHashingPruning` — the hash-based
  algorithm of Park, Chen & Yu [SIGMOD 1995];
* :class:`~repro.algorithms.partition.Partition` — the two-scan
  partitioned algorithm of Savasere, Omiecinski & Navathe [VLDB 1995];
* :class:`~repro.algorithms.sampling.ToivonenSampling` — the
  sampling + negative-border algorithm of Toivonen [VLDB 1996];
* :class:`~repro.algorithms.eclat.Eclat` — depth-first vertical mining
  over gid bitmaps with diffset pruning [Zaki, TKDE 2000; Zaki
  & Gouda, KDD 2003].

Every ``mine()`` takes the one vertical input type of
:mod:`repro.algorithms.bitset` (:class:`VerticalInput`; a group map is
normalised to it).  The gid-list algorithms run on big-int bitmaps
(``&`` and ``int.bit_count``).

All algorithms return the identical, exact answer: every itemset whose
group count reaches the threshold, with its exact count (this is the
contract the property-based tests enforce).
"""

from repro.algorithms.apriori import Apriori
from repro.algorithms.aprioritid import AprioriTid
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
    SlotUniverse,
    VerticalInput,
)
from repro.algorithms.dhp import DirectHashingPruning
from repro.algorithms.eclat import Eclat
from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.partition import Partition
from repro.algorithms.sampling import ToivonenSampling
from repro.algorithms.selector import (
    AutoSelect,
    InputStatistics,
    select_algorithm,
)

__all__ = [
    "ALGORITHMS",
    "Apriori",
    "AprioriTid",
    "AutoSelect",
    "BitsetStats",
    "Eclat",
    "GroupedUniverse",
    "InputStatistics",
    "SlotUniverse",
    "select_algorithm",
    "DirectHashingPruning",
    "Exhaustive",
    "FrequentItemsetMiner",
    "GroupMap",
    "ItemsetCounts",
    "MinerInput",
    "Partition",
    "ToivonenSampling",
    "VerticalInput",
    "get_algorithm",
    "register_algorithm",
]

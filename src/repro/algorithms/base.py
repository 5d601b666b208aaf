"""Common interface and registry for the mining-algorithm pool.

The interface deliberately mirrors the paper's encoding borderline: an
algorithm sees only *group identifiers* and *item identifiers* (the
``Gid``/``Bid`` columns of the ``CodedSource`` table), never the source
data.  This is what makes the pool interchangeable ("algorithms are
completely hidden to the rest of the system", Section 3).
"""

from __future__ import annotations

import abc
import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple, Type, Union

from repro.algorithms.bitset import VerticalInput

#: encoded input, horizontal: group id -> set of item ids in the group
GroupMap = Mapping[int, FrozenSet[int]]

#: what ``mine()`` accepts: the vertical input the core loader builds,
#: or a group map, which ``VerticalInput.of`` turns into one
MinerInput = Union[VerticalInput, GroupMap]

#: result: itemset -> number of groups containing it (only itemsets with
#: count >= the threshold are present)
ItemsetCounts = Dict[FrozenSet[int], int]


class FrequentItemsetMiner(abc.ABC):
    """A frequent ("large") itemset mining algorithm.

    Subclasses must be deterministic: given the same input they return
    the same counts (randomized algorithms take an explicit seed).
    """

    #: registry key; subclasses override
    name: str = ""

    @abc.abstractmethod
    def mine(self, groups: MinerInput, min_count: int) -> ItemsetCounts:
        """Return every itemset contained in at least ``min_count``
        groups, mapped to its exact group count.

        Implementations normalise *groups* with
        :meth:`VerticalInput.of` and read the side they work on
        (``gid_lists()`` or the horizontal ``groups``).  ``min_count``
        must be at least 1; an itemset's count is the number of
        *groups* (not tuples) containing all of its items, matching the
        support semantics of the MINE RULE operator.
        """

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def join_candidates(
        frequent: Iterable[Tuple[int, ...]],
    ) -> List[Tuple[int, ...]]:
        """Apriori candidate generation: join k-itemsets sharing a
        (k-1)-prefix, then prune candidates with an infrequent
        k-subset.  Itemsets are sorted tuples."""
        frequent = sorted(frequent)
        frequent_set = set(frequent)
        candidates: List[Tuple[int, ...]] = []
        by_prefix: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        for itemset in frequent:
            by_prefix.setdefault(itemset[:-1], []).append(itemset)
        for siblings in by_prefix.values():
            for a, b in itertools.combinations(siblings, 2):
                candidate = a + (b[-1],) if a[-1] < b[-1] else b + (a[-1],)
                if all(
                    candidate[:drop] + candidate[drop + 1:] in frequent_set
                    for drop in range(len(candidate))
                ):
                    candidates.append(candidate)
        return candidates


#: name -> class registry of available algorithms
ALGORITHMS: Dict[str, Type[FrequentItemsetMiner]] = {}


def register_algorithm(cls: Type[FrequentItemsetMiner]) -> Type[FrequentItemsetMiner]:
    """Class decorator adding an algorithm to the pool."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a registry name")
    ALGORITHMS[cls.name] = cls
    return cls


def get_algorithm(name: str, **kwargs) -> FrequentItemsetMiner:
    """Instantiate a pool algorithm by name.

    Raises :class:`KeyError` with the available names on a miss.
    """
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown mining algorithm {name!r}; "
            f"available: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return cls(**kwargs)

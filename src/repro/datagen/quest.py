"""IBM Quest-style synthetic basket generator.

The association-rule literature the core operator draws on (Agrawal &
Srikant's Apriori and the levelwise and sampling algorithms that
followed it) evaluates on the Quest synthetic workloads named
``T<avg basket>.I<avg pattern>.D<transactions>``: transactions are
built from a pool of *maximal potentially large itemsets* whose sizes
and weights follow the original generator's distributions (Poisson
sizes, exponential weights, item skew).  This module reimplements that
generator; :func:`load_quest` loads the result as a two-column
``(tid, item)`` table, the natural MINE RULE input for simple rules
grouped by transaction.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.sqlengine.engine import Database
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType


@dataclass(frozen=True)
class QuestParameters:
    """Parameters mirroring the original Quest generator.

    ``transactions`` = |D|, ``avg_transaction_size`` = |T|,
    ``avg_pattern_size`` = |I|, ``patterns`` = |L|, ``items`` = N.
    """

    transactions: int = 1000
    avg_transaction_size: float = 10.0
    avg_pattern_size: float = 4.0
    patterns: int = 200
    items: int = 500
    correlation: float = 0.5
    corruption: float = 0.5
    seed: int = 101

    def name(self) -> str:
        """The customary T..I..D.. label, e.g. T10.I4.D1000."""
        t = int(round(self.avg_transaction_size))
        i = int(round(self.avg_pattern_size))
        return f"T{t}.I{i}.D{self.transactions}"


def _basket_stream(
    params: QuestParameters,
) -> Iterator[Tuple[int, frozenset]]:
    """Yield ``(tid, basket)`` pairs in tid order, one at a time.

    The single RNG path of :func:`generate_quest` and
    :func:`load_quest`: the pattern pool is drawn up front, then each
    basket consumes the stream of random draws in a fixed order.
    """
    rng = random.Random(params.seed)

    patterns = _potentially_large_itemsets(params, rng)
    cumulative = list(accumulate(_exponential_weights(len(patterns), rng)))
    corruption_levels = [
        min(0.9, abs(rng.gauss(params.corruption, 0.1))) for _ in patterns
    ]

    for tid in range(1, params.transactions + 1):
        target = max(1, _poisson(params.avg_transaction_size - 1, rng) + 1)
        basket: set = set()
        guard = 0
        while len(basket) < target and guard < 50:
            guard += 1
            index = _weighted_choice(cumulative, rng)
            pattern = patterns[index]
            kept = [
                item
                for item in pattern
                if rng.random() >= corruption_levels[index]
            ]
            if not kept:
                continue
            if len(basket) + len(kept) > target * 1.5 and basket:
                break
            basket.update(kept)
        if not basket:
            basket.add(rng.randrange(params.items))
        yield tid, frozenset(basket)


def generate_quest(params: QuestParameters) -> Dict[int, frozenset]:
    """Generate ``{tid: frozenset(item ids)}`` baskets."""
    return dict(_basket_stream(params))


def load_quest(
    database: Database,
    params: QuestParameters,
    table_name: str = "Baskets",
) -> Table:
    """Load Quest baskets as a ``(tid, item)`` table, streamed from
    the generator in tid order with each basket's items sorted."""
    return database.create_table_from_rows(
        table_name,
        ("tid", "item"),
        (
            (tid, f"item{item}")
            for tid, basket in _basket_stream(params)
            for item in sorted(basket)
        ),
        (SqlType.INTEGER, SqlType.VARCHAR),
        replace=True,
    )


# ---------------------------------------------------------------------------


def _potentially_large_itemsets(
    params: QuestParameters, rng: random.Random
) -> List[Tuple[int, ...]]:
    """The pool of maximal potentially large itemsets: sizes are
    Poisson with mean |I|; successive patterns share a correlated
    fraction of items with their predecessor."""
    patterns: List[Tuple[int, ...]] = []
    previous: Tuple[int, ...] = ()
    for _ in range(params.patterns):
        size = max(1, _poisson(params.avg_pattern_size - 1, rng) + 1)
        chosen: set = set()
        if previous:
            carry = int(round(params.correlation * min(size, len(previous))))
            chosen.update(rng.sample(previous, carry))
        while len(chosen) < size:
            chosen.add(_skewed_item(params.items, rng))
        pattern = tuple(sorted(chosen))
        patterns.append(pattern)
        previous = pattern
    return patterns


def _exponential_weights(count: int, rng: random.Random) -> List[float]:
    weights = [rng.expovariate(1.0) for _ in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def _weighted_choice(cumulative: Sequence[float], rng: random.Random) -> int:
    """The first index whose running weight sum *cumulative* reaches a
    uniform draw; the last when rounding leaves the draw above them
    all."""
    return min(bisect_left(cumulative, rng.random()), len(cumulative) - 1)


def _poisson(mean: float, rng: random.Random) -> int:
    """Knuth's algorithm; adequate for the small means used here."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def _skewed_item(items: int, rng: random.Random) -> int:
    """Item popularity skew (lower ids more popular)."""
    return min(items - 1, int(items * rng.random() ** 1.5))

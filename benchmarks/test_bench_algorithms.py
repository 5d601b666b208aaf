"""SYN-2 — the algorithm pool on simple rules (algorithm
interoperability, Section 3).

In the spirit of the evaluations in the cited algorithm papers, the
pool runs on one Quest workload across a support sweep: every
algorithm must return the identical rule set; only core-operator time
differs.  AprioriTid, DHP, Partition and Toivonen sampling were
measured here too, never within 2x of Apriori, and left the pool; their
numbers are recorded in EXPERIMENTS.md.
"""

import math

import pytest

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.datagen import QuestParameters, generate_quest

PARAMS = QuestParameters(
    transactions=400,
    avg_transaction_size=8,
    avg_pattern_size=3,
    patterns=60,
    items=120,
    seed=77,
)

BASKETS = generate_quest(PARAMS)
SUPPORTS = [0.02, 0.05, 0.10]

#: the real pool — "auto" only delegates to one of the members below
POOL = [name for name in sorted(ALGORITHMS) if name != "auto"]


def min_count(fraction):
    return max(1, math.ceil(fraction * len(BASKETS) - 1e-9))


@pytest.mark.parametrize("name", POOL)
def test_syn2_pool_agreement_across_support_sweep(name):
    reference = get_algorithm("apriori")
    candidate = get_algorithm(name)
    for fraction in SUPPORTS:
        threshold = min_count(fraction)
        assert candidate.mine(BASKETS, threshold) == reference.mine(
            BASKETS, threshold
        ), f"{name} diverges at support {fraction}"


@pytest.mark.parametrize("name", POOL)
def test_syn2_core_time(benchmark, name):
    """Per-algorithm core time at the middle support level."""
    miner = get_algorithm(name)
    threshold = min_count(0.05)
    counts = benchmark(lambda: miner.mine(BASKETS, threshold))
    assert counts


def test_syn2_print_sweep():
    """Frequent-itemset counts per support level (series for
    EXPERIMENTS.md — the classic 'candidates vs support' curve)."""
    print(f"\nSYN-2 sweep on {PARAMS.name()}:")
    print(f"{'support':>8} {'min_count':>10} {'itemsets':>9}")
    reference = get_algorithm("apriori")
    previous = None
    for fraction in SUPPORTS:
        counts = reference.mine(BASKETS, min_count(fraction))
        print(f"{fraction:>8} {min_count(fraction):>10} {len(counts):>9}")
        if previous is not None:
            assert len(counts) <= previous  # monotone in support
        previous = len(counts)

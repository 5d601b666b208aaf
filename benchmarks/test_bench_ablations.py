"""SYN-6 — ablations of the design choices DESIGN.md calls out.

a) Planner: hash joins vs. nested loops on the query shape of Q4 is a
   recorded result (EXPERIMENTS.md, SYN-6a, about 125x); the engine no
   longer has the switch.
b) General core: the paper's smaller-parent heuristic vs. always-body /
   always-head parents is a recorded result too (EXPERIMENTS.md,
   SYN-6b); the smaller parent is the only code.
c) Algorithm parameters: DHP bucket count, Partition count, sampling
   fraction — exactness asserted, cost measured.
"""

import math

import pytest

from repro.algorithms import get_algorithm
from repro.datagen import QuestParameters, generate_quest, load_quest


BASKETS = generate_quest(
    QuestParameters(transactions=300, avg_transaction_size=7,
                    items=100, patterns=40, seed=55)
)
MIN_COUNT = max(1, math.ceil(0.05 * len(BASKETS)))
REFERENCE = get_algorithm("apriori").mine(BASKETS, MIN_COUNT)


class TestAlgorithmParameterAblations:
    @pytest.mark.parametrize("buckets", [16, 256, 4096])
    def test_syn6c_dhp_bucket_sweep(self, benchmark, buckets):
        miner = get_algorithm("dhp", buckets=buckets)
        counts = benchmark(lambda: miner.mine(BASKETS, MIN_COUNT))
        assert counts == REFERENCE

    @pytest.mark.parametrize("partitions", [2, 4, 8])
    def test_syn6c_partition_sweep(self, benchmark, partitions):
        miner = get_algorithm("partition", partitions=partitions)
        counts = benchmark(lambda: miner.mine(BASKETS, MIN_COUNT))
        assert counts == REFERENCE

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_syn6c_sampling_fraction_sweep(self, benchmark, fraction):
        miner = get_algorithm("sampling", sample_fraction=fraction, seed=7)
        counts = benchmark(lambda: miner.mine(BASKETS, MIN_COUNT))
        assert counts == REFERENCE

"""SYN-6 — ablations of the design choices DESIGN.md calls out.

a) Planner: hash joins vs. nested loops on the query shape of Q4 is a
   recorded result (EXPERIMENTS.md, SYN-6a, about 125x); the engine no
   longer has the switch.
b) General core: the paper's smaller-parent heuristic vs. always-body /
   always-head parents (Section 4.3.2's efficiency note), measured as
   join pairs examined.
c) Algorithm parameters: DHP bucket count, Partition count, sampling
   fraction — exactness asserted, cost measured.
"""

import math

import pytest

from repro.algorithms import get_algorithm
from repro.datagen import QuestParameters, generate_quest, load_quest


class TestLatticeHeuristicAblation:
    @pytest.fixture(scope="class")
    def lattice_inputs(self):
        from repro.kernel.core.inputs import GeneralInput

        baskets = generate_quest(
            QuestParameters(transactions=120, avg_transaction_size=6,
                            items=40, patterns=20, seed=31)
        )
        body = {gid: {0: set(items)} for gid, items in baskets.items()}
        return GeneralInput.from_items(
            totg=len(baskets),
            min_count=max(1, math.ceil(0.05 * len(baskets))),
            body_items=body,
        )

    @pytest.fixture(scope="class")
    def core_directives(self):
        from repro.kernel.program import CoreDirectives

        return CoreDirectives(
            simple=False,
            same_schema=True,
            clustered=False,
            cluster_condition=False,
            mining_condition=False,
            coded_source="cs",
            cluster_couples=None,
            input_rules=None,
            min_support=0.05,
            min_confidence=0.0,
            body_card=(1, 3),
            head_card=(1, 3),
        )

    def test_syn6b_strategies_agree(self, lattice_inputs, core_directives):
        from repro.kernel.core.general import GeneralCoreOperator

        results = {}
        work = {}
        for strategy in ("smaller", "body", "head"):
            operator = GeneralCoreOperator(parent_strategy=strategy)
            rules = operator.run(lattice_inputs, core_directives)
            results[strategy] = {
                (tuple(sorted(r.body)), tuple(sorted(r.head)),
                 r.support_count)
                for r in rules
            }
            work[strategy] = operator.join_pairs_examined
        assert results["smaller"] == results["body"] == results["head"]
        print(f"\nSYN-6b join pairs examined: {work}")
        # the paper's heuristic never does more work than the worst
        # fixed choice
        assert work["smaller"] <= max(work["body"], work["head"])

    @pytest.mark.parametrize("strategy", ["smaller", "body", "head"])
    def test_syn6b_lattice_time(
        self, benchmark, lattice_inputs, core_directives, strategy
    ):
        from repro.kernel.core.general import GeneralCoreOperator

        operator = GeneralCoreOperator(parent_strategy=strategy)
        rules = benchmark(
            lambda: operator.run(lattice_inputs, core_directives)
        )
        assert rules


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

"""Automatic algorithm selection tests: the rules follow the measured
member x shape table (EXPERIMENTS.md SYN-2)."""

import pytest

from repro.algorithms import AutoSelect, get_algorithm, select_algorithm
from repro.algorithms.apriori import Apriori
from repro.algorithms.eclat import Eclat


class TestHeuristic:
    """One row of the table per test: (groups, entries)."""

    def test_tiny_input_uses_apriori(self):
        assert isinstance(select_algorithm(10, 50), Apriori)

    def test_empty_input_uses_apriori(self):
        assert isinstance(select_algorithm(0, 0), Apriori)

    def test_dense_narrow_inputs_use_eclat(self):
        # T20.D1000: bit operations nearly free, deep lattice
        assert isinstance(select_algorithm(1_000, 20_000), Eclat)

    def test_dense_wide_inputs_use_apriori(self):
        # T20.D5000 / many-dense: popcount per candidate dominates
        assert isinstance(select_algorithm(5_000, 100_000), Apriori)

    def test_many_sparse_groups_use_apriori(self):
        # retail_cold's shape; Partition is 2-7x slower on it
        assert isinstance(select_algorithm(10_000, 30_000), Apriori)

    def test_benchmark_inputs_use_apriori(self):
        # quest_core_reuse and retail_cold (full size)
        for groups, entries in ((20_000, 216_000), (40_000, 152_000)):
            assert isinstance(select_algorithm(groups, entries), Apriori)

    def test_default_is_apriori(self):
        assert isinstance(select_algorithm(500, 2_000), Apriori)

    def test_only_measured_winners_are_chosen(self):
        shapes = [
            (groups, groups * average)
            for groups in (1, 40, 500, 1_000, 1_001, 5_000, 50_000)
            for average in (1, 4, 8, 12, 20, 40)
        ]
        chosen = {type(select_algorithm(*shape)) for shape in shapes}
        assert chosen == {Apriori, Eclat}


class TestAutoSelect:
    EXAMPLE = {
        gid: frozenset(items)
        for gid, items in enumerate(
            [{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3}], 1
        )
    }

    def test_registered_in_pool(self):
        miner = get_algorithm("auto")
        assert isinstance(miner, AutoSelect)

    def test_result_matches_apriori(self):
        auto = AutoSelect()
        assert auto.mine(self.EXAMPLE, 2) == Apriori().mine(self.EXAMPLE, 2)

    def test_records_choice(self):
        auto = AutoSelect()
        auto.mine(self.EXAMPLE, 2)
        assert auto.last_choice == "apriori"  # tiny input

    def test_dense_choice_recorded(self):
        dense = {
            gid: frozenset(range(12)) for gid in range(100)
        }
        auto = AutoSelect()
        counts = auto.mine(dense, 100)
        assert auto.last_choice == "eclat"
        assert len(counts) == 2**12 - 1

    def test_exposes_the_chosen_members_stats(self):
        auto = AutoSelect()
        auto.mine(self.EXAMPLE, 2)
        assert auto.stats.universe_sizes["gid"] == len(self.EXAMPLE)
        assert auto.stats.popcount_calls > 0
        assert auto.stats.passes > 0

    def test_usable_in_mining_system(self):
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1

        system = MiningSystem(algorithm="auto")
        load_purchase_figure1(system.db)
        result = system.execute(
            "MINE RULE A AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5"
        )
        assert result.rules
        assert system.algorithm.last_choice == "apriori"

    def test_system_reports_what_auto_ran(self):
        """The core span and the flow event name the member, and the
        span carries its counters — not ``auto`` and zeros."""
        from repro import MiningSystem
        from repro.datagen import load_purchase_figure1
        from repro.obs.spans import Tracer

        tracer = Tracer(enabled=True)
        system = MiningSystem(algorithm="auto", tracer=tracer)
        load_purchase_figure1(system.db)
        result = system.execute(
            "MINE RULE A AS SELECT DISTINCT 1..n item AS BODY, "
            "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
            "GROUP BY customer "
            "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5"
        )
        core_spans = [
            span for span in tracer.spans
            if span.name == "core" and span.category == "component"
        ]
        assert [span.args["algorithm"] for span in core_spans] == [
            "auto(apriori)"
        ]
        args = core_spans[0].args
        assert args["popcounts"] > 0 and args["passes"] > 0
        assert args["universe_sizes"]["gid"] > 0
        assert "algorithm auto(apriori)" in result.flow.render()

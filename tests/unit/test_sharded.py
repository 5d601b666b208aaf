"""Unit tests for the sharded executor (PR 6): plan arithmetic, the
exact recount kernels, executor fallbacks and the system facade wiring
(``workers=N``)."""

import pytest

from repro import MiningSystem
from repro.algorithms import get_algorithm
from repro.datagen import load_purchase_figure1
from repro.kernel.core.inputs import SimpleInput
from repro.kernel.core.simple import SimpleCoreOperator
from repro.kernel.program import CoreDirectives
from repro.parallel import (
    ShardPlan,
    ShardedMiner,
    exact_itemset_counts,
    local_min_count,
)

GROUPS = {
    1: frozenset({1, 2, 5}),
    2: frozenset({2, 4}),
    3: frozenset({2, 3}),
    4: frozenset({1, 2, 4}),
    5: frozenset({1, 3}),
    8: frozenset({1, 2}),
    9: frozenset({2, 3}),
    12: frozenset({1, 2, 3}),
    15: frozenset({2}),
    20: frozenset({1, 2}),
}


def _directives(**overrides):
    base = dict(
        simple=True,
        same_schema=True,
        clustered=False,
        cluster_condition=False,
        mining_condition=False,
        coded_source="CS",
        cluster_couples=None,
        input_rules=None,
        min_support=0.0,
        min_confidence=0.0,
        body_card=(1, None),
        head_card=(1, 1),
    )
    base.update(overrides)
    return CoreDirectives(**base)


class TestShardPlan:
    def test_ragged_split(self):
        plan = ShardPlan.split(GROUPS, 4)
        assert plan.sizes == (3, 3, 2, 2)
        assert plan.bounds == ((1, 3), (4, 8), (9, 12), (15, 20))
        assert plan.total == len(GROUPS)
        assert plan.shard_of(8) == 1
        assert plan.shard_of(13) is None
        assert "1..3 (3)" in plan.describe()

    def test_empty_shards(self):
        plan = ShardPlan.split([7, 11], 4)
        assert plan.sizes == (1, 1, 0, 0)
        assert plan.bounds == ((7, 7), (11, 11), None, None)
        assert "empty" in plan.describe()

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="positive"):
            ShardPlan.split([1], 0)

    def test_assign_preserves_groups(self):
        plan = ShardPlan.split(GROUPS, 3)
        shards = plan.assign(GROUPS)
        merged = {}
        for shard in shards:
            merged.update(shard)
        assert merged == GROUPS
        assert [len(s) for s in shards] == list(plan.sizes)

    def test_local_min_count_scaling(self):
        # Partition's ceil scaling, and the empty-shard convention
        assert local_min_count(4, 10, 5) == 2
        assert local_min_count(1, 10, 5) == 1
        assert local_min_count(10, 10, 3) == 3
        assert local_min_count(3, 9, 3) == 1
        assert local_min_count(5, 10, 0) == 1


class TestExactItemsetCounts:
    CANDIDATES = [(1,), (2,), (1, 2), (2, 3), (1, 2, 3), (7,), (1, 7)]

    def _expected(self):
        return [
            sum(
                1
                for items in GROUPS.values()
                if frozenset(candidate) <= items
            )
            for candidate in self.CANDIDATES
        ]

    @pytest.mark.parametrize("representation", ["bitset", "packed", "set"])
    def test_counts_match_subset_scan(self, representation):
        counts = exact_itemset_counts(
            GROUPS, self.CANDIDATES, representation
        )
        assert counts == self._expected()

    def test_packed_kernels_engaged_on_forced_cutover(self, monkeypatch):
        from repro.algorithms import bitset as module

        if module._BITWISE_COUNT is None:
            pytest.skip("numpy not importable")
        monkeypatch.setattr(module, "PACKED_MIN_SLOTS", 1)
        counts = exact_itemset_counts(GROUPS, self.CANDIDATES, "packed")
        assert counts == self._expected()

    def test_empty_groups(self):
        assert exact_itemset_counts({}, self.CANDIDATES, "bitset") == [
            0
        ] * len(self.CANDIDATES)


class TestShardedMinerMachinery:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardedMiner(workers=0)
        with pytest.raises(ValueError, match="shards"):
            ShardedMiner(workers=2, shards=0)
        with pytest.raises(ValueError, match="start method"):
            ShardedMiner(workers=2, start_method="thread")

    def test_empty_input_yields_no_rules(self):
        miner = ShardedMiner(workers=2, in_process=True)
        data = SimpleInput(totg=0, min_count=1, groups={})
        rules, stats = miner.mine_simple(
            data, _directives(), get_algorithm("apriori")
        )
        assert rules == []
        assert stats.shards == 2 and stats.workers == 2

    def test_shard_seconds_recorded_per_phase(self):
        miner = ShardedMiner(workers=2, shards=3, in_process=True)
        data = SimpleInput(totg=len(GROUPS), min_count=2, groups=GROUPS)
        miner.mine_simple(data, _directives(), get_algorithm("apriori"))
        phases = {phase for phase, _ in miner.shard_seconds}
        assert phases == {"local", "recount"}
        assert len(miner.shard_seconds) == 6

    def test_matches_serial_operator(self):
        data = SimpleInput(totg=len(GROUPS), min_count=2, groups=GROUPS)
        directives = _directives(min_confidence=0.4)
        serial = SimpleCoreOperator(get_algorithm("apriori")).run(
            data, directives
        )
        miner = ShardedMiner(workers=4, shards=7, in_process=True)
        rules, _ = miner.mine_simple(
            data, directives, get_algorithm("apriori")
        )
        assert rules == serial


class TestSystemFacadeWiring:
    STATEMENT = (
        "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
        "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
        "GROUP BY customer "
        "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5"
    )
    CLUSTERED = (
        "MINE RULE C AS SELECT DISTINCT 1..n item AS BODY, "
        "1..n item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
        "GROUP BY customer CLUSTER BY date "
        "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.2"
    )

    def _run(self, statement, **kwargs):
        system = MiningSystem(**kwargs)
        load_purchase_figure1(system.db)
        return system.execute(statement)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            MiningSystem(workers=0)

    def test_sharded_simple_matches_serial(self):
        serial = self._run(self.STATEMENT)
        sharded = self._run(self.STATEMENT, workers=2)
        assert sharded.encoded_rules == serial.encoded_rules
        assert sharded.core_stats.shards == 2
        assert sharded.core_stats.workers == 2
        assert serial.core_stats.shards == 0

    def test_sharded_general_matches_serial(self):
        serial = self._run(self.CLUSTERED)
        sharded = self._run(self.CLUSTERED, workers=2)
        assert sharded.encoded_rules == serial.encoded_rules
        assert sharded.core_stats.variant == "general"
        assert sharded.core_stats.shards == 2
        # unforced: every shard measures its own slice (dense here), and
        # the shards' lattice and recount intersections are all merged
        assert serial.core_stats.representation == "bitset"
        assert sharded.core_stats.representation == "bitset"
        assert sharded.core_stats.intersections > 0
        assert "rejected at group level" in serial.core_stats.describe()
        assert "rejected at group level" not in sharded.core_stats.describe()

    def test_workers_default_representation_is_packed(self):
        sharded = self._run(self.STATEMENT, workers=2)
        assert sharded.core_stats.representation == "packed"
        explicit = self._run(
            self.STATEMENT, workers=2, representation="set"
        )
        assert explicit.core_stats.representation == "set"
        assert explicit.encoded_rules == sharded.encoded_rules

    def test_shards_describe_in_flow(self):
        sharded = self._run(self.STATEMENT, workers=2)
        assert "2 shards x 2 workers" in sharded.flow.render()


class TestPackedLatticeRemapWarning:
    """Satellite fix: an *explicitly requested* ``packed`` layout that
    the lattice (general) core remaps to ``bitset`` must say so — a
    tracer instant plus a one-time ``RuntimeWarning`` — instead of the
    old silent remap."""

    STATEMENT = TestSystemFacadeWiring.CLUSTERED

    def _run(self, **kwargs):
        system = MiningSystem(**kwargs)
        load_purchase_figure1(system.db)
        return system.execute(self.STATEMENT)

    def test_explicit_packed_warns_with_pinned_message(self):
        from repro.parallel import (
            PACKED_LATTICE_REMAP_MESSAGE,
            reset_packed_remap_warning,
        )

        reset_packed_remap_warning()
        with pytest.warns(RuntimeWarning) as captured:
            result = self._run(workers=2, representation="packed")
        assert result.rules
        messages = [str(w.message) for w in captured]
        assert PACKED_LATTICE_REMAP_MESSAGE in messages

    def test_warning_fires_once_per_process(self):
        import warnings as warnings_mod

        from repro.parallel import reset_packed_remap_warning

        reset_packed_remap_warning()
        with pytest.warns(RuntimeWarning):
            self._run(workers=2, representation="packed")
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            result = self._run(workers=2, representation="packed")
        assert result.rules

    def test_remap_surfaces_in_tracer(self):
        from repro.obs.spans import Tracer
        from repro.parallel import reset_packed_remap_warning

        reset_packed_remap_warning()
        system = MiningSystem(
            workers=2, representation="packed", tracer=Tracer(enabled=True)
        )
        load_purchase_figure1(system.db)
        with pytest.warns(RuntimeWarning):
            system.execute(self.STATEMENT)
        remaps = [
            instant
            for instant in system.tracer.instants
            if instant.name == "core.representation_remap"
        ]
        assert remaps
        assert remaps[0].args["requested"] == "packed"
        assert remaps[0].args["effective"] == "bitset"

    def test_auto_upgrade_does_not_warn(self):
        import warnings as warnings_mod

        from repro.parallel import reset_packed_remap_warning

        reset_packed_remap_warning()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            # workers>1 auto-upgrades bitset->packed internally; the
            # lattice core remap of that *implicit* choice stays quiet
            result = self._run(workers=2)
        assert result.rules

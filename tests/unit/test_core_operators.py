"""Core operator tests: the simple and general variants (Section 4.3)."""

import pytest

from repro.algorithms import Apriori
from repro.kernel.core import (
    EncodedRule,
    GeneralCoreOperator,
    GeneralInput,
    SimpleCoreOperator,
    SimpleInput,
)
from repro.kernel.core.inputs import min_group_count
from repro.kernel.program import CoreDirectives


def directives(
    simple=True,
    same_schema=True,
    clustered=False,
    cluster_condition=False,
    mining_condition=False,
    min_support=0.0,
    min_confidence=0.0,
    body_card=(1, None),
    head_card=(1, 1),
):
    return CoreDirectives(
        simple=simple,
        same_schema=same_schema,
        clustered=clustered,
        cluster_condition=cluster_condition,
        mining_condition=mining_condition,
        coded_source="cs",
        cluster_couples="cc" if cluster_condition else None,
        input_rules="ir" if mining_condition else None,
        min_support=min_support,
        min_confidence=min_confidence,
        body_card=body_card,
        head_card=head_card,
    )


def simple_input(groups, min_count=1):
    return SimpleInput(
        totg=len(groups),
        min_count=min_count,
        groups={g: frozenset(s) for g, s in groups.items()},
    )


def rule_map(rules):
    return {
        (tuple(sorted(r.body)), tuple(sorted(r.head))): r for r in rules
    }


class TestMinGroupCount:
    def test_exact_fraction(self):
        assert min_group_count(0.5, 4) == 2

    def test_rounds_up(self):
        assert min_group_count(0.5, 5) == 3

    def test_never_below_one(self):
        assert min_group_count(0.0, 100) == 1

    def test_float_fuzz(self):
        # 0.3 * 10 = 2.9999999... must still be 3, not 4
        assert min_group_count(0.3, 10) == 3


class TestSimpleCore:
    def test_two_group_example(self):
        groups = {1: {10, 20}, 2: {10, 20, 30}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives()
        )
        by_key = rule_map(rules)
        rule = by_key[((10,), (20,))]
        assert rule.support == 1.0 and rule.confidence == 1.0
        # 30 is not frequent at min_count=2
        assert not any(30 in r.body or 30 in r.head for r in rules)

    def test_confidence_computed_from_body_count(self):
        groups = {1: {1, 2}, 2: {1}, 3: {1, 2}, 4: {3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives()
        )
        rule = rule_map(rules)[((1,), (2,))]
        assert rule.support_count == 2
        assert rule.body_count == 3
        assert rule.confidence == pytest.approx(2 / 3)
        assert rule.support == pytest.approx(0.5)

    def test_min_confidence_filters(self):
        groups = {1: {1, 2}, 2: {1}, 3: {1, 2}, 4: {3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives(min_confidence=0.9)
        )
        assert ((1,), (2,)) not in rule_map(rules)
        assert ((2,), (1,)) in rule_map(rules)  # confidence 1.0

    def test_head_cardinality_default_one(self):
        groups = {1: {1, 2, 3}, 2: {1, 2, 3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives()
        )
        assert all(len(r.head) == 1 for r in rules)

    def test_head_cardinality_range(self):
        groups = {1: {1, 2, 3}, 2: {1, 2, 3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives(head_card=(2, 2))
        )
        assert rules and all(len(r.head) == 2 for r in rules)
        assert all(len(r.body) == 1 for r in rules)

    def test_body_cardinality_bounds(self):
        groups = {1: {1, 2, 3, 4}, 2: {1, 2, 3, 4}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives(body_card=(2, 2))
        )
        assert rules and all(len(r.body) == 2 for r in rules)

    def test_body_and_head_are_disjoint(self):
        groups = {1: {1, 2, 3}, 2: {1, 2, 3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives(head_card=(1, None))
        )
        assert rules
        assert all(not (r.body & r.head) for r in rules)

    def test_rules_sorted_deterministically(self):
        groups = {1: {3, 1, 2}, 2: {2, 1, 3}}
        rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives()
        )
        assert rules == sorted(rules, key=EncodedRule.key)

    def test_empty_groups_yield_no_rules(self):
        rules = SimpleCoreOperator(Apriori()).run(
            SimpleInput(totg=0, min_count=1, groups={}), directives()
        )
        assert rules == []


def general_input(
    body_items,
    head_items=None,
    cluster_pairs=None,
    elementary=None,
    totg=None,
    min_count=1,
    same_schema=True,
    clustered=False,
):
    return GeneralInput.from_items(
        totg=totg if totg is not None else len(body_items),
        min_count=min_count,
        body_items=body_items,
        head_items=head_items,
        cluster_pairs=cluster_pairs,
        elementary=elementary,
        same_schema=same_schema,
        clustered=clustered,
    )


#: the one cluster of a group without CLUSTER BY
W = 0


class TestGeneralCoreUnclustered:
    def test_matches_simple_semantics(self):
        groups = {1: {1, 2}, 2: {1}, 3: {1, 2}, 4: {3}}
        simple_rules = SimpleCoreOperator(Apriori()).run(
            simple_input(groups, 2), directives()
        )
        data = general_input(
            {g: {W: s} for g, s in groups.items()}, min_count=2
        )
        general_rules = GeneralCoreOperator().run(
            data, directives(simple=False)
        )
        assert rule_map(simple_rules).keys() == rule_map(general_rules).keys()
        for key, rule in rule_map(simple_rules).items():
            other = rule_map(general_rules)[key]
            assert rule.support == pytest.approx(other.support)
            assert rule.confidence == pytest.approx(other.confidence)

    def test_self_rule_excluded_same_schema(self):
        data = general_input({1: {W: {1}}, 2: {W: {1}}}, min_count=1)
        rules = GeneralCoreOperator().run(data, directives(simple=False))
        assert rules == []

    def test_lattice_grows_heads(self):
        data = general_input(
            {1: {W: {1, 2, 3}}, 2: {W: {1, 2, 3}}}, min_count=2
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, head_card=(1, None))
        )
        assert ((1,), (2, 3)) in rule_map(rules)

    def test_lattice_sizes_recorded(self):
        data = general_input(
            {1: {W: {1, 2, 3}}, 2: {W: {1, 2, 3}}}, min_count=2
        )
        operator = GeneralCoreOperator()
        operator.run(data, directives(simple=False, head_card=(1, None)))
        assert operator.lattice_sizes[(1, 1)] == 6
        assert (2, 1) in operator.lattice_sizes


class TestGeneralCoreClustered:
    def test_cluster_pairs_restrict_rules(self):
        # group 1: cluster 1 = {1}, cluster 2 = {2}
        body = {1: {1: {1}, 2: {2}}, 2: {1: {1}, 2: {2}}}
        ordered_pairs = {1: {(1, 2)}, 2: {(1, 2)}}
        data = general_input(
            body, cluster_pairs=ordered_pairs, min_count=2, clustered=True
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, clustered=True)
        )
        keys = rule_map(rules).keys()
        assert ((1,), (2,)) in keys
        assert ((2,), (1,)) not in keys  # reversed pair not allowed

    def test_all_pairs_when_no_condition(self):
        body = {1: {1: {1}, 2: {2}}, 2: {1: {1}, 2: {2}}}
        data = general_input(body, min_count=2, clustered=True)
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, clustered=True)
        )
        keys = rule_map(rules).keys()
        assert ((1,), (2,)) in keys and ((2,), (1,)) in keys

    def test_same_item_across_clusters_allowed(self):
        # the same item in two different clusters may form a rule
        body = {1: {1: {9}, 2: {9}}, 2: {1: {9}, 2: {9}}}
        pairs = {1: {(1, 2)}, 2: {(1, 2)}}
        data = general_input(
            body, cluster_pairs=pairs, min_count=2, clustered=True
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, clustered=True)
        )
        assert ((9,), (9,)) in rule_map(rules)

    def test_body_needs_single_cluster_cooccurrence(self):
        # items 1,2 in *different* clusters: {1,2} is not a valid body
        body = {
            1: {1: {1}, 2: {2}, 3: {7}},
            2: {1: {1, 2}, 3: {7}},
        }
        data = general_input(body, min_count=1, clustered=True)
        rules = GeneralCoreOperator().run(
            data,
            directives(simple=False, clustered=True, body_card=(2, 2)),
        )
        two_body = [r for r in rules if r.body == frozenset({1, 2})]
        # supported only via group 2's cluster 1
        assert all(r.body_count == 1 for r in two_body)

    def test_confidence_counts_unpaired_body_clusters(self):
        # Figure 2b scenario in miniature: body occurs in a group with
        # no valid cluster pair -> counts for confidence only.
        body = {
            1: {1: {5}},  # no pair in group 1
            2: {1: {5}, 2: {6}},
        }
        head = body
        pairs = {2: {(1, 2)}}
        data = general_input(
            body, head, cluster_pairs=pairs, min_count=1, clustered=True
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, clustered=True)
        )
        rule = rule_map(rules)[((5,), (6,))]
        assert rule.support_count == 1
        assert rule.body_count == 2
        assert rule.confidence == pytest.approx(0.5)


class TestGeneralCoreElementary:
    def test_elementary_rules_from_input_rules(self):
        # SQL preprocessed: only (1 => 2) survives the mining condition
        elementary = [(1, W, W, 1, 2), (2, W, W, 1, 2)]
        data = general_input(
            {1: {W: {1, 2}}, 2: {W: {1, 2}}},
            elementary=elementary,
            min_count=2,
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, mining_condition=True)
        )
        keys = rule_map(rules).keys()
        assert keys == {((1,), (2,))}

    def test_min_count_prunes_elementary(self):
        elementary = [(1, W, W, 1, 2)]
        data = general_input(
            {1: {W: {1, 2}}, 2: {W: {3}}}, elementary=elementary, min_count=2
        )
        rules = GeneralCoreOperator().run(
            data, directives(simple=False, mining_condition=True)
        )
        assert rules == []

    def test_composite_rule_requires_all_pairs(self):
        # body {1,2} => head {3} needs both 1=>3 and 2=>3 in the
        # same (group, cluster pair)
        elementary = [
            (1, W, W, 1, 3),
            (1, W, W, 2, 3),
            (2, W, W, 1, 3),  # group 2 lacks 2=>3
        ]
        data = general_input(
            {1: {W: {1, 2, 3}}, 2: {W: {1, 2, 3}}},
            elementary=elementary,
            min_count=1,
        )
        rules = GeneralCoreOperator().run(
            data,
            directives(
                simple=False, mining_condition=True, body_card=(2, 2)
            ),
        )
        rule = rule_map(rules)[((1, 2), (3,))]
        assert rule.support_count == 1


LAYOUTS = ("set", "bitset", None)


class TestGeneralCoreDataPath:
    """The collector, the two layouts and the two join filters."""

    #: 1=>3 and 2=>3 both hold in groups 1 and 2, so their group bitmaps
    #: share min_count groups and the group filter lets the join through
    #: -- but in each group they hold in *different* cluster pairs, so no
    #: triple supports {1,2}=>{3}.
    CROSS_PAIRS = [
        (1, 1, 2, 1, 3), (1, 2, 3, 2, 3),
        (2, 1, 2, 1, 3), (2, 2, 3, 2, 3),
    ]

    def cross_pair_run(self, layout, first_cluster):
        data = general_input(
            {g: {1: first_cluster, 2: {2, 3}, 3: {3}} for g in (1, 2)},
            elementary=self.CROSS_PAIRS,
            min_count=2,
            clustered=True,
        )
        operator = GeneralCoreOperator(representation=layout)
        rules = operator.run(
            data,
            directives(simple=False, clustered=True, mining_condition=True),
        )
        assert rule_map(rules).keys() == {((1,), (3,)), ((2,), (3,))}
        assert operator.lattice_sizes == {(1, 1): 2, (2, 1): 0}
        assert operator.join_pairs_examined == 1
        return operator

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_group_bound_is_not_read_as_exact(self, layout):
        # cluster 1 holds the body {1,2} in both groups, so the body
        # count passes too: examined, intersected, pruned
        operator = self.cross_pair_run(layout, {1, 2})
        assert operator.bitmap_stats.intersections == 1

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_join_failing_the_body_count_intersects_nothing(self, layout):
        # no cluster holds both 1 and 2: body_count({1,2}) = 0 bounds
        # the support, so the join passes the group filter and is
        # rejected before intersecting
        operator = self.cross_pair_run(layout, {1})
        assert operator.bitmap_stats.intersections == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("head_cluster, intersections", [
        ({3, 4}, 1),  # one head cluster holds {3,4}: intersected, pruned
        ({3}, 0),  # none does: head_count({3,4}) = 0 rejects the join
    ])
    def test_head_count_bounds_head_joins(
        self, layout, head_cluster, intersections
    ):
        # body and head schemas differ, so heads have an index of their own
        data = general_input(
            {g: {1: {1}} for g in (1, 2)},
            head_items={g: {2: head_cluster, 3: {4}} for g in (1, 2)},
            elementary=[(g, 1, hc, 1, hid) for g in (1, 2)
                        for hc, hid in ((2, 3), (3, 4))],
            min_count=2,
            same_schema=False,
            clustered=True,
        )
        operator = GeneralCoreOperator(representation=layout)
        rules = operator.run(data, directives(
            simple=False, same_schema=False, clustered=True,
            mining_condition=True, body_card=(1, 1), head_card=(1, 2),
        ))
        assert rule_map(rules).keys() == {((1,), (3,)), ((1,), (4,))}
        assert operator.lattice_sizes == {(1, 1): 2, (1, 2): 0}
        assert operator.join_pairs_examined == 1
        assert operator.bitmap_stats.intersections == intersections

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_join_rejected_at_group_level_intersects_nothing(self, layout):
        elementary = [
            (1, W, W, 1, 3), (2, W, W, 1, 3),
            (3, W, W, 2, 3), (4, W, W, 2, 3),
        ]
        data = general_input(
            {g: {W: {1, 2, 3}} for g in (1, 2, 3, 4)},
            elementary=elementary,
            min_count=2,
        )
        operator = GeneralCoreOperator(representation=layout)
        operator.run(data, directives(simple=False, mining_condition=True))
        assert operator.lattice_sizes == {(1, 1): 2, (2, 1): 0}
        assert operator.join_pairs_examined == 1
        assert operator.bitmap_stats.intersections == 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_pruned_pairs_are_never_materialized(self, layout):
        """One support per surviving elementary rule, none for a pair
        the collector pruned, and emission recounts nothing."""

        class Counting(GeneralCoreOperator):
            materialized = 0

            def _support(self, universe, slots):
                if universe is self._triples:
                    self.materialized += 1
                return super()._support(universe, slots)

        # items 1..3 everywhere, items 4..6 in one group each
        body = {g: {W: {1, 2, 3, 3 + g}} for g in (1, 2, 3)}
        data = general_input(body, min_count=2)
        operator = Counting(representation=layout)
        rules = operator.run(data, directives(simple=False, body_card=(1, 2)))
        assert rules
        assert operator.lattice_sizes[(1, 1)] == 6  # pairs over {1, 2, 3}
        assert operator.materialized == operator.lattice_sizes[(1, 1)]
        # distinct-group counts of triple supports: one per intersection
        # performed -- elementary counts come from the collector's lists
        # and _emit reuses the counts the joins computed
        assert (
            operator._triples.group_count_calls
            == operator.bitmap_stats.intersections
        )

    def test_packed_is_no_layout_and_unforced_reports_none(self):
        with pytest.raises(ValueError, match="representation"):
            GeneralCoreOperator(representation="packed")
        assert GeneralCoreOperator().representation is None

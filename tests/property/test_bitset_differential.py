"""The bitmap kernels against independent oracles.

Three contracts enforced here:

* every registered pool algorithm returns the same
  :data:`ItemsetCounts` as :class:`tests.exhaustive.Exhaustive` — a
  levelwise enumeration of every combination that shares no counting
  code with the bitmap kernels — over randomized group maps;
* the positional :class:`GroupedUniverse` lays out and counts groups
  like a plain ``set`` of the group positions its slots map to, over
  randomized group sizes (empty groups and byte-crossing spans
  included);
* the general core operator emits the ordered ``EncodedRule`` list of
  the reference semantics (:func:`tests.minerule_reference.
  general_core`, which shares no code with its bitmaps) over randomized
  clustered inputs (derived elementary rules, ``ClusterCouples``
  restrictions, and SQL-precomputed ``InputRules`` in any row order),
  with its join counters consistent with the lattice it built, and
  its lattice sizes those of the reference's rules under every growth
  shape — the shapes that decide which triples are joinable.

Each property's budget scales with the hypothesis profile: tier-1's
default profile (100 examples) runs the budget written here, CI's
``oracle-ci`` profile (root conftest.py) fifteen times as many.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import ALGORITHMS, get_algorithm
from repro.algorithms.bitset import GroupedUniverse, mask_from_slots
from repro.kernel.core.general import GeneralCoreOperator
from repro.kernel.program import CoreDirectives
from tests import minerule_reference as reference
from tests.exhaustive import Exhaustive
from tests.general_input import from_items, reference_view

group_maps = st.dictionaries(
    keys=st.integers(min_value=1, max_value=30),
    values=st.frozensets(st.integers(min_value=0, max_value=7), max_size=6),
    max_size=12,
)

thresholds = st.integers(min_value=1, max_value=5)


def budget(examples):
    """*examples* scaled by the profile's budget over the default 100."""
    return max(1, examples * settings.default.max_examples // 100)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestPoolAgreesWithSetBasedReference:
    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=budget(30), deadline=None)
    def test_identical_itemset_counts(self, name, groups, min_count):
        expected = Exhaustive().mine(groups, min_count)
        assert get_algorithm(name).mine(groups, min_count) == expected


#: group sizes: empty groups anywhere, spans crossing byte boundaries
group_sizes = st.lists(
    st.one_of(st.just(0), st.sampled_from([7, 8, 9]),
              st.integers(min_value=0, max_value=20)),
    max_size=12,
)
#: slot subsets, one bit per slot
subset_picks = st.lists(st.integers(min_value=0, max_value=2**240), max_size=4)


class TestPositionalUniverse:
    @given(sizes=group_sizes, picks=subset_picks)
    @example(sizes=[0, 3], picks=[0b101])
    @example(sizes=[3, 0], picks=[0b110])
    @example(sizes=[0, 0, 5, 0, 0], picks=[0b10001])
    @example(sizes=[7, 8, 9], picks=[1 << 6 | 1 << 7 | 1 << 15 | 1 << 23])
    @example(sizes=[], picks=[])
    @settings(max_examples=budget(100), deadline=None)
    def test_layout_and_counts_match_a_set_reference(self, sizes, picks):
        """Each pick chooses, bit by bit, a subset of the slots."""
        universe = GroupedUniverse()
        firsts = [universe.add(size) for size in sizes]
        # each group is its span then its guard bit
        offset = 0
        for first, size in zip(firsts, sizes):
            assert first == offset
            offset += size + 1
        assert len(universe) == sum(sizes)
        assert universe.groups == len(sizes)
        group_of = universe.group_of
        assert len(group_of) == offset <= universe.nbytes * 8
        for position, (first, size) in enumerate(zip(firsts, sizes)):
            # the guard (slot first + size) carries its own group
            assert group_of[first:first + size + 1] == [position] * (size + 1)
        slots = [first + k for first, size in zip(firsts, sizes)
                 for k in range(size)]
        for pick in [0, -1, *picks]:
            subset = [slot for index, slot in enumerate(slots)
                      if pick >> index & 1]
            mask = mask_from_slots(subset, universe.nbytes)
            expected = {group_of[slot] for slot in subset}
            assert universe.group_count(mask) == len(expected)


# ---------------------------------------------------------------------------
# general core: randomized clustered inputs
# ---------------------------------------------------------------------------

#: cluster contents: one-item clusters (whose triples join nothing
#: under ``1..1 x 1..1`` and are never joinable on a side of one item)
#: mixed with empty and multi-item ones
items = st.integers(min_value=0, max_value=5)
item_sets = st.one_of(
    st.sets(items, min_size=1, max_size=1), st.sets(items, max_size=4)
)


@st.composite
def clustered_inputs(draw, same_schema=st.booleans()):
    """A random :class:`GeneralInput` (derived-elementary path) plus
    matching :class:`CoreDirectives`; every pair of clusters, a cluster
    with itself included, is a triple unless ``ClusterCouples``
    restricts them."""
    same_schema = draw(same_schema)
    n_groups = draw(st.integers(min_value=1, max_value=6))
    body_items, head_items = {}, {}
    for gid in range(1, n_groups + 1):
        clusters = draw(st.integers(min_value=1, max_value=3))
        body, head = {}, {}
        for cid in range(1, clusters + 1):
            bids = draw(item_sets)
            if bids:
                body[cid] = set(bids)
            if same_schema:
                if bids:
                    head[cid] = set(bids)
            else:
                hids = draw(item_sets)
                if hids:
                    head[cid] = set(hids)
        if body:
            body_items[gid] = body
        if head:
            head_items[gid] = head

    cluster_pairs = None
    if draw(st.booleans()):
        cluster_pairs = {}
        for gid in set(body_items) | set(head_items):
            pairs = draw(
                st.sets(
                    st.tuples(
                        st.integers(min_value=1, max_value=3),
                        st.integers(min_value=1, max_value=3),
                    ),
                    max_size=4,
                )
            )
            if pairs:
                cluster_pairs[gid] = pairs

    data = from_items(
        totg=n_groups,
        min_count=draw(st.integers(min_value=1, max_value=3)),
        body_items=body_items,
        head_items=head_items,
        cluster_pairs=cluster_pairs,
        same_schema=same_schema,
        clustered=True,
    )
    directives = _directives(
        draw,
        same_schema=same_schema,
        cluster_condition=cluster_pairs is not None,
        mining_condition=False,
    )
    return data, directives


@st.composite
def elementary_inputs(draw):
    """A random :class:`GeneralInput` with SQL-precomputed elementary
    rules (the ``InputRules`` path, queries Q8..Q10)."""
    n_groups = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=n_groups),  # gid
                st.integers(min_value=1, max_value=2),  # bcid
                st.integers(min_value=1, max_value=2),  # hcid
                st.integers(min_value=0, max_value=5),  # bid
                st.integers(min_value=0, max_value=5),  # hid
            ),
            max_size=30,
        )
    )
    data = elementary_input(
        rows, n_groups, draw(st.integers(min_value=1, max_value=3))
    )
    directives = _directives(
        draw, same_schema=False, cluster_condition=False,
        mining_condition=True,
    )
    return data, directives


def elementary_input(rows, totg, min_count):
    """The input of *rows*, with every row's items in its clusters as
    in the loaded tables (what confidence and the side-count join
    filter read)."""
    body_items, head_items = {}, {}
    for gid, bcid, hcid, bid, hid in rows:
        body_items.setdefault(gid, {}).setdefault(bcid, set()).add(bid)
        head_items.setdefault(gid, {}).setdefault(hcid, set()).add(hid)
    return from_items(
        totg, min_count, body_items, head_items, elementary=rows,
        same_schema=False, clustered=True,
    )


def _directives(draw, same_schema, cluster_condition, mining_condition):
    body_max = draw(st.sampled_from([1, None, 2, 3]))
    head_max = draw(st.sampled_from([1, None, 2]))
    return CoreDirectives(
        simple=False,
        same_schema=same_schema,
        clustered=True,
        cluster_condition=cluster_condition,
        mining_condition=mining_condition,
        coded_source="CS",
        cluster_couples="CC" if cluster_condition else None,
        input_rules="IR" if mining_condition else None,
        min_support=0.0,
        min_confidence=draw(st.sampled_from([0.0, 0.3, 1.0])),
        body_card=(1, body_max),
        head_card=(1, head_max),
    )


def run_against_reference(data, directives, operator=None):
    """One run of *operator* (a fresh one by default) compared with the
    reference semantics; returns the ordered rule list."""
    expected = reference.general_core(reference_view(data), directives)
    rules = (operator or GeneralCoreOperator()).run(data, directives)
    assert [dataclasses.astuple(rule) for rule in rules] == expected
    return expected


class TestGeneralCoreRepresentations:
    """The general core's one representation, bitmaps, against the
    reference semantics."""

    @given(case=clustered_inputs())
    @settings(max_examples=budget(50), deadline=None)
    def test_derived_elementary_rules_identical(self, case):
        run_against_reference(*case)

    @given(case=elementary_inputs(), data=st.data())
    @settings(max_examples=budget(50), deadline=None)
    def test_input_rules_path_identical(self, case, data):
        """... whatever the row order of ``InputRules``: the input
        buckets rows by group and triple, so interleaved gids and
        repeated rows change nothing."""
        general, directives = case
        rules = run_against_reference(general, directives)
        shuffled = elementary_input(
            data.draw(st.permutations(reference_view(general).elementary)),
            general.totg, general.min_count,
        )
        assert run_against_reference(shuffled, directives) == rules

    @given(case=clustered_inputs())
    @settings(max_examples=budget(20), deadline=None)
    def test_observability_counters_match(self, case):
        """Every intersection performed is counted, a join a filter
        rejects performs none, and every rule past (1, 1) took one."""
        data, directives = case
        operator = GeneralCoreOperator()
        operator.run(data, directives)
        stats = operator.bitmap_stats
        assert 0 <= stats.intersections <= operator.join_pairs_examined
        grown = sum(size for key, size in operator.lattice_sizes.items()
                    if key != (1, 1))
        assert stats.intersections >= grown


#: (body, head) cardinality maxima: which sides can grow, and so which
#: triples are joinable — none under 1..1 x 1..1
GROWTH_SHAPES = {"1..1x1..1": (1, 1), "1..nx1..1": (None, 1),
                 "1..1x1..n": (1, None), "1..nx1..n": (None, None)}
#: the inputs each shape is run on: both schemas of the derived path
#: (with one schema, a triple of a cluster with itself excludes the
#: rule of an item with itself) and the InputRules path, where a
#: triple's pairs may hold one body item of a cluster holding several
INPUTS = {
    "derived-same-schema": clustered_inputs(same_schema=st.just(True)),
    "derived-two-schemas": clustered_inputs(same_schema=st.just(False)),
    "input-rules": elementary_inputs(),
}


def reference_lattice(data, directives):
    """The non-empty lattice sets by the reference: its rules at any
    confidence counted by (body size, head size)."""
    rules = reference.general_core(
        reference_view(data),
        dataclasses.replace(directives, min_confidence=0.0),
    )
    return Counter((len(rule.body), len(rule.head)) for rule in rules)


@pytest.mark.parametrize("inputs", sorted(INPUTS))
@pytest.mark.parametrize("shape", list(GROWTH_SHAPES))
class TestJoinableTriples:
    """Only joinable triples get a support slot and leaf sets keep no
    supports: the rules and lattice stay the reference's."""

    @given(data=st.data())
    @settings(max_examples=budget(40), deadline=None)
    def test_rules_and_lattice_sizes_match_the_reference(
        self, shape, inputs, data
    ):
        general, directives = data.draw(INPUTS[inputs])
        body_max, head_max = GROWTH_SHAPES[shape]
        directives = dataclasses.replace(
            directives, body_card=(1, body_max), head_card=(1, head_max)
        )
        operator = GeneralCoreOperator()
        run_against_reference(general, directives, operator)
        sizes = {key: size for key, size in operator.lattice_sizes.items()
                 if size}
        assert sizes == reference_lattice(general, directives)
        if shape == "1..1x1..1":
            assert operator.bitmap_stats.universe_sizes["triple"] == 0


def test_input_rules_triple_with_one_body_item_is_not_joinable():
    """Cluster 1 holds items 1 and 2, but each of its triples pairs only
    one of them (with heads 5 and 6, or 5): no triple can support
    {1, 2} => {5}, so none is joinable under 1..n x 1..1, and the rule
    is not found."""
    rows = [(gid, 1, hc, bid, hid) for gid in (1, 2)
            for hc, bid, hid in ((2, 1, 5), (2, 1, 6), (3, 2, 5))]
    general = elementary_input(rows, totg=2, min_count=2)
    directives = CoreDirectives(
        simple=False, same_schema=False, clustered=True,
        cluster_condition=False, mining_condition=True, coded_source="CS",
        cluster_couples=None, input_rules="IR", min_support=0.0,
        min_confidence=0.0, body_card=(1, None), head_card=(1, 1),
    )
    assert reference_view(general).body_items[1][(1, 1)] == {1, 2}
    operator = GeneralCoreOperator()
    rules = run_against_reference(general, directives, operator)
    assert [(set(rule.body), set(rule.head)) for rule in rules] == [
        ({1}, {5}), ({1}, {6}), ({2}, {5}),
    ]
    assert operator.lattice_sizes == {(1, 1): 3, (2, 1): 0}
    assert operator.bitmap_stats.universe_sizes["triple"] == 0

"""The bitmap kernels against independent oracles.

Two contracts enforced here:

* every registered pool algorithm returns the same
  :data:`ItemsetCounts` as :class:`tests.exhaustive.Exhaustive` — a
  levelwise enumeration of every combination that shares no counting
  code with the bitmap kernels — over randomized group maps;
* the general core operator emits the ordered ``EncodedRule`` list of
  the reference semantics (:func:`tests.minerule_reference.
  general_core`, which shares no code with its bitmaps) over randomized
  clustered inputs (derived elementary rules, ``ClusterCouples``
  restrictions, and SQL-precomputed ``InputRules`` in any row order),
  with its join counters consistent with the lattice it built.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHMS, get_algorithm
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


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestPoolAgreesWithSetBasedReference:
    @given(groups=group_maps, min_count=thresholds)
    @settings(max_examples=30, deadline=None)
    def test_identical_itemset_counts(self, name, groups, min_count):
        expected = Exhaustive().mine(groups, min_count)
        assert get_algorithm(name).mine(groups, min_count) == expected


# ---------------------------------------------------------------------------
# general core: randomized clustered inputs
# ---------------------------------------------------------------------------

item_sets = st.sets(st.integers(min_value=0, max_value=5), max_size=4)


@st.composite
def clustered_inputs(draw):
    """A random :class:`GeneralInput` (derived-elementary path) plus
    matching :class:`CoreDirectives`."""
    same_schema = draw(st.booleans())
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
    body_max = draw(st.sampled_from([None, 2, 3]))
    head_max = draw(st.sampled_from([None, 2]))
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


def run_against_reference(data, directives):
    """One run compared with the reference semantics; returns the
    ordered rule list."""
    expected = reference.general_core(reference_view(data), directives)
    rules = GeneralCoreOperator().run(data, directives)
    assert [dataclasses.astuple(rule) for rule in rules] == expected
    return expected


class TestGeneralCoreRepresentations:
    """The general core's one representation, bitmaps, against the
    reference semantics."""

    @given(case=clustered_inputs())
    @settings(max_examples=50, deadline=None)
    def test_derived_elementary_rules_identical(self, case):
        run_against_reference(*case)

    @given(case=elementary_inputs(), data=st.data())
    @settings(max_examples=50, deadline=None)
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
    @settings(max_examples=20, deadline=None)
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

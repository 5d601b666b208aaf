"""The simple-core kernel (PR 17): ``CodedSource`` columns ->
``VerticalInput`` -> pool member -> rules.

* differential: over random ``(Gid, Bid)`` columns — unsorted and
  non-contiguous gids, repeated pairs, a single group, an item in every
  group, ``min_count`` from 1 to beyond the group count — the kernel
  (``load_simple_columns`` + every pool member) returns the counts of
  the reference (``load_simple`` + ``Exhaustive``), on columnar and
  row-heap storage alike, and its lazy horizontal view is the
  reference's group map;
* ``Apriori``'s inline candidate generation yields exactly
  ``join_candidates``' set on random frequent levels;
* a statement whose ``CodedSource`` is hinted to row storage stores
  the identical rule tables;
* the program has one loader: no caller of ``load_simple`` in ``src/``.
"""

import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import Database, MiningSystem
from repro.algorithms import ALGORITHMS, Apriori, Exhaustive, get_algorithm
from repro.algorithms.base import FrequentItemsetMiner
from repro.algorithms.bitset import VerticalInput
from repro.datagen import load_purchase_figure1
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.program import CoreDirectives
from repro.sqlengine.dump import dump_table_text
from repro.sqlengine.types import SqlType

DIRECTIVES = CoreDirectives(
    simple=True, same_schema=True, clustered=False,
    cluster_condition=False, mining_condition=False,
    coded_source="CS", cluster_couples=None, input_rules=None,
    min_support=0.0, min_confidence=0.0,
    body_card=(1, None), head_card=(1, 1),
)

#: gids far apart and in any order; few distinct items keep the
#: exhaustive oracle cheap
pair_columns = st.lists(
    st.tuples(
        st.sampled_from([3, 4, 17, 90, 1001, 52_000, 7]),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1,
    max_size=40,
)


def loader_over(pairs, min_count, storage):
    database = Database()
    database.storage_hints["cs"] = storage
    database.create_table_from_rows(
        "CS", ("Gid", "Bid"), pairs, (SqlType.INTEGER, SqlType.INTEGER)
    )
    assert database.catalog.get_table("CS").storage == storage
    database.variables["totg"] = len({gid for gid, _ in pairs})
    database.variables["mingroups"] = min_count
    return CoreInputLoader(database, DIRECTIVES)


@pytest.mark.parametrize("storage", ["columnar", "row"])
class TestKernelAgainstTheReference:
    @given(pairs=pair_columns, min_count=st.integers(1, 9))
    @example(pairs=[(90, 1), (90, 1), (90, 5), (90, 1)], min_count=1)  # one group
    @example(pairs=[(7, 2), (3, 2), (7, 2), (3, 2)], min_count=2)  # repeats only
    @example(
        pairs=[(g, 0) for g in (52_000, 3, 1001)] + [(3, 4), (1001, 4)],
        min_count=3,
    )  # item 0 in every group
    @example(pairs=[(4, 1), (17, 1), (4, 2)], min_count=8)  # > groups
    @settings(max_examples=40, deadline=None)
    def test_counts_and_views_agree(self, storage, pairs, min_count):
        loader = loader_over(pairs, min_count, storage)
        reference = loader.load_simple()
        data, (gid_col, bid_col) = loader.load_simple_columns()

        assert list(zip(gid_col, bid_col)) == pairs
        assert (data.totg, data.min_count) == (
            reference.totg, reference.min_count
        )
        vertical = data.groups
        assert isinstance(vertical, VerticalInput)
        assert len(vertical) == len(reference.groups)
        assert vertical.entries == len(pairs)
        # slots in first-appearance order of the gid column
        assert list(vertical.universe) == list(dict.fromkeys(gid_col))
        assert vertical.groups == reference.groups

        expected = Exhaustive().mine(reference.groups, min_count)
        for name in sorted(ALGORITHMS):
            kernel = get_algorithm(name).mine(vertical, min_count)
            assert kernel == expected, name


sorted_itemsets = st.integers(min_value=1, max_value=4).flatmap(
    lambda size: st.sets(
        st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=size, max_size=size, unique=True,
        ).map(lambda items: tuple(sorted(items))),
        max_size=25,
    )
)


class TestInlineCandidateGeneration:
    @given(level=sorted_itemsets)
    @settings(max_examples=150, deadline=None)
    def test_generates_exactly_the_join_candidates(self, level):
        """``join_candidates`` (join on the (k-1)-prefix, prune by all
        k-subsets) is the reference.  With a threshold of 0 every
        generated candidate survives ``_join_level``, so the next level
        *is* the candidate set."""
        by_prefix = {}
        for itemset in sorted(level):
            by_prefix.setdefault(itemset[:-1], []).append((itemset[-1], 0))
        counts = {}
        next_classes, generated_set, generated = Apriori._join_level(
            list(by_prefix.items()), set(level), int.bit_count, 0, counts
        )
        reference = FrequentItemsetMiner.join_candidates(level)
        assert generated_set == set(reference)
        assert generated == len(reference) == len(counts)
        # the next level comes back as prefix classes, ascending
        flattened = [
            prefix + (last,)
            for prefix, members in next_classes
            for last, _gid_list in members
        ]
        assert flattened == sorted(reference)


STATEMENT = (
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, "
    "1..1 item AS HEAD, SUPPORT, CONFIDENCE FROM Purchase "
    "GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5"
)


def test_row_heap_coded_source_stores_identical_rule_tables():
    tables = {}
    for storage in ("columnar", "row"):
        system = MiningSystem()
        load_purchase_figure1(system.db)
        system.db.storage_hints["mr1_codedsource"] = storage
        result = system.run(STATEMENT)
        coded = system.db.catalog.get_table(result.program.core.coded_source)
        assert coded.storage == storage
        assert result.encoded_rules
        tables[storage] = [
            dump_table_text(system.db, name)
            for name in ("R", "R_Bodies", "R_Heads")
        ]
    assert tables["columnar"] == tables["row"]


def test_the_program_never_calls_the_reference_loader():
    source_root = pathlib.Path(repro.__file__).parent
    callers = [
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if re.search(r"\.load_simple\(", path.read_text())
    ]
    assert callers == []

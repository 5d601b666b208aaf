"""The general core's loader and its input (Section 4.3.2).

``CoreInputLoader.load_general`` reads ``MiningSource``,
``ClusterCouples`` and ``InputRules`` as columns into a
:class:`GeneralInput` keyed by cluster.  Pinned here:

* it runs no SQL statement;
* the input's reference view is what SQL scans of the same encoded
  tables say, on every general directive shape (clusters or not,
  cluster condition or not, mining condition or not, one schema or
  two);
* :func:`tests.general_input.from_items` builds the input whose view is
  the given nested maps, up to cluster keys;
* nothing under ``src/`` reads the view.
"""

import itertools
import pathlib
import re

import pytest

import repro
from repro import Database
from repro.datagen import load_purchase_figure1
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.preprocessor import Preprocessor
from repro.kernel.program import CoreDirectives
from repro.kernel.translator import Translator
from tests.general_input import from_items, reference_view
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

HEAD = "SUPPORT, CONFIDENCE"
TAIL = "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
STATEMENTS = {
    "filtered_ordered_sets": GOLDEN_STATEMENTS["filtered_ordered_sets"],
    "ordered_sets": GOLDEN_STATEMENTS["ordered_sets"],
    "two_schemas_clustered": (
        "MINE RULE T AS SELECT DISTINCT 1..n item AS BODY, "
        f"1..1 price AS HEAD, {HEAD} FROM Purchase GROUP BY customer "
        f"CLUSTER BY date {TAIL}"
    ),
    "two_schemas_mining_condition": (
        "MINE RULE T AS SELECT DISTINCT 1..n item AS BODY, "
        f"1..1 price AS HEAD, {HEAD} WHERE BODY.price >= 100 "
        f"FROM Purchase GROUP BY customer {TAIL}"
    ),
    # items and prices that are large apart: MiningSource rows with a
    # NULL Bid or a NULL Hid (Q4b's outer joins)
    "two_schemas_outer_join": (
        "MINE RULE T AS SELECT DISTINCT 1..n item AS BODY, "
        f"1..1 price AS HEAD, {HEAD} FROM Sparse GROUP BY g CLUSTER BY d "
        "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1"
    ),
    "mining_condition": (
        "MINE RULE T AS SELECT DISTINCT 1..n item AS BODY, "
        f"1..1 item AS HEAD, {HEAD} WHERE BODY.price > HEAD.price "
        f"FROM Purchase GROUP BY customer {TAIL}"
    ),
}


@pytest.fixture(params=sorted(STATEMENTS))
def prepared(request):
    database = Database()
    load_purchase_figure1(database)
    database.create_table_from_rows("Sparse", ("g", "d", "item", "price"), [
        (1, 1, "a", 10), (1, 1, "rare", 20), (2, 1, "a", 20),
        (2, 2, "b", 10), (3, 1, "a", 10), (3, 1, "b", 30),
    ])
    program = Translator(database).translate(STATEMENTS[request.param])
    Preprocessor(database).run(program)
    assert not program.core.simple
    return request.param, database, program


def test_load_general_runs_no_sql(prepared, monkeypatch):
    _, database, program = prepared

    def no_sql(*args, **kwargs):
        raise AssertionError("load_general ran a SQL statement")

    for name in ("execute", "execute_ast", "query", "prepare"):
        monkeypatch.setattr(Database, name, no_sql)
    data = CoreInputLoader(database, program.core).load_general()
    assert data.groups and data.body_clusters


def nested(rows):
    out = {}
    for gid, cid, item in rows:
        if item is not None:
            out.setdefault(gid, {}).setdefault(cid, set()).add(item)
    return out


def test_view_is_what_sql_reads(prepared):
    name, database, program = prepared
    core = program.core
    data = CoreInputLoader(database, core).load_general()
    view = reference_view(data)
    coded = program.workspace.coded_source  # Q11's view over MiningSource
    cluster = "Cid" if core.clustered else "Gid"
    head = "Bid" if core.same_schema else "Hid"
    rows = database.query(f"SELECT Gid, {cluster}, Bid, {head} FROM {coded}")
    if name == "two_schemas_outer_join":
        assert (None in [row[2] for row in rows]
                and None in [row[3] for row in rows])

    assert (data.totg, data.min_count) == (
        database.variables["totg"], database.variables["mingroups"]
    )
    assert list(data.groups) == list(dict.fromkeys(row[0] for row in rows))
    assert view.body_items == nested(row[:3] for row in rows)
    assert view.head_items == nested(row[:2] + row[3:] for row in rows)
    if core.mining_condition:
        pair = "BCid, HCid" if core.clustered else "Gid, Gid"
        assert sorted(view.elementary) == sorted(database.query(
            f"SELECT Gid, {pair}, Bid, Hid FROM {core.input_rules}"
        ))
        return
    assert view.elementary is None
    if core.cluster_condition:
        expected = {}
        for gid, bc, hc in database.query(
            f"SELECT Gid, BCid, HCid FROM {core.cluster_couples}"
        ):
            expected.setdefault(gid, set()).add((bc, hc))
    else:
        keys = {}
        for gid, cid, *_ in rows:
            keys.setdefault(gid, set()).add(cid)
        expected = {
            gid: set(itertools.product(cids, repeat=2))
            for gid, cids in keys.items()
        }
    assert view.cluster_pairs == expected


@pytest.mark.parametrize("write", ["columnar", "row"])
def test_interleaved_cluster_couples(write):
    """``ClusterCouples`` whose groups come back in several runs still
    give each group all of its pairs (Q7 emits one run per group, but
    nothing relies on it), whether the tables were written in one
    column-wise ``insert_many`` or one ``insert`` per row."""
    database = Database()
    couples = [(5, 10, 11), (9, 20, 21), (5, 11, 10), (9, 21, 20)]
    for name, columns, rows in (
        ("MS", ("Gid", "Cid", "Bid"),
         [(5, 10, 1), (5, 11, 2), (9, 20, 1), (9, 21, 3)]),
        ("CC", ("Gid", "BCid", "HCid"), couples),
    ):
        table = database.create_table_from_rows(name, columns, [])
        if write == "columnar":
            table.insert_many(rows)
        else:
            for row in rows:
                table.insert(row)
    database.variables.update(totg=2, mingroups=1)
    core = CoreDirectives(
        simple=False, same_schema=True, clustered=True,
        cluster_condition=True, mining_condition=False,
        coded_source="MS", cluster_couples="CC", input_rules=None,
        min_support=0.0, min_confidence=0.0,
        body_card=(1, 1), head_card=(1, 1),
    )
    data = CoreInputLoader(database, core).load_general()
    assert data.clusters == {5: [10, 11], 9: [20, 21]}
    assert reference_view(data).cluster_pairs == {
        5: {(10, 11), (11, 10)}, 9: {(20, 21), (21, 20)}
    }


def unkeyed(view):
    """A nested view with the ``(group, cluster)`` keys of
    :func:`tests.general_input.from_items` turned back into cluster ids."""
    return {
        gid: {key[1]: items for key, items in by_cluster.items()}
        for gid, by_cluster in view.items()
    }


class TestFromItems:
    BODY = {1: {"a": {1, 2}, "b": {3}}, 2: {"a": {1}}}
    HEAD = {1: {"b": {7}}, 3: {"c": {8, 9}}}

    def test_view_round_trips(self):
        pairs = {1: {("a", "b"), ("b", "b")}, 2: {("a", "a")}}
        data = from_items(
            4, 1, self.BODY, self.HEAD, cluster_pairs=pairs,
            same_schema=False, clustered=True,
        )
        view = reference_view(data)
        assert list(data.groups) == [1, 2, 3]
        assert unkeyed(view.body_items) == self.BODY
        assert unkeyed(view.head_items) == self.HEAD
        assert {
            gid: {(bc[1], hc[1]) for bc, hc in keys}
            for gid, keys in view.cluster_pairs.items()
        } == pairs
        assert view.elementary is None

    def test_every_pair_without_a_cluster_condition(self):
        data = from_items(2, 1, self.BODY)
        assert data.head_clusters is data.body_clusters
        assert {
            gid: {(bc[1], hc[1]) for bc, hc in keys}
            for gid, keys in reference_view(data).cluster_pairs.items()
        } == {
            1: {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")},
            2: {("a", "a")},
        }

    def test_elementary_rows_bucketed_and_deduplicated(self):
        rows = [(2, "a", "a", 1, 2), (1, "a", "b", 1, 7),
                (2, "a", "a", 1, 2), (1, "b", "b", 3, 7)]
        data = from_items(
            2, 1, self.BODY, elementary=rows, clustered=True
        )
        assert list(data.input_rules) == [2, 1]
        assert sorted(reference_view(data).elementary) == sorted(set(rows))
        assert data.triples == {}


def test_no_source_reads_the_reference_view():
    source_root = pathlib.Path(repro.__file__).parent
    readers = [
        str(path.relative_to(source_root))
        for path in source_root.rglob("*.py")
        if re.search(
            r"\.(body_items|head_items|cluster_pairs|group_cluster_pairs)\b",
            path.read_text(),
        )
    ]
    assert readers == []

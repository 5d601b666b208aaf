"""Executable reference semantics of the MINE RULE operator.

This module *is* DESIGN.md section 3: the operator's meaning written as
plain Python over plain rows, with no SQL engine, no encoding and no
bitmaps — enumerate groups, clusters, valid cluster pairs and the
(body tuple, head tuple) pairs inside them, then count.  It imports
nothing from ``repro``; the test suites hand it plain data and compare
what the system produced with what it returns.  Exponential in the
number of items of a cluster, so inputs stay small.

Two entry points, one counting rule behind both:

* :func:`output_tables` — a :class:`Statement` plus source rows (dicts)
  to the four output relations ``<out>``, ``<out>_Bodies``,
  ``<out>_Heads`` and ``<out>_Display``;
* :func:`general_core` — the encoded input of the general core operator
  (its nested reference view, :func:`tests.general_input.reference_view`,
  + ``CoreDirectives``, read through their attributes only) to the
  ordered rule list the operator must return.

The semantics, in the order the code applies them:

1. *Source* is the rows satisfying the source condition.  Its distinct
   group keys are the groups; ``totg`` counts them **before** the
   group HAVING, and every support is a fraction of ``totg``.  A row
   with a NULL in any grouping attribute belongs to no group.
2. The group HAVING (aggregates over the group's rows allowed) keeps
   the *valid* groups; only they are mined and only they count for a
   confidence denominator.
3. CLUSTER BY partitions a group's rows into clusters; without it the
   whole group is the single cluster.  Every ordered (body cluster,
   head cluster) pair of a group — a cluster with itself included — is
   *valid* unless the cluster HAVING (aggregates over each cluster's
   rows allowed) rejects it.  A row with a NULL in any clustering
   attribute belongs to no cluster.
4. Inside a valid pair, a (body tuple, head tuple) pair satisfying the
   mining condition is an *elementary rule* body item => head item.
   A row with a NULL in any body (head) attribute holds no body (head)
   item.
   When body and head have the same schema, an item never implies
   itself inside one cluster (so B and H are disjoint there).
5. A group *supports* B => H iff one of its valid cluster pairs holds
   every elementary rule of B x H.
   ``support = supporting groups / totg``.
6. ``confidence = supporting groups / valid groups holding B``, where a
   group holds B iff all of B occurs inside one of its clusters —
   whatever that cluster pairs with and **whatever the mining
   condition says** ("all body clusters are used for computing
   confidence", Section 2 step 5; Figure 2b's 0.5 for
   {jackets} => {col_shirts} depends on it).
7. A rule is output iff its cardinalities lie within the ``<card
   spec>``s, at least ``ceil(min_support * totg)`` groups (and at least
   one) support it, and its confidence reaches the minimum.

A condition is a Python callable answering like SQL: the rule applies
only when it returns ``True`` — ``None`` (SQL's unknown) and ``False``
both reject.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

Row = Dict[str, Any]
#: (minimum, maximum or None for the grammar's ``n``)
Card = Tuple[int, Optional[int]]
#: the (body item, head item) elementary rules of one valid cluster pair
Relation = Set[Tuple[Hashable, Hashable]]

#: the same tolerance the core operators apply to the confidence bound
EPSILON = 1e-12


class Rule(NamedTuple):
    """One rule; field for field what an ``EncodedRule`` carries."""

    body: FrozenSet
    head: FrozenSet
    support_count: int
    body_count: int
    support: float
    confidence: float


@dataclass(frozen=True)
class Statement:
    """A MINE RULE statement as plain data (grammar of Section 4.1)."""

    body: Tuple[str, ...]
    head: Tuple[str, ...]
    group_by: Tuple[str, ...]
    min_support: float
    min_confidence: float
    body_card: Card = (1, None)
    head_card: Card = (1, 1)
    cluster_by: Tuple[str, ...] = ()
    #: row -> truth
    source_condition: Optional[Callable[[Row], Any]] = None
    #: rows of one group -> truth
    group_condition: Optional[Callable[[List[Row]], Any]] = None
    #: (rows of the body cluster, rows of the head cluster) -> truth
    cluster_condition: Optional[Callable[[List[Row], List[Row]], Any]] = None
    #: (body tuple, head tuple) -> truth
    mining_condition: Optional[Callable[[Row, Row], Any]] = None


# ---------------------------------------------------------------------------
# the counting rule (points 5-7)
# ---------------------------------------------------------------------------


def _subsets(items: Iterable, card: Card) -> Iterator[FrozenSet]:
    """The subsets of *items* whose size *card* admits."""
    items = list(items)
    low, high = card
    top = len(items) if high is None else min(high, len(items))
    for size in range(low, top + 1):
        yield from map(frozenset, itertools.combinations(items, size))


def _supported(
    relation: Relation, body_card: Card, head_card: Card
) -> Iterator[Tuple[FrozenSet, FrozenSet]]:
    """Every (B, H) of admitted sizes with B x H inside *relation*."""
    heads_of: Dict[Hashable, Set] = defaultdict(set)
    for body_item, head_item in relation:
        heads_of[body_item].add(head_item)
    for body in _subsets(heads_of, body_card):
        shared = set.intersection(*(heads_of[item] for item in body))
        for head in _subsets(shared, head_card):
            yield body, head


def count_rules(
    occurrences: Iterable[Tuple[Hashable, Relation]],
    body_clusters: Iterable[Tuple[Hashable, Iterable]],
    totg: int,
    min_count: int,
    min_confidence: float,
    body_card: Card,
    head_card: Card,
) -> List[Rule]:
    """The output rules, ordered by (sorted body, sorted head).

    *occurrences* holds one ``(group, relation)`` per valid cluster pair
    of a valid group, *body_clusters* one ``(group, items)`` per cluster
    of a valid group.
    """
    supporters: Dict[Tuple[FrozenSet, FrozenSet], Set] = defaultdict(set)
    for group, relation in occurrences:
        for rule in _supported(relation, body_card, head_card):
            supporters[rule].add(group)
    holders: Dict[FrozenSet, Set] = defaultdict(set)
    for group, items in body_clusters:
        for body in _subsets(items, body_card):
            holders[body].add(group)

    rules = []
    for (body, head), groups in supporters.items():
        support_count, body_count = len(groups), len(holders[body])
        confidence = support_count / body_count if body_count else 0.0
        if support_count >= min_count and confidence + EPSILON >= min_confidence:
            rules.append(
                Rule(
                    body, head, support_count, body_count,
                    support_count / totg if totg else 0.0, confidence,
                )
            )
    rules.sort(key=lambda rule: (sorted(rule.body), sorted(rule.head)))
    return rules


def min_group_count(min_support: float, totg: int) -> int:
    """Point 7's threshold; the guard absorbs float fuzz in the product."""
    return max(1, math.ceil(min_support * totg - 1e-9))


# ---------------------------------------------------------------------------
# statement + source rows (points 1-4)
# ---------------------------------------------------------------------------


def _holds(condition: Optional[Callable], *args) -> bool:
    return condition is None or condition(*args) is True


def _partition(rows: Iterable[Row], attributes: Sequence[str]):
    parts: Dict[Tuple, List[Row]] = {}
    for row in rows:
        parts.setdefault(tuple(row[a] for a in attributes), []).append(row)
    return parts


def _known(row: Row, attributes: Sequence[str]) -> bool:
    return all(row[a] is not None for a in attributes)


def _item(row: Row, schema: Sequence[str]):
    """A rule element: the bare value of a one-attribute schema, else
    the tuple of values in schema order."""
    return row[schema[0]] if len(schema) == 1 else tuple(row[a] for a in schema)


def mine_rule(statement: Statement, rows: Iterable[Row]) -> List[Rule]:
    """The rules *statement* extracts from *rows*, over item values."""
    source = [
        row for row in rows
        if _holds(statement.source_condition, row)
        and _known(row, statement.group_by)
    ]
    groups = _partition(source, statement.group_by)
    totg = len(groups)
    same_schema = {a.lower() for a in statement.body} == {
        a.lower() for a in statement.head
    }
    occurrences: List[Tuple[Hashable, Relation]] = []
    body_clusters: List[Tuple[Hashable, Set]] = []
    for group, members in groups.items():
        if not _holds(statement.group_condition, members):
            continue
        clusters = _partition(
            [row for row in members if _known(row, statement.cluster_by)],
            statement.cluster_by,
        )
        for cluster in clusters.values():
            body_clusters.append((group, {
                _item(row, statement.body) for row in cluster
                if _known(row, statement.body)
            }))
        for body_key, body_rows in clusters.items():
            for head_key, head_rows in clusters.items():
                if not _holds(statement.cluster_condition, body_rows, head_rows):
                    continue
                relation = {
                    (_item(b, statement.body), _item(h, statement.head))
                    for b in body_rows if _known(b, statement.body)
                    for h in head_rows if _known(h, statement.head)
                    if _holds(statement.mining_condition, b, h)
                }
                if same_schema and body_key == head_key:
                    relation = {(b, h) for b, h in relation if b != h}
                occurrences.append((group, relation))
    return count_rules(
        occurrences, body_clusters, totg,
        min_group_count(statement.min_support, totg),
        statement.min_confidence, statement.body_card, statement.head_card,
    )


def _render(items: Iterable) -> str:
    """``{a,b}`` as the display relation writes an itemset."""
    return "{" + ",".join(sorted(
        "(" + ",".join(map(str, item)) + ")" if isinstance(item, tuple)
        else str(item)
        for item in items
    )) + "}"


def _values(item) -> Tuple:
    return item if isinstance(item, tuple) else (item,)


def output_tables(
    statement: Statement, rows: Iterable[Row], out: str = "Out"
) -> Dict[str, List[Tuple]]:
    """The four output relations of Section 4.4 as row lists:
    ``<out>(BodyId, HeadId, SUPPORT, CONFIDENCE)``,
    ``<out>_Bodies(BodyId, <body schema>)``,
    ``<out>_Heads(HeadId, <head schema>)`` and the rendered, sorted
    ``<out>_Display(BODY, HEAD, SUPPORT, CONFIDENCE)``.  Identifiers
    are surrogate keys — equal item sets share one, nothing else about
    them is specified — so compare through :func:`canonical_tables`.
    """
    body_ids: Dict[FrozenSet, int] = {}
    head_ids: Dict[FrozenSet, int] = {}
    rule_rows, display = [], []
    for rule in mine_rule(statement, rows):
        body_id = body_ids.setdefault(rule.body, len(body_ids) + 1)
        head_id = head_ids.setdefault(rule.head, len(head_ids) + 1)
        rule_rows.append((body_id, head_id, rule.support, rule.confidence))
        display.append(
            (_render(rule.body), _render(rule.head),
             rule.support, rule.confidence)
        )
    return {
        out: rule_rows,
        f"{out}_Bodies": [
            (body_id,) + _values(item)
            for body, body_id in body_ids.items() for item in body
        ],
        f"{out}_Heads": [
            (head_id,) + _values(item)
            for head, head_id in head_ids.items() for item in head
        ],
        f"{out}_Display": sorted(display),
    }


def canonical_tables(tables: Dict[str, List[Tuple]], out: str = "Out"):
    """*tables* with the surrogate keys replaced by what they stand
    for: the rule relation as a sorted list over item sets, the body
    and head relations as sorted lists of their distinct sets (a set
    stored under two identifiers shows twice), the display relation as
    is.  Raises ``KeyError`` on a dangling identifier and
    ``AssertionError`` on a set no rule refers to."""
    def sets_of(name):
        members: Dict[int, Set[Tuple]] = defaultdict(set)
        for set_id, *values in tables[name]:
            members[set_id].add(tuple(values))
        return {set_id: tuple(sorted(items)) for set_id, items in members.items()}

    bodies, heads = sets_of(f"{out}_Bodies"), sets_of(f"{out}_Heads")
    rules = sorted(
        (bodies[body_id], heads[head_id]) + tuple(measures)
        for body_id, head_id, *measures in tables[out]
    )
    assert set(bodies) == {row[0] for row in tables[out]}, "unreferenced body"
    assert set(heads) == {row[1] for row in tables[out]}, "unreferenced head"
    return (
        rules,
        sorted(bodies.values()),
        sorted(heads.values()),
        list(tables[f"{out}_Display"]),
    )


# ---------------------------------------------------------------------------
# the general core's encoded input (points 3-4 already applied by SQL)
# ---------------------------------------------------------------------------


def general_core(data, directives) -> List[Rule]:
    """What ``GeneralCoreOperator.run(data, directives)`` must return.

    *data* is a ``GeneralInput``'s reference view
    (:func:`tests.general_input.reference_view`): ``body_items`` / ``head_items`` (group -> cluster -> item ids),
    ``cluster_pairs`` (group -> valid (body cluster, head cluster)
    pairs, None when every pair is valid), ``elementary`` (the
    ``(group, body cluster, head cluster, body item, head item)`` rows
    evaluated in SQL, None when the statement has no mining condition),
    ``same_schema``, ``totg`` and ``min_count``.
    """
    relations: Dict[Tuple, Relation] = defaultdict(set)
    if data.elementary is not None:
        for group, body_cluster, head_cluster, body_item, head_item in (
            data.elementary
        ):
            relations[group, body_cluster, head_cluster].add(
                (body_item, head_item)
            )
    else:
        for group, clusters in data.body_items.items():
            head_clusters = data.head_items.get(group, {})
            if data.cluster_pairs is None:
                pairs = itertools.product(clusters, head_clusters)
            else:
                pairs = data.cluster_pairs.get(group, ())
            for body_cluster, head_cluster in pairs:
                relations[group, body_cluster, head_cluster] = {
                    (body_item, head_item)
                    for body_item in clusters.get(body_cluster, ())
                    for head_item in head_clusters.get(head_cluster, ())
                    if not (
                        data.same_schema
                        and body_cluster == head_cluster
                        and body_item == head_item
                    )
                }
    return count_rules(
        ((key[0], relation) for key, relation in relations.items()),
        (
            (group, items)
            for group, clusters in data.body_items.items()
            for items in clusters.values()
        ),
        data.totg, data.min_count, directives.min_confidence,
        directives.body_card, directives.head_card,
    )

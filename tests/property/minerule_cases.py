"""Hypothesis strategies drawing valid MINE RULE statements over the
eight directives H, W, M, G, C, K, F, R, together with source rows.

A drawn :class:`Case` carries the statement twice: as the text the
system parses and as the plain :class:`tests.minerule_reference.
Statement` (conditions as Python callables) the reference semantics
evaluate — the two are written side by side below, one vocabulary entry
per condition, so neither is derived from the other by code under test.
Sizes stay within 12 groups x 6 items: the reference is exponential in
the items of a cluster.
"""

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from hypothesis import strategies as st

from repro.sqlengine import Database
from repro.sqlengine.types import SqlType
from tests.minerule_reference import Statement

COLUMNS = ("grp", "ckey", "item", "tag", "price")
TYPES = (
    SqlType.INTEGER, SqlType.INTEGER, SqlType.VARCHAR, SqlType.VARCHAR,
    SqlType.INTEGER,
)


class Case(NamedTuple):
    text: str
    statement: Statement
    #: (H, W, M, G, C, K, F, R) as drawn
    directives: Tuple[bool, ...]


def build_db(rows: List[Dict[str, Any]]) -> Database:
    db = Database()
    db.create_table_from_rows(
        "Src", COLUMNS, [tuple(row[c] for c in COLUMNS) for row in rows], TYPES
    )
    return db


@st.composite
def source_rows(draw) -> List[Dict[str, Any]]:
    """Up to 12 groups of up to 8 rows over up to 6 items.  The value
    ranges are drawn first and kept narrow more often than not, so that
    items repeat across groups and rules actually come out.  Only
    ``price`` is nullable: it is the one attribute conditions and
    aggregates read, so it is where SQL's unknown can change a rule."""
    price = st.integers(1, 50)
    if draw(st.booleans()):
        price = st.one_of(price, price, price, st.none())
    row = st.fixed_dictionaries({
        "ckey": st.integers(1, draw(st.integers(1, 3))),
        "item": st.sampled_from("abcdef"[:draw(st.integers(2, 6))]),
        "tag": st.sampled_from(["t1", "t2", "t3"][:draw(st.integers(1, 3))]),
        "price": price,
    })
    rows = []
    for grp in range(1, draw(st.integers(1, 12)) + 1):
        for drawn in draw(st.lists(row, min_size=2, max_size=8)):
            rows.append({"grp": grp, **drawn})
    return draw(st.permutations(rows))


# -- SQL's three-valued comparisons over nullable prices ---------------------


def _lt(left, right) -> Optional[bool]:
    return None if left is None or right is None else left < right


def _le(left, right) -> Optional[bool]:
    return None if left is None or right is None else left <= right


def _and(left, right) -> Optional[bool]:
    if left is False or right is False:
        return False
    return None if left is None or right is None else True


def _sum(rows) -> Optional[int]:
    prices = [row["price"] for row in rows if row["price"] is not None]
    return sum(prices) if prices else None


# -- the vocabulary: (text, callable) per condition --------------------------

MINING = [
    ("", None),
    (
        "WHERE BODY.price >= 10 AND HEAD.price < 40",
        lambda b, h: _and(_le(10, b["price"]), _lt(h["price"], 40)),
    ),
    ("WHERE BODY.price < HEAD.price", lambda b, h: _lt(b["price"], h["price"])),
    ("WHERE BODY.tag = 't1'", lambda b, h: b["tag"] == "t1"),
]
SOURCE = [
    ("", None),
    (" WHERE price > 2", lambda row: _lt(2, row["price"])),
]
#: the third and fourth carry an aggregate (R), the second does not
GROUP = [
    ("", None, False),
    (" HAVING grp > 1", lambda rows: rows[0]["grp"] > 1, False),
    (" HAVING COUNT(*) >= 2", lambda rows: len(rows) >= 2, True),
    (" HAVING SUM(price) > 30", lambda rows: _lt(30, _sum(rows)), True),
]
#: (text, callable, K, F); every entry but the first is clustered (C)
CLUSTER = [
    ("", None, False, False),
    ("CLUSTER BY ckey", None, False, False),
    (
        "CLUSTER BY ckey HAVING BODY.ckey < HEAD.ckey",
        lambda b, h: b[0]["ckey"] < h[0]["ckey"], True, False,
    ),
    (
        "CLUSTER BY ckey HAVING BODY.ckey <= HEAD.ckey",
        lambda b, h: b[0]["ckey"] <= h[0]["ckey"], True, False,
    ),
    (
        "CLUSTER BY ckey HAVING SUM(BODY.price) >= SUM(HEAD.price)",
        lambda b, h: _le(_sum(h), _sum(b)), True, True,
    ),
]
BODY_CARDS = [(1, None), (1, 2), (2, None), (2, 3)]
HEAD_CARDS = [(1, 1), (1, None), (1, 2), (2, 2)]


def _often_absent(vocabulary):
    """The first (empty) entry half of the time, so that the simple
    class — no H, no C, no M — is a fifth of the statements when all
    three are drawn."""
    return st.just(vocabulary[0]) | st.sampled_from(vocabulary)


def _card_text(card) -> str:
    return f"{card[0]}..{'n' if card[1] is None else card[1]}"


@st.composite
def cases(draw, cluster=None) -> Case:
    """A statement; *cluster* fixes the :data:`CLUSTER` entry (and so
    C, K and F) instead of drawing it."""
    head_attr = draw(_often_absent(["item", "tag"]))  # H when tag
    mining_text, mining = draw(_often_absent(MINING))
    source_text, source = draw(st.sampled_from(SOURCE))
    group_text, group, aggregate_group = draw(st.sampled_from(GROUP))
    cluster_text, cluster, has_condition, aggregate_cluster = (
        cluster or draw(_often_absent(CLUSTER))
    )
    body_card = draw(st.sampled_from(BODY_CARDS))
    head_card = draw(st.sampled_from(HEAD_CARDS))
    support = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    confidence = draw(st.sampled_from([0.0, 0.5]))
    text = (
        f"MINE RULE Out AS SELECT DISTINCT {_card_text(body_card)} item "
        f"AS BODY, {_card_text(head_card)} {head_attr} AS HEAD, SUPPORT, "
        f"CONFIDENCE {mining_text} FROM Src{source_text} "
        f"GROUP BY grp{group_text} {cluster_text} "
        f"EXTRACTING RULES WITH SUPPORT: {support}, "
        f"CONFIDENCE: {confidence}"
    )
    statement = Statement(
        body=("item",),
        head=(head_attr,),
        group_by=("grp",),
        min_support=support,
        min_confidence=confidence,
        body_card=body_card,
        head_card=head_card,
        cluster_by=("ckey",) if cluster_text else (),
        source_condition=source,
        group_condition=group,
        cluster_condition=cluster,
        mining_condition=mining,
    )
    directives = (
        head_attr != "item", source is not None, mining is not None,
        group is not None, bool(cluster_text), has_condition,
        aggregate_cluster, aggregate_group,
    )
    return Case(text, statement, directives)

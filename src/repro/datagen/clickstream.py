"""Clickstream scenario for general association rules.

A web log ``Clicks(session, user, page, section, minute, dwell)``:
users run sessions, each session visits pages (with a section label, a
minute timestamp within the session and a dwell time).  The scenario
exercises the *general* MINE RULE features end to end:

* grouping by ``user`` or ``session``;
* clustering by ``minute`` with ordered cluster conditions
  (``BODY.minute < HEAD.minute`` — sequential-navigation rules);
* mining conditions over ``section``/``dwell``
  (e.g. catalogue pages leading to checkout pages);
* different body/head schemas (``page`` vs ``section``).
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.sqlengine.engine import Database
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

CLICK_COLUMNS = ("session", "usr", "page", "section", "minute", "dwell")

_SECTIONS = ("home", "catalog", "product", "cart", "checkout", "help")

#: navigation funnel: section -> likely next sections
_FUNNEL = {
    "home": ("catalog", "catalog", "help", "product"),
    "catalog": ("product", "product", "catalog", "home"),
    "product": ("cart", "product", "catalog"),
    "cart": ("checkout", "catalog", "product"),
    "checkout": ("home",),
    "help": ("home", "catalog"),
}


def _click_row_stream(
    users: int,
    sessions_per_user: int,
    clicks_per_session: int,
    pages_per_section: int,
    seed: int,
) -> Iterator[Tuple]:
    """Yield Clicks rows one at a time, in table order."""
    rng = random.Random(seed)
    session_id = 0
    for user_index in range(users):
        user = f"user{user_index + 1}"
        for _ in range(sessions_per_user):
            session_id += 1
            section = "home"
            minute = 0
            for _ in range(max(2, round(rng.gauss(clicks_per_session, 2)))):
                page_number = 1 + int(
                    pages_per_section * rng.random() ** 2
                ) % pages_per_section
                page = f"{section}_{page_number}"
                dwell = max(1, round(rng.gauss(30, 15)))
                yield (session_id, user, page, section, minute, dwell)
                minute += rng.randint(1, 5)
                section = rng.choice(_FUNNEL[section])


def load_clickstream(
    database: Database,
    users: int = 40,
    sessions_per_user: int = 3,
    clicks_per_session: int = 6,
    pages_per_section: int = 8,
    seed: int = 23,
    table_name: str = "Clicks",
) -> Table:
    """Create a Clicks table with funnel-shaped navigation."""
    return database.create_table_from_rows(
        table_name,
        CLICK_COLUMNS,
        _click_row_stream(
            users, sessions_per_user, clicks_per_session,
            pages_per_section, seed,
        ),
        (
            SqlType.INTEGER,
            SqlType.VARCHAR,
            SqlType.VARCHAR,
            SqlType.VARCHAR,
            SqlType.INTEGER,
            SqlType.INTEGER,
        ),
        replace=True,
    )

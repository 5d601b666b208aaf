"""Telecom call-detail-record scenario.

The MINE RULE line of work was carried out with CSELT (the research
centre of Telecom Italia — the paper cites project 101196 CSELT —
Politecnico di Torino), where the motivating analyses were over call
detail records.  This generator produces a ``Calls`` table in that
spirit:

``Calls(caller, callee, cdate, hour, duration, cost, calltype)``

Subscribers have a stable social circle (callees they dial often), a
daily calling routine (morning/evening habits) and occasional premium
calls.  The scenario exercises MINE RULE shapes beyond retail baskets:

* grouping by ``caller`` with callees as items — "who is called
  together";
* clustering by ``cdate`` with ordered conditions — calling sequences;
* mining conditions over ``cost``/``calltype`` — cheap calls that
  precede premium calls (the classic fraud/marketing analysis).
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator, List, Tuple

from repro.sqlengine.engine import Database
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

CALL_COLUMNS = (
    "caller", "callee", "cdate", "hour", "duration", "cost", "calltype",
)

_CALL_TYPES = ("local", "national", "international", "premium")
#: cost per minute by call type
_RATES = {"local": 0.05, "national": 0.15, "international": 0.60,
          "premium": 2.00}


def _call_row_stream(
    subscribers: int,
    days: int,
    calls_per_day: float,
    circle_size: int,
    premium_fraction: float,
    seed: int,
    start_date: datetime.date,
) -> Iterator[Tuple]:
    """Yield Calls rows one at a time, in table order.

    The single RNG path of :func:`load_telecom`, which streams it
    into the table.
    """
    rng = random.Random(seed)

    for subscriber_index in range(subscribers):
        caller = f"sub{subscriber_index + 1}"
        # a stable social circle of *nearby* subscriber ids, so that
        # adjacent subscribers share most of their circle and
        # co-called-callee rules have non-trivial support
        neighbourhood = range(1, min(subscribers, 2 * circle_size))
        circle = sorted(
            {
                f"sub{1 + (subscriber_index + delta) % subscribers}"
                for delta in rng.sample(
                    neighbourhood, min(circle_size, len(neighbourhood))
                )
            }
        )
        routine_hour = rng.choice((9, 13, 19, 21))
        for day in range(days):
            cdate = start_date + datetime.timedelta(days=day)
            count = max(0, round(rng.gauss(calls_per_day, 1.2)))
            for _ in range(count):
                if rng.random() < premium_fraction:
                    calltype = "premium"
                    callee = f"svc{rng.randint(1, 5)}"
                else:
                    calltype = rng.choices(
                        ("local", "national", "international"),
                        weights=(6, 3, 1),
                    )[0]
                    callee = rng.choice(circle)
                hour = min(
                    23, max(0, round(rng.gauss(routine_hour, 3)))
                )
                duration = max(1, round(rng.expovariate(1 / 4.0)))
                cost = round(duration * _RATES[calltype], 2)
                yield (
                    caller, callee, cdate, hour, duration, cost, calltype
                )


def iter_burst_appends(
    bursts: int = 4,
    subscribers: int = 50,
    burst_subscribers: int = 8,
    calls_per_burst: int = 60,
    premium_fraction: float = 0.5,
    seed: int = 43,
    start_date: datetime.date = datetime.date(1997, 3, 8),
) -> Iterator[List[Tuple]]:
    """Yield ``bursts`` append batches of Calls rows modelling traffic
    spikes on the CSELT CDR scenario.

    Each burst picks a fresh clique of ``burst_subscribers`` callers
    who hammer a small callee set (heavy on premium ``svc`` numbers:
    the fraud pattern the motivating analyses chased), one calendar
    day per burst starting at ``start_date``.  Appending bursts after
    an initial MINE RULE run makes previously-rare callee itemsets
    cross the support threshold upward without touching historical
    rows — what an incremental REFRESH has to pick up.
    """
    if bursts <= 0:
        raise ValueError("bursts must be positive")
    rng = random.Random(seed)
    for burst_index in range(bursts):
        cdate = start_date + datetime.timedelta(days=burst_index)
        clique = rng.sample(range(1, subscribers + 1),
                            min(burst_subscribers, subscribers))
        targets = sorted(
            {f"sub{1 + (s + 1) % subscribers}" for s in clique[:3]}
        )
        rows: List[Tuple] = []
        for _ in range(calls_per_burst):
            caller = f"sub{rng.choice(clique)}"
            if rng.random() < premium_fraction:
                calltype = "premium"
                callee = f"svc{rng.randint(1, 5)}"
            else:
                calltype = rng.choices(
                    ("local", "national", "international"),
                    weights=(6, 3, 1),
                )[0]
                callee = rng.choice(targets)
            hour = min(23, max(0, round(rng.gauss(22, 1.5))))
            duration = max(1, round(rng.expovariate(1 / 2.0)))
            cost = round(duration * _RATES[calltype], 2)
            rows.append(
                (caller, callee, cdate, hour, duration, cost, calltype)
            )
        yield rows


def load_telecom(
    database: Database,
    subscribers: int = 50,
    days: int = 7,
    calls_per_day: float = 3.0,
    circle_size: int = 5,
    premium_fraction: float = 0.08,
    seed: int = 41,
    table_name: str = "Calls",
    start_date: datetime.date = datetime.date(1997, 3, 1),
) -> Table:
    """Create a Calls table with socially-structured traffic."""
    rows = _call_row_stream(
        subscribers, days, calls_per_day, circle_size,
        premium_fraction, seed, start_date,
    )
    return database.create_table_from_rows(
        table_name,
        CALL_COLUMNS,
        rows,
        (
            SqlType.VARCHAR,
            SqlType.VARCHAR,
            SqlType.DATE,
            SqlType.INTEGER,
            SqlType.INTEGER,
            SqlType.REAL,
            SqlType.VARCHAR,
        ),
        replace=True,
    )

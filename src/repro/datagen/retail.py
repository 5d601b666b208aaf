"""The big-store Purchase scenario (Section 2 of the paper).

:func:`load_purchase_figure1` loads the *exact* eight-tuple table of
Figure 1, which the FIG1/FIG2 experiments reproduce verbatim.
:func:`load_purchase_synthetic` scales the same scenario up for the
performance benches: customers make several dated transactions, each
containing a basket of priced items, so every clause of the running
example (grouping by customer, clustering by date, price-based mining
conditions) remains meaningful at any size.
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator, List, Optional, Tuple

from repro.sqlengine.engine import Database
from repro.sqlengine.table import Table
from repro.sqlengine.types import SqlType

#: schema of the (non-normalized) Purchase table of Figure 1
PURCHASE_COLUMNS = ("tr", "customer", "item", "date", "price", "qty")

_PURCHASE_TYPES = (
    SqlType.INTEGER,
    SqlType.VARCHAR,
    SqlType.VARCHAR,
    SqlType.DATE,
    SqlType.REAL,
    SqlType.INTEGER,
)


def figure1_rows() -> List[Tuple]:
    """The eight tuples of Figure 1, in the paper's order."""
    d = datetime.date
    return [
        (1, "cust1", "ski_pants", d(1995, 12, 17), 140.0, 1),
        (1, "cust1", "hiking_boots", d(1995, 12, 17), 180.0, 1),
        (2, "cust2", "col_shirts", d(1995, 12, 18), 25.0, 2),
        (2, "cust2", "brown_boots", d(1995, 12, 18), 150.0, 1),
        (2, "cust2", "jackets", d(1995, 12, 18), 300.0, 1),
        (3, "cust1", "jackets", d(1995, 12, 18), 300.0, 1),
        (4, "cust2", "col_shirts", d(1995, 12, 19), 25.0, 3),
        (4, "cust2", "jackets", d(1995, 12, 19), 300.0, 2),
    ]


def load_purchase_figure1(
    database: Database, table_name: str = "Purchase"
) -> Table:
    """Create the Figure 1 Purchase table in *database*."""
    return database.create_table_from_rows(
        table_name,
        PURCHASE_COLUMNS,
        figure1_rows(),
        _PURCHASE_TYPES,
        replace=True,
    )


#: item catalogue of the synthetic store: (name stem, price band)
_CATALOG_BANDS = (
    ("shirt", (15.0, 60.0)),
    ("socks", (5.0, 20.0)),
    ("belt", (20.0, 80.0)),
    ("boots", (90.0, 220.0)),
    ("jacket", (120.0, 400.0)),
    ("skis", (200.0, 600.0)),
)


def _purchase_row_stream(
    customers: int,
    days: int,
    transactions_per_customer: int,
    items_per_transaction: int,
    catalog_size: int,
    seed: int,
    start_date: Optional[datetime.date],
) -> Iterator[Tuple]:
    """Yield synthetic Purchase rows one at a time, in table order.

    The single RNG path of :func:`load_purchase_synthetic`, which
    streams it into the table.
    """
    rng = random.Random(seed)
    start = start_date or datetime.date(1995, 1, 1)

    catalog: List[Tuple[str, float]] = []
    for index in range(catalog_size):
        stem, (low, high) = _CATALOG_BANDS[index % len(_CATALOG_BANDS)]
        price = round(rng.uniform(low, high), 2)
        catalog.append((f"{stem}_{index}", price))

    transaction_id = 0
    for customer_index in range(customers):
        customer = f"cust{customer_index + 1}"
        for _ in range(transactions_per_customer):
            transaction_id += 1
            date = start + datetime.timedelta(days=rng.randrange(days))
            basket_size = max(1, round(rng.gauss(items_per_transaction, 1.5)))
            chosen = set()
            for _ in range(basket_size):
                # Quadratic skew towards the head of the catalogue.
                index = int(catalog_size * rng.random() ** 2)
                chosen.add(min(index, catalog_size - 1))
            for index in sorted(chosen):
                item, price = catalog[index]
                yield (
                    transaction_id,
                    customer,
                    item,
                    date,
                    price,
                    rng.randint(1, 3),
                )


def iter_drift_appends(
    batches: int = 5,
    transactions_per_batch: int = 40,
    items_per_transaction: int = 4,
    catalog_size: int = 60,
    drift: float = 0.15,
    seed: int = 7,
    start_tr: int = 0,
    start_date: Optional[datetime.date] = None,
) -> Iterator[List[Tuple]]:
    """Yield ``batches`` append batches of Purchase rows whose item
    popularity *drifts* between batches.

    Batch ``b`` draws items from a popularity window centred at
    ``b * drift * catalog_size`` (wrapping), so itemsets frequent in
    early batches sink below the support threshold later while fresh
    ones rise above it — the threshold crossings both ways that an
    incremental REFRESH has to follow.  Transaction ids continue from
    ``start_tr`` (pass the current ``MAX(tr)``) so appended rows never
    collide with the already-mined groups; prices stay fixed per item
    as in :func:`load_purchase_synthetic`.
    """
    if batches <= 0:
        raise ValueError("batches must be positive")
    rng = random.Random(seed)
    start = start_date or datetime.date(1998, 1, 1)

    catalog: List[Tuple[str, float]] = []
    for index in range(catalog_size):
        stem, (low, high) = _CATALOG_BANDS[index % len(_CATALOG_BANDS)]
        price = round(rng.uniform(low, high), 2)
        catalog.append((f"{stem}_{index}", price))

    transaction_id = start_tr
    for batch_index in range(batches):
        centre = int(batch_index * drift * catalog_size)
        rows: List[Tuple] = []
        for _ in range(transactions_per_batch):
            transaction_id += 1
            customer = f"cust{rng.randint(1, max(2, catalog_size // 2))}"
            date = start + datetime.timedelta(days=batch_index)
            basket_size = max(
                1, round(rng.gauss(items_per_transaction, 1.5))
            )
            chosen = set()
            for _ in range(basket_size):
                # same quadratic skew as the base stream, shifted to
                # the batch's popularity centre (wrapping)
                offset = int(catalog_size * rng.random() ** 2)
                chosen.add((centre + offset) % catalog_size)
            for index in sorted(chosen):
                item, price = catalog[index]
                rows.append(
                    (
                        transaction_id,
                        customer,
                        item,
                        date,
                        price,
                        rng.randint(1, 3),
                    )
                )
        yield rows


def load_purchase_synthetic(
    database: Database,
    customers: int = 50,
    days: int = 10,
    transactions_per_customer: int = 4,
    items_per_transaction: int = 4,
    catalog_size: int = 60,
    seed: int = 7,
    table_name: str = "Purchase",
    start_date: Optional[datetime.date] = None,
) -> Table:
    """A scalable Purchase table with the Figure 1 schema.

    Item popularity is skewed (low item indices are bought more often)
    so that rules with non-trivial support exist at every scale; prices
    are drawn per item from its catalogue band and then fixed, keeping
    price-based mining conditions consistent across tuples.
    """
    rows = _purchase_row_stream(
        customers, days, transactions_per_customer,
        items_per_transaction, catalog_size, seed, start_date,
    )
    return database.create_table_from_rows(
        table_name, PURCHASE_COLUMNS, rows, _PURCHASE_TYPES, replace=True
    )

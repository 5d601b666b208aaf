"""PR9 — incremental refresh vs full re-mine.

One scenario, asserted and recorded to ``BENCH_PR9.json``: mine the
synthetic retail workload (400k transaction groups in full mode),
capture the refresh state, append a 5% batch of concept-drift
transactions, and bring the rule table up to date both ways:

* ``REFRESH RULES`` — one DISTINCT pairs scan over the increment (the
  rows past the append watermark, handed to the engine as a relation)
  ORed into the recorded item bitmaps, then the pool member mining
  those bitmaps in memory;
* full re-mine — the whole Q0..Q11 preprocessing pipeline, core and
  postprocessor from scratch on the appended table.

The refreshed output tables must be **bit-identical** to the full
re-mine's, and the refresh must clear the PR's 3x acceptance floor.
``BENCH_QUICK=1`` shrinks the workload below any honest floor, so
quick mode only asserts bit-identity and records the numbers.
"""

import time

from benchmarks.conftest import BENCH_QUICK, bench_report
from repro import Database, MiningSystem
from repro.datagen import iter_drift_appends, load_purchase_synthetic

REPORT, write_report = bench_report("BENCH_PR9.json")

if BENCH_QUICK:
    WORKLOAD = dict(
        customers=1_000, days=10, transactions_per_customer=4,
        items_per_transaction=4, catalog_size=60, seed=19,
    )
    SPEEDUP_FLOOR = 0.0
else:
    WORKLOAD = dict(
        customers=100_000, days=10, transactions_per_customer=4,
        items_per_transaction=4, catalog_size=60, seed=19,
    )
    SPEEDUP_FLOOR = 3.0

#: appended transactions: 5% of the base group count
APPEND_FRACTION = 0.05

STATEMENT = (
    "MINE RULE RefreshBench AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.2"
)


def _delta_rows():
    base_groups = (
        WORKLOAD["customers"] * WORKLOAD["transactions_per_customer"]
    )
    append_groups = int(base_groups * APPEND_FRACTION)
    return [
        row
        for batch in iter_drift_appends(
            batches=1,
            transactions_per_batch=append_groups,
            items_per_transaction=WORKLOAD["items_per_transaction"],
            catalog_size=WORKLOAD["catalog_size"],
            seed=23,
            start_tr=base_groups,
        )
        for row in batch
    ]


def _dump(system, out="RefreshBench"):
    tables = []
    for suffix in ("", "_Bodies", "_Heads", "_Display"):
        table = system.db.catalog.get_table(out + suffix)
        tables.append((tuple(table.columns),
                       [tuple(row) for row in table.rows]))
    return tables


class TestIncrementalRefreshSpeedup:
    def test_refresh_vs_full_remine_on_5pct_append(self):
        database = Database()
        load_purchase_synthetic(database, **WORKLOAD)
        system = MiningSystem(database=database)
        system.run(STATEMENT)
        system.refresh("RefreshBench")  # capture state

        delta = _delta_rows()
        purchase = database.catalog.get_table("Purchase")
        for row in delta:
            purchase.insert(list(row))

        started = time.perf_counter()
        refreshed = system.refresh("RefreshBench")
        refresh_seconds = time.perf_counter() - started
        assert refreshed.stats.mode == "incremental"
        assert refreshed.stats.delta_rows == len(delta)
        refreshed_dump = _dump(system)

        # full re-mine of the appended table, preprocessing cold
        system.invalidate_preprocessing()
        started = time.perf_counter()
        full = system.run(STATEMENT)
        full_seconds = time.perf_counter() - started
        assert full.rules

        assert _dump(system) == refreshed_dump  # bit-identical

        speedup = full_seconds / max(refresh_seconds, 1e-9)
        REPORT["incremental_refresh"] = {
            "workload": WORKLOAD,
            "quick": BENCH_QUICK,
            "base_groups": refreshed.stats.totg
            - refreshed.stats.new_groups,
            "appended_rows": len(delta),
            "append_fraction": APPEND_FRACTION,
            "delta_pairs": refreshed.stats.delta_pairs,
            "recounted_itemsets": refreshed.stats.recounted_itemsets,
            "frequent_itemsets": refreshed.stats.frequent_itemsets,
            "rules": len(refreshed.rules),
            "seconds": {
                "refresh": round(refresh_seconds, 6),
                "full_remine": round(full_seconds, 6),
            },
            "speedup": round(speedup, 2),
            "bit_identical": True,
        }
        assert speedup >= SPEEDUP_FLOOR, (
            f"refresh speedup {speedup:.2f}x under the "
            f"{SPEEDUP_FLOOR}x floor "
            f"(refresh {refresh_seconds:.2f}s, "
            f"full {full_seconds:.2f}s)"
        )

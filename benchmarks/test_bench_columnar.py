"""PR7 — columnar storage + the vectorized batch executor.

One scenario, asserted (a rule mismatch or a non-identical spill run
fails, not just slows down) and recorded to ``BENCH_PR7.json``:

**Spill run**: the full Q0..Q11 translation program of the paper's
general MINE RULE statement (mining condition + CLUSTER BY + source
condition) on a synthetic retail Purchase workload, in memory and
under a capped ``memory_budget`` small enough that the vectorized
sort / join / aggregate operators go out-of-core.  The run must stay
bit-identical — same rules, same golden dumps of the output tables —
and a probe aggregation must actually report ``spill_bytes`` in
EXPLAIN ANALYZE.
"""

from benchmarks.conftest import BENCH_QUICK, bench_report
from repro import Database, MiningSystem
from repro.datagen import load_purchase_synthetic
from repro.sqlengine import EngineOptions
from repro.sqlengine.dump import dump_table_text

REPORT, write_report = bench_report("BENCH_PR7.json")

#: the paper's general statement — its translation program emits the
#: full Q0..Q11 sequence (source condition, clustering, mining
#: condition, the encode joins and the couples/rules queries)
STATEMENT = """
MINE RULE FilteredSets AS
SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE
WHERE BODY.price >= 100 AND HEAD.price < 100
FROM Purchase
WHERE date BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY customer
CLUSTER BY date HAVING BODY.date < HEAD.date
EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.1
"""

CUSTOMERS = 120 if BENCH_QUICK else 1_600
DAYS = 20
TRANSACTIONS = 5
ITEMS_PER_TRANSACTION = 5
CATALOG = 150
#: small enough to push the big encode joins and sorts out-of-core at
#: both scales, large enough that tiny working tables stay in memory
SPILL_BUDGET = 16_000 if BENCH_QUICK else 64_000


def _load(**engine_kw):
    database = Database(EngineOptions(**engine_kw))
    load_purchase_synthetic(
        database,
        customers=CUSTOMERS,
        days=DAYS,
        transactions_per_customer=TRANSACTIONS,
        items_per_transaction=ITEMS_PER_TRANSACTION,
        catalog_size=CATALOG,
        seed=7,
    )
    return database


def _output_dumps(database, result):
    out = result.output_table
    return {
        table: dump_table_text(database, table)
        for table in (
            out, f"{out}_Bodies", f"{out}_Heads", f"{out}_Display"
        )
        if database.catalog.has_table(table)
    }


def _run(**engine_kw):
    """One cold end-to-end run under the given executor options;
    returns (preprocess seconds, rules, output dumps, database)."""
    database = _load(**engine_kw)
    system = MiningSystem(database=database, reuse_preprocessing=False)
    result = system.run(STATEMENT)
    return (
        result.preprocess_stats.total_seconds,
        result.rules,
        _output_dumps(database, result),
        database,
    )


class TestSpillRun:
    def test_spill_run_stays_bit_identical(self):
        col_seconds, col_rules, col_dumps, _ = _run()
        spill_seconds, spill_rules, spill_dumps, database = _run(
            memory_budget=SPILL_BUDGET
        )

        assert spill_rules == col_rules
        assert spill_dumps == col_dumps

        # the budget must actually force the operators out-of-core:
        # a representative aggregation over the source table reports
        # non-zero spill_bytes under EXPLAIN ANALYZE
        analysis = database.analyze(
            "SELECT customer, COUNT(*) FROM Purchase "
            "GROUP BY customer ORDER BY customer"
        )
        spill_bytes = sum(
            node.get("spill_bytes", 0)
            for node in analysis.nodes
            if node.get("vectorized")
        )
        assert spill_bytes > 0, analysis.text

        REPORT["spill_run"] = {
            "quick": BENCH_QUICK,
            "memory_budget": SPILL_BUDGET,
            "seconds": {
                "in_memory": round(col_seconds, 6),
                "spill": round(spill_seconds, 6),
            },
            "probe_spill_bytes": spill_bytes,
            "bit_identical": True,
        }

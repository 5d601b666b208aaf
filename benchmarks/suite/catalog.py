"""Names, units, directions and bounds of every metric the suite
prints.  ``BENCHMARK.json`` at the repo root repeats the part the
builder's driver reads; ``tests/test_catalog.py`` keeps the two equal.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional


#: the seconds one run measures (``run_seconds`` in BENCHMARK.json);
#: iteration counts are fixed from ``--seconds`` and a nominal statement
#: time per workload, never from the clock, so both sides of a
#: comparison take the median over the same statements
RUN_SECONDS = 12

SERVICE_MIXED = "service_mixed"
WORKLOAD_NAMES = [
    "retail_cold", "quest_core_reuse", "clicks_general", "refresh_append",
    SERVICE_MIXED,
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the base median by which the metric may worsen before
    #: ``compare`` calls it a regression (0.0: any worsening)
    bound: float
    #: the driver gates only metrics every workload produces
    every_workload: bool
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, True,
             "data generation + load + warm-up (+ the one-time "
             "preprocessing on quest_core_reuse, + server start and the "
             "QBase run on service_mixed)"),
    EndToEnd("stmt_s_p50", "s", "lower", 0.25, True,
             "median wall seconds a user waits for the workload's mining "
             "statement"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, True,
             "ru_maxrss of the workload process (the server child on "
             "service_mixed)"),
    EndToEnd("append_rows_per_s", "rows/s", "higher", 0.10, False,
             "refresh_append: source rows appended per second through "
             "single-row SQL INSERT"),
    EndToEnd("query_s_p50", "s", "lower", 0.25, False,
             "service_mixed: median SELECT-job latency from the time the "
             "job was due"),
    EndToEnd("query_s_p90", "s", "lower", 0.20, False,
             "service_mixed: 90th percentile of the same"),
    EndToEnd("failed_frac", "ratio", "lower", 0.0, False,
             "failed or check-failing operations / attempted"),
]

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}

#: what the contract's ``--trace 0`` line carries (failures travel in
#: its ``attempted``/``failed`` keys instead of a metric that is 0)
DRIVER_END_TO_END = [m.name for m in END_TO_END if m.every_workload]

#: preprocessing query labels that get a ``preprocessor.q.<label>_s``
Q_LABELS = ["Q0v", "Q1", "Q2a", "Q2b", "Q3a", "Q3b", "Q4", "Q4b",
            "Q6", "Q7", "Q8", "Q9", "Q10", "Q11"]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


def _per_layer() -> List[PerLayer]:
    lower_s = [
        "translator.self_s",
        "preprocessor.total_s", "preprocessor.self_s",
        *(f"preprocessor.q.{label}_s" for label in Q_LABELS),
        "sqlengine.prepare_self_s", "sqlengine.execute_self_s",
        "core.load_self_s", "core.simple_self_s", "algorithms.mine_s",
        "core.general_s",
        "postprocessor.store_s", "postprocessor.decode_s",
        "postprocessor.rules_s",
        "refresh.delta_self_s", "refresh.recount_s",
        "system.self_s", "system.cpu_s",
        "jobs.submit_s", "jobs.queue_wait_s", "jobs.run_s", "jobs.result_s",
        "loadgen.late_s_p50", "loadgen.late_s_max",
        "parallel.w2_core_s", "datagen.load_s",
        "query_s_p50", "query_s_p90",
    ]
    lower_count = [
        "translator.sql_statements", "preprocessor.encoded_rows",
        "sqlengine.statements", "core.load_groups", "algorithms.itemsets",
        "core.rules", "refresh.delta_rows", "refresh.recounted_itemsets",
        "jobs.poll_requests", "datagen.rows",
    ]
    lower_ratio = [
        "borderline.sql_share", "borderline.core_share",
        "obs.enabled_overhead_frac", "journal.stage_skew_frac",
        "bench.trace_overhead_frac",
    ]
    higher_ratio = [
        "preprocessor.reused_ratio", "sqlengine.plan_cache_hit_ratio",
        "refresh.incremental_ratio", "parallel.w2_speedup",
    ]
    metrics = [PerLayer(name, "s", "lower") for name in lower_s]
    metrics += [PerLayer(name, "count", "lower") for name in lower_count]
    metrics += [PerLayer(name, "ratio", "lower") for name in lower_ratio]
    metrics += [PerLayer(name, "ratio", "higher") for name in higher_ratio]
    metrics.append(PerLayer("sqlengine.insert_row_us", "us", "lower"))
    metrics.append(PerLayer("append_rows_per_s", "rows/s", "higher"))
    metrics.append(PerLayer("parallel.cpus", "count", "higher"))
    return metrics


PER_LAYER: List[PerLayer] = _per_layer()
PER_LAYER_BY_NAME: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}


def unit_of(name: str) -> Optional[str]:
    if name in END_TO_END_BY_NAME:
        return END_TO_END_BY_NAME[name].unit
    if name in PER_LAYER_BY_NAME:
        return PER_LAYER_BY_NAME[name].unit
    return None


def metric(name: str, value: Optional[float],
           n: Optional[int] = None) -> Dict[str, Any]:
    """One printed metric: value (None: the workload does not produce
    it), unit, and the sample count behind a median or percentile."""
    return {"value": value, "unit": unit_of(name), "n": n}

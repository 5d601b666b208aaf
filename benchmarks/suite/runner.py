"""Runs one workload in this process and returns its metrics.

The end-to-end run touches only ``workloads.py``.  The traced run
alternates untraced and traced iterations of the same statements, so
the per-layer numbers and the cost of tracing them come from one
process; it alone imports the boundary table and the probes.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Any, Dict, List, Optional

from benchmarks.suite import workloads
from benchmarks.suite.catalog import END_TO_END, SERVICE_MIXED, metric
from benchmarks.suite.checks import Checker, rows_fingerprint
from benchmarks.suite.stats import summarize


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    size: str = "full",
    traced: bool = False,
    expected: Optional[Dict[str, Any]] = None,
    started: Optional[float] = None,
) -> Dict[str, Any]:
    """``end_to_end`` always; ``per_layer`` and ``missing_boundaries``
    when *traced*; ``attempted``/``failed``/``failures`` from the
    output checks.  *expected* overrides ``expected.json``; *started*
    is when the process began, so that imports count as set-up."""
    if started is None:
        started = time.perf_counter()
    if name == SERVICE_MIXED:
        from benchmarks.suite.service import run_service

        result = run_service(seed, seconds, size, traced, expected, started)
    else:
        result = run_batch(
            workloads.BATCH_WORKLOADS[name], seed, seconds, size, traced,
            expected, started,
        )
    checker: Checker = result.pop("checker")
    for entry in END_TO_END:  # null where the workload does not produce it
        result["end_to_end"].setdefault(entry.name, metric(entry.name, None))
    result["end_to_end"]["failed_frac"] = metric(
        "failed_frac", checker.failed_frac, checker.attempted
    )
    result.update(
        workload=name, seed=seed, size=size, traced=traced,
        attempted=checker.attempted, failed=checker.failed,
        failures=checker.failures, pins=checker.pins(),
    )
    return result


def run_batch(
    workload: workloads.BatchWorkload,
    seed: int,
    seconds: float,
    size: str,
    traced: bool,
    expected: Optional[Dict[str, Any]],
    started: float,
) -> Dict[str, Any]:
    checker = Checker(workload.name, seed, size, expected)
    ctx = workload.setup(seed, size, checker)
    setup_s = time.perf_counter() - started
    checker.check_input(rows_fingerprint(
        ctx.db.execute(f"SELECT * FROM {workload.source}").rows
    ))

    iterations = workload.iterations(seconds, size)
    tracing = layers = None
    if traced:
        from benchmarks.suite.boundaries import Tracing
        from benchmarks.suite.layers import LayerAccumulator

        tracing = Tracing()
        layers = LayerAccumulator()
        # pairs of one untraced and one traced statement; a whole
        # number of turns, so that ageing cancels in the overhead
        turn = workload.pair_multiple
        iterations = -(-iterations // turn) * turn
    plain: List[workloads.Sample] = []
    under_trace: List[workloads.Sample] = []
    step = 0
    for variant in range(iterations):
        # traced and untraced take turns going first, so that neither
        # always runs on the grown table or the older heap
        order = (False,) if not traced else \
            (False, True) if variant % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                with tracing:
                    under_trace.append(workload.iteration(ctx, step, variant))
                layers.add(tracing.recorder.drain())
            else:
                plain.append(workload.iteration(ctx, step, variant))
            step += 1
    rss = peak_rss_mb()
    workload.finish(ctx)

    statements = summarize([sample.stmt_s for sample in plain])
    append_rates = [
        sample.append_rows / sample.append_s
        for sample in plain if sample.append_rows
    ]
    appends = summarize(append_rates)
    result: Dict[str, Any] = {
        "end_to_end": {
            "setup_s": metric("setup_s", setup_s),
            "stmt_s_p50": metric("stmt_s_p50", statements["p50"],
                                 statements["n"]),
            "peak_rss_mb": metric("peak_rss_mb", rss),
            "append_rows_per_s": metric("append_rows_per_s", appends["p50"],
                                        appends["n"] or None),
        },
        "checker": checker,
        "info": {"load_s": ctx.load_s,
                 "rows": checker.input["rows"],
                 "stmt_samples": [sample.stmt_s for sample in plain]},
    }
    if tracing is not None:
        from benchmarks.suite.probes import run_probes

        per_layer = layers.metrics(tracing.missing_spans)
        # geometric mean over the pairs of traced / untraced
        overhead = math.exp(statistics.fmean(
            math.log(with_trace.stmt_s / without.stmt_s)
            for with_trace, without in zip(under_trace, plain)
        )) - 1.0
        per_layer.update({
            "append_rows_per_s": appends["p50"],
            "datagen.load_s": ctx.load_s,
            "datagen.rows": checker.input["rows"],
            "bench.trace_overhead_frac": overhead,
        })
        probes = run_probes(workload, seed, size)
        per_layer.update(probes["metrics"])
        result["per_layer"] = per_layer
        result["missing_boundaries"] = tracing.missing
        result["missing_probes"] = probes["missing"]
    return result

"""PR 4/PR 5 — observability overhead.

The tracing layer promises zero overhead when disabled: every hot-path
hook is a single attribute check on the shared :data:`NULL_TRACER`.
This bench measures the full MINE RULE pipeline three ways — tracer
absent (seed behaviour), tracer enabled, tracer enabled with
EXPLAIN ANALYZE capture — and asserts the disabled path stays within
5% of the seed (the CI smoke gate), recording all three in
``BENCH_PR4.json``.

PR 5 extends the same contract to the metrics registry: with metrics
disabled (the shared :data:`NULL_REGISTRY`) the pipeline must stay
within the same overhead gate, and with metrics enabled the well-known
series must actually materialize.  Recorded in ``BENCH_PR5.json``.

PR 10 extends it again to run tracing: trace-context propagation,
per-span resource attribution and the run-history journal must leave
the disabled path inside the same gate, and the fully-observed path
(tracer + CPU attribution + journal) must stay cheap.  Recorded in
``BENCH_PR10.json``.

The three disabled-path gates read one paired estimator
(:func:`paired_overhead`): both configurations run in every round, in
alternating order, and the gate is on the median per-pair ratio —
two separate loops compared by their minimum or median let the drift
of a shared box between the loops decide the result.
"""

import gc
import time

from benchmarks.conftest import BENCH_QUICK, bench_report, fresh_system
from repro import Database
from repro.datagen import QuestParameters, load_quest
from repro.obs import NULL_TRACER, MetricsRegistry, RunLog, Tracer

REPORT, write_report = bench_report("BENCH_PR4.json")
REPORT5, write_report5 = bench_report("BENCH_PR5.json")
REPORT10, write_report10 = bench_report("BENCH_PR10.json")

STATEMENT = """
MINE RULE ObsRules AS
SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE
FROM Baskets
GROUP BY tid
EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.4
"""

ROUNDS = 3 if BENCH_QUICK else 8
#: pairs behind each disabled-path gate (odd: the median is a pair)
PAIRS = 7 if BENCH_QUICK else 9
#: disabled-path regression gate; QUICK runs on shared CI boxes where
#: timer noise dominates, so the floor relaxes
OVERHEAD_LIMIT = 1.25 if BENCH_QUICK else 1.05


def quest_database():
    db = Database()
    load_quest(
        db,
        QuestParameters(
            transactions=120 if BENCH_QUICK else 300,
            avg_transaction_size=8,
            avg_pattern_size=3,
            patterns=40,
            items=80,
            seed=77,
        ),
    )
    return db


def timed_run(**kwargs):
    """Wall seconds of one full MINE RULE run on a fresh system.  The
    collector runs before the clock starts, so a collection the
    previous run left due does not land on whichever run is next."""
    system = fresh_system(quest_database(), **kwargs)
    gc.collect()
    started = time.perf_counter()
    result = system.execute(STATEMENT)
    seconds = time.perf_counter() - started
    assert result.rules
    return seconds


def paired_overhead(candidate, pairs=PAIRS):
    """The disabled-path estimator: *pairs* rounds, each timing the
    seed configuration (no sink, no tracer) and *candidate* (the
    system keyword arguments under test) back to back, the first of
    the two alternating between rounds, so drift of a shared box hits
    both sides of a pair alike.  Returns the median seed seconds, the
    median candidate seconds and the median per-pair ratio, which is
    what the gate reads."""
    seed, tested, ratios = [], [], []
    for round_ in range(pairs):
        if round_ % 2:
            tested.append(timed_run(**candidate))
            seed.append(timed_run())
        else:
            seed.append(timed_run())
            tested.append(timed_run(**candidate))
        ratios.append(tested[-1] / seed[-1])
    return tuple(sorted(side)[pairs // 2] for side in (seed, tested, ratios))


def pipeline_seconds(rounds=ROUNDS, **kwargs):
    """Median wall seconds of *rounds* runs under the system keyword
    arguments *kwargs* (none: the seed behaviour)."""
    return sorted(timed_run(**kwargs) for _ in range(rounds))[rounds // 2]


def test_disabled_tracing_overhead_under_5_percent():
    # against the seed behaviour: the NULL_TRACER default
    baseline, disabled, ratio = paired_overhead(
        {"tracer": Tracer(enabled=False)}
    )
    REPORT["obs_overhead"] = {
        "baseline_ms": baseline * 1000,
        "disabled_ms": disabled * 1000,
        "disabled_ratio": ratio,
        "limit": OVERHEAD_LIMIT,
        "quick": BENCH_QUICK,
    }
    assert ratio < OVERHEAD_LIMIT, (
        f"disabled tracing slowed the pipeline by "
        f"{(ratio - 1) * 100:.1f}% (limit {OVERHEAD_LIMIT})"
    )


def test_enabled_tracing_records_the_pipeline():
    tracer = Tracer(enabled=True)
    seconds = pipeline_seconds(1, tracer=tracer)
    names = {span.name for span in tracer.spans}
    for component in ("translator", "preprocessor", "core",
                      "postprocessor"):
        assert component in names, component
    REPORT["obs_enabled"] = {
        "run_ms": seconds * 1000,
        "spans": len(tracer.spans),
    }
    assert len(tracer.spans) > 10


def test_analyze_capture_cost_is_bounded():
    """EXPLAIN ANALYZE wraps every operator's row stream — expensive by
    design, but it must stay within an order of magnitude."""
    baseline = pipeline_seconds()
    analyzed = pipeline_seconds(tracer=Tracer(enabled=True, analyze=True))
    REPORT["obs_analyze"] = {
        "baseline_ms": baseline * 1000,
        "analyze_ms": analyzed * 1000,
        "analyze_ratio": analyzed / baseline,
    }
    assert analyzed / baseline < 10.0


def test_null_tracer_is_shared():
    """The default path must not allocate per-system tracers."""
    system = fresh_system(quest_database())
    assert system.tracer is NULL_TRACER
    assert system.db.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# PR 5 — metrics registry
# ----------------------------------------------------------------------


def test_disabled_metrics_overhead_within_gate():
    """Metrics off (the seed path) must stay inside the same overhead
    gate as disabled tracing: a disabled registry is never attached,
    so the system keeps the disabled tracer and every hook is one
    ``tracer.enabled`` check."""
    # against the NULL_REGISTRY default
    baseline, disabled, ratio = paired_overhead(
        {"metrics": MetricsRegistry(enabled=False)}
    )
    REPORT5["metrics_overhead"] = {
        "baseline_ms": baseline * 1000,
        "disabled_ms": disabled * 1000,
        "disabled_ratio": ratio,
        "limit": OVERHEAD_LIMIT,
        "quick": BENCH_QUICK,
    }
    assert ratio < OVERHEAD_LIMIT, (
        f"disabled metrics slowed the pipeline by "
        f"{(ratio - 1) * 100:.1f}% (limit {OVERHEAD_LIMIT})"
    )


def test_enabled_metrics_cost_and_series():
    """With the registry live the well-known series must materialize,
    and the cost must stay small (it is counter bumps and histogram
    observes, not row-stream wrapping like EXPLAIN ANALYZE)."""
    baseline = pipeline_seconds()
    registry = MetricsRegistry()
    enabled = pipeline_seconds(max(1, ROUNDS // 2), metrics=registry)

    hist = registry.get("repro_sql_statement_seconds")
    assert hist is not None and hist.kind == "histogram"
    assert any(
        state.count > 0 for _, state in hist.samples()
    ), "per-statement SQL latency histogram never observed"

    stages = registry.get("repro_preprocess_stage_seconds")
    assert stages is not None
    assert stages.state(stage="Q1") is not None

    runs = registry.get("repro_minerule_runs_total")
    assert runs.value(status="ok") >= 1

    REPORT5["metrics_enabled"] = {
        "baseline_ms": baseline * 1000,
        "enabled_ms": enabled * 1000,
        "enabled_ratio": enabled / baseline,
        "families": len(registry.collect()),
    }
    assert enabled / baseline < 3.0


# ----------------------------------------------------------------------
# PR 10 — run tracing, resource attribution, run history
# ----------------------------------------------------------------------


def test_disabled_run_tracing_overhead_within_gate():
    """With tracing, context propagation, resource attribution and the
    journal all off, the pipeline must stay inside the PR4 gate —
    the PR10 hooks add no work to the unobserved path."""
    baseline, disabled, ratio = paired_overhead(
        {"tracer": Tracer(enabled=False)}
    )
    REPORT10["run_tracing_overhead"] = {
        "baseline_ms": baseline * 1000,
        "disabled_ms": disabled * 1000,
        "disabled_ratio": ratio,
        "limit": OVERHEAD_LIMIT,
        "quick": BENCH_QUICK,
    }
    assert ratio < OVERHEAD_LIMIT, (
        f"disabled run tracing slowed the pipeline by "
        f"{(ratio - 1) * 100:.1f}% (limit {OVERHEAD_LIMIT})"
    )


def test_observed_run_with_journal_cost_is_bounded():
    """The fully-observed path — spans with CPU attribution, trace
    context, a run-history record with the trace payload — must stay
    well under the EXPLAIN ANALYZE class of cost."""
    baseline = pipeline_seconds()
    tracer = Tracer(enabled=True)
    runlog = RunLog()
    observed = pipeline_seconds(
        max(1, ROUNDS // 2), tracer=tracer, runlog=runlog
    )
    records = runlog.list(kind="mine")
    assert records, "observed runs never reached the journal"
    last = records[-1]
    assert last["status"] == "ok"
    assert last["cpu_seconds"] >= 0.0
    assert "core" in last["stages"]
    assert any(span.cpu is not None for span in tracer.spans)
    REPORT10["run_tracing_observed"] = {
        "baseline_ms": baseline * 1000,
        "observed_ms": observed * 1000,
        "observed_ratio": observed / baseline,
        "journal_records": len(runlog),
    }
    assert observed / baseline < 3.0


def test_memory_profiling_cost_is_bounded():
    """tracemalloc attribution is opt-in because it is expensive —
    roughly 10x on this allocation-heavy pipeline.  Record how
    expensive, and keep it from regressing past ~2x its measured
    cost."""
    from repro.obs import profile

    baseline = pipeline_seconds()
    tracer = Tracer(enabled=True, profile_mem=True)
    try:
        profiled = pipeline_seconds(1, tracer=tracer)
    finally:
        profile.stop_memory_tracking()
    assert any(
        span.peak_bytes is not None for span in tracer.spans
    ), "memory profiling attributed no peaks"
    REPORT10["profile_mem"] = {
        "baseline_ms": baseline * 1000,
        "profiled_ms": profiled * 1000,
        "profiled_ratio": profiled / baseline,
    }
    assert profiled / baseline < 20.0

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
"""

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


def run_pipeline(tracer, rounds=ROUNDS):
    """Median wall time of one full MINE RULE run under *tracer*."""
    samples = []
    for _ in range(rounds):
        system = fresh_system(quest_database(), tracer=tracer)
        started = time.perf_counter()
        result = system.execute(STATEMENT)
        samples.append(time.perf_counter() - started)
        assert result.rules
    samples.sort()
    return samples[len(samples) // 2]


def test_disabled_tracing_overhead_under_5_percent():
    baseline = run_pipeline(None)  # seed behaviour: NULL_TRACER default
    disabled = run_pipeline(Tracer(enabled=False))
    ratio = disabled / baseline
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
    seconds = run_pipeline(tracer, rounds=1)
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
    baseline = run_pipeline(None)
    analyzed = run_pipeline(Tracer(enabled=True, analyze=True))
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


def run_pipeline_metrics(metrics, rounds=ROUNDS):
    """Best-of wall time of one full MINE RULE run with *metrics* (no
    tracer — isolates the registry's own cost).  Min rather than median:
    the disabled-path gate compares two configurations that should be
    *identical*, so the least-noise estimator is the fair one."""
    samples = []
    for _ in range(rounds):
        kwargs = {} if metrics is None else {"metrics": metrics}
        system = fresh_system(quest_database(), **kwargs)
        started = time.perf_counter()
        result = system.execute(STATEMENT)
        samples.append(time.perf_counter() - started)
        assert result.rules
    return min(samples)


def test_disabled_metrics_overhead_within_gate():
    """Metrics off (the seed path) must stay inside the same overhead
    gate as disabled tracing: a disabled registry is never attached,
    so the system keeps the disabled tracer and every hook is one
    ``tracer.enabled`` check."""
    baseline = run_pipeline_metrics(None)  # NULL_REGISTRY default
    disabled = run_pipeline_metrics(MetricsRegistry(enabled=False))
    ratio = disabled / baseline
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
    baseline = run_pipeline_metrics(None)
    registry = MetricsRegistry()
    enabled = run_pipeline_metrics(registry, rounds=max(1, ROUNDS // 2))

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


def run_pipeline_runlog(tracer, runlog, rounds=ROUNDS):
    """Best-of wall time of one full MINE RULE run under *tracer* with
    the run-history journal attached (min: see run_pipeline_metrics)."""
    samples = []
    for _ in range(rounds):
        kwargs = {}
        if tracer is not None:
            kwargs["tracer"] = tracer
        if runlog is not None:
            kwargs["runlog"] = runlog
        system = fresh_system(quest_database(), **kwargs)
        started = time.perf_counter()
        result = system.execute(STATEMENT)
        samples.append(time.perf_counter() - started)
        assert result.rules
    return min(samples)


def test_disabled_run_tracing_overhead_within_gate():
    """With tracing, context propagation, resource attribution and the
    journal all off, the pipeline must stay inside the PR4 gate —
    the PR10 hooks add no work to the unobserved path."""
    baseline = run_pipeline_runlog(None, None)
    disabled = run_pipeline_runlog(Tracer(enabled=False), None)
    ratio = disabled / baseline
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
    baseline = run_pipeline_runlog(None, None)
    tracer = Tracer(enabled=True)
    runlog = RunLog()
    observed = run_pipeline_runlog(
        tracer, runlog, rounds=max(1, ROUNDS // 2)
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

    baseline = run_pipeline_runlog(None, None)
    tracer = Tracer(enabled=True, profile_mem=True)
    try:
        profiled = run_pipeline_runlog(tracer, None, rounds=1)
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

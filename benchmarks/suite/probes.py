"""Probes of the traced run: recorded, never gating.  Each isolates
one variable and is reported as measured.  A probe that no longer
resolves on the source (a constructor argument was deleted, say) is
listed under ``missing_probes`` and its metrics are null.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Callable, Dict, List, Optional

from repro import Database, MiningSystem

from benchmarks.suite import workloads
from benchmarks.suite.checks import Checker
from benchmarks.suite.spans import Span, children_of, descendants

#: statement pairs per probe
PAIRS = {"full": 4, "quick": 2}
#: journal stages shorter than this share of the statement are skipped
#: (their relative gap is noise)
SKEW_FLOOR = 0.01


def _context(workload: workloads.BatchWorkload, seed: int, size: str,
             db: Optional[Database] = None,
             **system_arguments: Any) -> workloads.Context:
    """A system of the probe's own (and a database, unless *db* is
    given), set up like the workload's (load + warm-up), unchecked."""
    if db is None:
        db = Database()
        workload.load(db, seed, size)
    ctx = workloads.Context(
        db, MiningSystem(database=db, **system_arguments),
        Checker(workload.name, seed, size, expected={}), size,
    )
    workload.warm_up(ctx, seed)
    return ctx


def _alternate(workload, first, second, pairs: int):
    """``pairs`` iterations on each side, interleaved so drift hits
    both; returns the two lists of samples."""
    a: List[workloads.Sample] = []
    b: List[workloads.Sample] = []
    for index in range(pairs):
        a.append(workload.iteration(first, index, index))
        b.append(workload.iteration(second, index, index))
    return a, b


def stage_skew(root: Span, spans: List[Span],
               stages: Dict[str, float]) -> Optional[float]:
    """Largest relative gap between the journal's stage seconds of one
    statement and the benchmark's spans of the same statement."""
    inside = sorted(descendants(root, children_of(spans)),
                    key=lambda span: span.start)
    translate = [s for s in inside if s.name == "translator.translate"]

    def total(*names: str) -> float:
        return sum(s.seconds for s in inside if s.name in names)

    measured = {
        "translator": translate[0].seconds if translate else 0.0,
        "preprocessor": total("preprocessor.run")
        + sum(s.seconds for s in translate[1:]),
        "core": total("core.load", "core.simple", "core.general"),
        "postprocessor": total("postprocessor.store", "postprocessor.decode",
                               "postprocessor.rules"),
    }
    gaps = [
        abs(seconds - measured.get(stage, 0.0))
        / max(seconds, measured.get(stage, 0.0))
        for stage, seconds in stages.items()
        if seconds >= SKEW_FLOOR * root.seconds
    ]
    return max(gaps) if gaps else None


def obs_overhead(workload, seed: int, size: str) -> Dict[str, Any]:
    """Statements under serve's always-on observability bundle against
    the defaults: two systems, each with its own database, alternating."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runlog import RunLog
    from repro.obs.slowlog import SlowQueryLog
    from repro.obs.spans import Tracer

    from benchmarks.suite.boundaries import Tracing

    registry = MetricsRegistry()
    journal = RunLog()
    plain = _context(workload, seed, size)
    observed = _context(
        workload, seed, size,
        tracer=Tracer(enabled=True, metrics=registry), metrics=registry,
        slowlog=SlowQueryLog(), runlog=journal,
    )
    base, bundled = _alternate(workload, plain, observed, PAIRS[size])
    base_s = statistics.median(s.stmt_s for s in base)
    bundled_s = statistics.median(s.stmt_s for s in bundled)

    tracing = Tracing()
    with tracing:
        workload.iteration(observed, len(bundled), 0)
    spans = tracing.recorder.spans
    root = next(s for s in spans if s.parent is None and s.name == "system.run")
    record = journal.list(limit=1)[0]
    return {
        "obs.enabled_overhead_frac": bundled_s / base_s - 1.0,
        "journal.stage_skew_frac":
            stage_skew(root, spans, record.get("stages", {})),
    }


def parallel_speedup(workload, seed: int, size: str) -> Dict[str, Any]:
    """The statement's core stage with ``workers=2`` against
    ``workers=1``.  The bitmap layout is pinned on both sides because
    ``workers > 1`` would otherwise switch it, which is what the PR6
    figure measured; reported as measured even if fork overhead wins."""
    db = Database()
    workload.load(db, seed, size)
    core_s: Dict[int, float] = {}
    for workers in (1, 2):
        ctx = _context(workload, seed, size, db, workers=workers,
                       representation="packed")
        statement = workload.statement_for(size)
        seconds = []
        for index in range(PAIRS[size]):
            confidence = workloads.QUEST_ROTATION[
                index % len(workloads.QUEST_ROTATION)]
            result = ctx.system.run(statement.text(confidence))
            seconds.append(result.timings["core"])
        core_s[workers] = statistics.median(seconds)
    return {
        "parallel.w2_core_s": core_s[2],
        "parallel.w2_speedup": core_s[1] / core_s[2],
        "parallel.cpus": len(os.sched_getaffinity(0)),
    }


PROBES: Dict[str, List[Callable[..., Dict[str, Any]]]] = {
    "retail_cold": [obs_overhead],
    "quest_core_reuse": [obs_overhead, parallel_speedup],
}


def run_probes(workload, seed: int, size: str) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    missing: List[str] = []
    for probe in PROBES.get(workload.name, []):
        try:
            metrics.update(probe(workload, seed, size))
        except (ImportError, AttributeError, TypeError) as exc:
            missing.append(f"{probe.__name__} ({type(exc).__name__}: {exc})")
    return {"metrics": metrics, "missing": missing}

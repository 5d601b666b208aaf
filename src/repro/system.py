"""The mining system facade.

:class:`MiningSystem` wires the kernel components of Figure 3a into the
process flow the paper describes: the user submits a MINE RULE
statement; the translator validates/classifies it and emits SQL
programs; the preprocessor runs them on the SQL server; the core
operator mines encoded rules; the postprocessor stores and decodes the
output relations.  The result object carries everything an application
(or the paper's AMORE user support) needs: decoded rules, the output
table names, the directive vector, per-phase timings and the process
trace.

It also implements the preprocessing-reuse optimisation noted in
Section 3 ("the same preprocessing could be in common to the execution
of several data mining queries, thus saving its cost"): executions
whose FROM/GROUP/CLUSTER/encoding parts coincide share their encoded
tables.

Resilience (:mod:`repro.faults`): :meth:`MiningSystem.run` executes the
same pipeline with per-stage retry (:class:`~repro.faults.RetryPolicy`,
capped exponential backoff + wall-clock budget), stage checkpoints
(:class:`~repro.kernel.program.StageCheckpoint`) so ``run(resume=True)``
skips stages a crashed run already completed, and graceful degradation:
a persistently failing bitset core falls back to the ``"set"`` layout.
Every fault, retry, resumed stage and degradation is surfaced through
:class:`~repro.kernel.metrics.ResilienceStats`, the process-trace
counters and the text report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.algorithms import FrequentItemsetMiner, get_algorithm
from repro.algorithms.bitset import validate_representation
from repro.faults import FaultError, RetryPolicy
from repro.incremental import (
    MiningState,
    RefreshComputation,
    RefreshError,
    RefreshStats,
    SourceMutated,
    encode_for_emission,
    refresh_eligibility,
)
from repro.kernel.core.general import GeneralCoreOperator
from repro.kernel.metrics import CoreStats, ResilienceStats
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.core.rules import EncodedRule
from repro.kernel.core.simple import SimpleCoreOperator, build_rules
from repro.kernel.names import Workspace
from repro.kernel.postprocessor import DecodedRule, Postprocessor
from repro.kernel.preprocessor import Preprocessor, PreprocessStats
from repro.kernel.program import StageCheckpoint, TranslationProgram
from repro.kernel.trace import ProcessFlow
from repro.kernel.translator import Translator
from repro.minerule.parser import parse_refresh
from repro.minerule.statements import MineRuleStatement
from repro.obs import context as obs_context
from repro.obs import profile as obs_profile
from repro.obs.export import trace_events
from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    fallback_counter,
    publish_gauge,
)
from repro.obs.runlog import RunLog, statement_fingerprint
from repro.obs.spans import NULL_TRACER, Tracer
from repro.sqlengine.engine import Database
from repro.sqlengine.render import render_expr


class RunCancelled(Exception):
    """A run's ``cancel`` hook fired at a stage boundary.

    Raised by :meth:`MiningSystem.run` when the caller-supplied cancel
    callable returns True.  Cancellation is cooperative and only
    happens *between* pipeline stages, so the database is always left
    consistent: either a stage completed fully or it never started.
    A cancelled run keeps its crash checkpoint, so a later
    ``run(resume=True)`` of the same statement picks up where it
    stopped.  Cancellation is not a health failure — the jobs layer
    reports it as a distinct terminal state.
    """


@dataclass
class MiningResult:
    """Outcome of one MINE RULE execution."""

    statement: MineRuleStatement
    program: TranslationProgram
    encoded_rules: List[EncodedRule]
    rules: List[DecodedRule]
    preprocess_stats: Optional[PreprocessStats]
    flow: ProcessFlow
    #: True when encoded tables were reused from a previous execution
    preprocessing_reused: bool = False
    #: core-operator observability (lattice sizes, bitmap counters)
    core_stats: Optional[CoreStats] = None
    #: fault/retry/resume counters of this run
    resilience: Optional[ResilienceStats] = None
    #: 1-based execution number within this system (labels the run's
    #: end-of-run gauges so repeated runs don't overwrite each other)
    run_id: int = 0

    @property
    def directives(self):
        return self.program.directives

    @property
    def output_table(self) -> str:
        return self.statement.output_table

    @property
    def timings(self) -> Dict[str, float]:
        return self.flow.timings

    def __len__(self) -> int:
        return len(self.rules)

    def rule_set(self) -> set:
        """{(body frozenset, head frozenset, support, confidence)} with
        ratios rounded for robust comparisons."""
        return {
            (r.body, r.head, round(r.support, 9), round(r.confidence, 9))
            for r in self.rules
        }


@dataclass
class _RefreshEntry:
    """Per-output-table refresh bookkeeping: the owning statement, its
    translated program (workspace, postprocessing SQL, directives) and
    the mining state captured by the last refresh."""

    statement_text: str
    program: TranslationProgram
    state: Optional[MiningState] = None


@dataclass
class RefreshResult:
    """Outcome of one ``REFRESH RULES`` execution.

    Mirrors :class:`MiningResult` (rules, program, flow) plus the
    refresh-specific :class:`~repro.incremental.RefreshStats` — mode
    ``"incremental"`` when FUP delta maintenance ran, ``"full"`` when a
    forced full re-mine was executed instead (with ``stats.reason``
    saying why)."""

    statement: MineRuleStatement
    program: TranslationProgram
    encoded_rules: List[EncodedRule]
    rules: List[DecodedRule]
    flow: ProcessFlow
    stats: RefreshStats
    resilience: Optional[ResilienceStats] = None
    run_id: int = 0

    @property
    def directives(self):
        return self.program.directives

    @property
    def output_table(self) -> str:
        return self.statement.output_table

    @property
    def timings(self) -> Dict[str, float]:
        return self.flow.timings

    def __len__(self) -> int:
        return len(self.rules)

    def rule_set(self) -> set:
        """Same robust comparison form as :meth:`MiningResult.rule_set`."""
        return {
            (r.body, r.head, round(r.support, 9), round(r.confidence, 9))
            for r in self.rules
        }


class MiningSystem:
    """Tightly-coupled data mining on top of the SQL engine."""

    #: crash checkpoints kept around for ``run(resume=True)``
    _CHECKPOINT_CAP = 16

    def __init__(
        self,
        database: Optional[Database] = None,
        algorithm: Union[str, FrequentItemsetMiner] = "apriori",
        reuse_preprocessing: bool = True,
        representation: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        slowlog: Optional[Any] = None,
        health: Optional[Any] = None,
        runlog: Optional[RunLog] = None,
        batch_size: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ):
        self.db = database if database is not None else Database()
        #: engine executor tuning: vectorized batch width and the
        #: byte budget above which operators spill to disk (None keeps
        #: the engine defaults / unbounded memory)
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError(
                    f"batch_size must be positive, got {batch_size}"
                )
            self.db.options.batch_size = int(batch_size)
        if memory_budget is not None:
            if memory_budget < 1:
                raise ValueError(
                    f"memory_budget must be positive, got {memory_budget}"
                )
            self.db.options.memory_budget = int(memory_budget)
        #: observability sink for the whole pipeline (spans, counters,
        #: gauges); shared with the SQL engine so statement spans nest
        #: inside the component spans
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.db.tracer = self.tracer
        #: cross-run metrics registry; resolution order: explicit
        #: argument, then an enabled tracer's own registry, then the
        #: shared disabled one
        if metrics is not None:
            self.metrics = metrics
            if self.tracer.enabled:
                # never mutate the shared NULL_TRACER
                self.tracer.metrics = metrics
        elif self.tracer.enabled and self.tracer.metrics.enabled:
            self.metrics = self.tracer.metrics
        else:
            self.metrics = NULL_REGISTRY
        self.db.metrics = self.metrics
        #: slow-query log (:class:`repro.obs.slowlog.SlowQueryLog`);
        #: shared with the engine so per-statement entries land in it
        self.slowlog = slowlog
        self.db.slowlog = slowlog
        #: run-state tracker (:class:`repro.obs.httpd.HealthState`)
        #: behind a monitoring server's ``/healthz``
        self.health = health
        #: run-history journal (:class:`repro.obs.runlog.RunLog`); every
        #: completed run/refresh appends one record (trace ids, stage
        #: timings, resource totals, outcome) that survives restarts
        self.runlog = runlog
        #: None means "pick for me": the pool algorithms use the big-int
        #: "bitset" layout, the general core picks per run from the
        #: density it measured.  An explicit value wins everywhere.
        self._explicit_representation = representation is not None
        self.representation = validate_representation(
            representation if representation is not None else "bitset"
        )
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        if (
            self.representation != "bitset"
            and hasattr(algorithm, "representation")
        ):
            # gid-list pool members honour the switch; vertical-only
            # members (eclat) and horizontal ones (dhp, exhaustive)
            # have no set/bitset distinction to toggle
            algorithm.representation = self.representation
        self.algorithm = algorithm
        self.reuse_preprocessing = reuse_preprocessing
        #: default retry policy for :meth:`run` (None: single attempt)
        self.retry_policy = retry_policy
        self._translator = Translator(self.db)
        self._preprocessor = Preprocessor(self.db)
        self._postprocessor = Postprocessor(self.db)
        self._executions = 0
        #: preprocessing signature -> (workspace, totg, mingroups)
        self._preprocess_cache: Dict[tuple, Tuple[Workspace, int, int]] = {}
        #: normalized statement text -> checkpoint of a crashed run
        self._checkpoints: Dict[str, StageCheckpoint] = {}
        #: lowercased output table -> refresh bookkeeping of the last
        #: successful MINE RULE run producing it (REFRESH RULES target)
        self._refresh_registry: Dict[str, _RefreshEntry] = {}
        #: serializes whole MINE RULE runs: the pipeline mutates shared
        #: system state (_executions, reuse cache, checkpoints, host
        #: variables, algorithm.representation), so concurrent job
        #: workers take this and the engine's write lock for the whole
        #: run — making every run bit-identical to serial execution
        #: while plain SELECT jobs still share the engine's read side
        self._run_lock = threading.RLock()

    # ------------------------------------------------------------------

    def execute(self, statement_text: str) -> MiningResult:
        """Run one MINE RULE statement end to end (no resume/retry)."""
        return self.run(statement_text)

    def run(
        self,
        statement_text: str,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> MiningResult:
        """Run one MINE RULE statement end to end.

        ``retry`` (or the system-wide :attr:`retry_policy`) re-attempts
        stages that fail with an injected :class:`FaultError`, with
        capped exponential backoff.  ``resume=True`` consults the
        checkpoint a previously crashed run of the *same statement
        text* left behind and skips its completed stages — provided the
        checkpoint's recorded encoded tables are still intact; a stale
        checkpoint is discarded and the run starts from scratch.

        ``cancel`` is a zero-argument callable polled at every stage
        boundary; once it returns True the run raises
        :class:`RunCancelled` (a cooperative cancel, so the database
        stays consistent — see the exception's docstring).
        """
        policy = retry if retry is not None else self.retry_policy
        if policy is None:
            policy = RetryPolicy.single()
        tracer = self.tracer
        metrics = self.metrics
        health = self.health
        observed = (
            tracer.enabled
            or metrics.enabled
            or self.slowlog is not None
            or health is not None
            or self.runlog is not None
        )
        if not observed:
            return self._run_pipeline(statement_text, resume, policy, cancel)

        compact = " ".join(statement_text.split())
        if health is not None:
            health.begin()
        status = "error"
        error_text: Optional[str] = None
        result: Optional[MiningResult] = None
        started = time.perf_counter()
        with obs_context.ensure() as ctx:
            cpu_start = obs_profile.cpu_seconds()
            mem_start = obs_profile.memory_sample()
            try:
                if tracer.enabled:
                    with tracer.span(
                        "minerule.run",
                        category="minerule",
                        statement=compact[:120],
                        run=self._executions + 1,
                    ):
                        result = self._run_pipeline(
                            statement_text, resume, policy, cancel
                        )
                else:
                    result = self._run_pipeline(
                        statement_text, resume, policy, cancel
                    )
                ctx.run_id = result.run_id
                status = "ok"
            except RunCancelled as exc:
                # Not a failure: the caller asked the run to stop.  The
                # health endpoint must not flip to 503 over it.
                status = "cancelled"
                error_text = str(exc)
                if health is not None:
                    health.success()
                raise
            except Exception as exc:
                error_text = f"{type(exc).__name__}: {exc}"
                if health is not None:
                    health.failure(exc)
                raise
            finally:
                elapsed = time.perf_counter() - started
                if metrics.enabled:
                    metrics.histogram(
                        "repro_minerule_run_seconds",
                        "End-to-end MINE RULE run latency",
                    ).observe(elapsed)
                    metrics.counter(
                        "repro_minerule_runs_total",
                        "MINE RULE runs by outcome",
                        ("status",),
                    ).inc(status=status)
                if self.slowlog is not None:
                    self.slowlog.record(
                        "minerule.run", elapsed, detail=compact
                    )
                if self.runlog is not None:
                    self._record_run(
                        ctx,
                        kind="mine",
                        statement=compact,
                        status=status,
                        error=error_text,
                        elapsed=elapsed,
                        cpu_seconds=obs_profile.cpu_seconds() - cpu_start,
                        peak_bytes=obs_profile.peak_bytes_since(mem_start),
                        rules=None if result is None else len(result.rules),
                        stages=None if result is None else result.flow.timings,
                    )
        if health is not None:
            health.success()
        self._publish_observations(result)
        return result

    def _record_run(
        self,
        ctx: obs_context.TraceContext,
        kind: str,
        statement: str,
        status: str,
        error: Optional[str],
        elapsed: float,
        cpu_seconds: Optional[float] = None,
        peak_bytes: Optional[int] = None,
        rules: Optional[int] = None,
        stages: Optional[Dict[str, float]] = None,
        refresh: Optional[Dict[str, Any]] = None,
        **extra: Any,
    ) -> None:
        """Append one completed run/refresh to the run-history journal
        (*refresh*: the ``RefreshStats.as_args()`` of a refresh)."""
        record: Dict[str, Any] = {
            "id": ctx.trace_id,
            "kind": kind,
            "trace_id": ctx.trace_id,
            "statement": statement[:200],
            "fingerprint": statement_fingerprint(statement),
            "status": status,
            "seconds": round(elapsed, 6),
        }
        if ctx.job_id is not None:
            record["job_id"] = ctx.job_id
        if ctx.run_id is not None:
            record["run_id"] = ctx.run_id
        if error:
            record["error"] = error
        if cpu_seconds is not None:
            record["cpu_seconds"] = round(cpu_seconds, 6)
        if peak_bytes is not None and peak_bytes > 0:
            record["peak_bytes"] = int(peak_bytes)
        if rules is not None:
            record["rules"] = rules
        if stages:
            record["stages"] = {
                name: round(seconds, 6) for name, seconds in stages.items()
            }
        if refresh is not None:
            record["refresh"] = refresh
        record.update(extra)
        if self.tracer.enabled:
            # persist the run's own slice of the trace so GET
            # /runs/<id>/trace works long after the tracer moved on
            record["trace"] = trace_events(
                self.tracer, trace_id=ctx.trace_id
            )
        self.runlog.record(**record)

    def _run_pipeline(
        self,
        statement_text: str,
        resume: bool,
        policy: RetryPolicy,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> MiningResult:
        # One run at a time: the run lock serializes concurrent job
        # workers, and the engine's write lock keeps every SQL job
        # (even read-only scans) out of the pipeline's way while the
        # encoded tables are in flux.
        with self._run_lock, self.db.rwlock.write_locked():
            return self._run_pipeline_locked(
                statement_text, resume, policy, cancel
            )

    @staticmethod
    def _check_cancel(cancel: Optional[Callable[[], bool]],
                      stage: str) -> None:
        if cancel is not None and cancel():
            raise RunCancelled(f"run cancelled before {stage}")

    def _run_pipeline_locked(
        self,
        statement_text: str,
        resume: bool,
        policy: RetryPolicy,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> MiningResult:
        self._check_cancel(cancel, "translator")
        flow = ProcessFlow(tracer=self.tracer)
        resilience = ResilienceStats()
        schedule = faults.active()
        fault_mark = schedule.snapshot() if schedule is not None else None
        self._executions += 1

        key = " ".join(statement_text.split())
        checkpoint = self._checkpoints.get(key) if resume else None
        if checkpoint is not None and not self._checkpoint_valid(checkpoint):
            flow.event(
                "translator",
                "checkpoint discarded",
                "recorded encoded tables are gone or changed; "
                "restarting from scratch",
            )
            # The restarted run mints a fresh workspace prefix, so the
            # discarded checkpoint's partial tables would never be swept
            # by _drop_partial_tables — orphan-sweep its prefix here
            # (and evict reuse-cache entries pointing at it, which
            # would otherwise hand out just-dropped encoded tables).
            self._sweep_workspace(Workspace(checkpoint.workspace_prefix))
            flow.event(
                "translator",
                "swept orphaned workspace",
                checkpoint.workspace_prefix,
            )
            self._checkpoints.pop(key, None)
            checkpoint = None
        resumed = checkpoint is not None

        def on_retry(stage: str, attempt: int, exc: Exception,
                     delay: float) -> None:
            resilience.retries += 1
            flow.bump("retries")
            flow.event(
                stage.split(".", 1)[0],
                "retry",
                f"{stage} attempt {attempt} failed ({exc}); "
                f"backing off {delay * 1000:.1f} ms",
            )

        # -- translator -------------------------------------------------
        flow.start("translator")
        flow.event("translator", "received statement")
        workspace = (
            Workspace(checkpoint.workspace_prefix)
            if checkpoint is not None
            else Workspace(f"MR{self._executions}")
        )
        program = self._translator.translate(statement_text, workspace)
        flow.event(
            "translator",
            "validated and classified",
            f"directives {program.directives}",
        )
        flow.stop()

        if checkpoint is None:
            checkpoint = StageCheckpoint(
                statement_text=key, workspace_prefix=workspace.prefix
            )

        try:
            self._check_cancel(cancel, "preprocessor")
            program, stats, reused = self._preprocess_stage(
                program, statement_text, flow, checkpoint, policy,
                resilience, resumed, on_retry,
            )
            self._check_cancel(cancel, "core")
            encoded_rules, core_stats = self._core_stage(
                program, flow, checkpoint, policy, resilience, on_retry
            )
            self._check_cancel(cancel, "postprocessor")
            decoded = self._postprocess_stage(
                program, encoded_rules, flow, checkpoint, policy,
                resilience, on_retry,
            )
        except Exception:
            # Keep the checkpoint: a later run(resume=True) of the same
            # statement picks up right after the last completed stage.
            self._remember_checkpoint(key, checkpoint)
            raise
        self._checkpoints.pop(key, None)

        if schedule is not None and fault_mark is not None:
            errors, latencies, degradations = schedule.snapshot()
            resilience.faults_injected += errors - fault_mark[0]
            resilience.latencies_injected += latencies - fault_mark[1]
            resilience.degraded.extend(
                schedule.degradations[fault_mark[2]:]
            )
        flow.bump("faults", resilience.faults_injected)
        flow.bump("latency_faults", resilience.latencies_injected)
        flow.bump("stages_resumed", resilience.stages_resumed)
        flow.bump("degradations", resilience.degradations)
        if resilience.any():
            flow.event("postprocessor", "resilience", resilience.describe())

        # Register the run as a REFRESH RULES target.  The state is
        # captured lazily by the first refresh (which then costs a full
        # pairs pass but still emits bit-identically); a re-run resets
        # it because the old snapshot no longer matches what the rule
        # tables reflect.
        self._refresh_registry[
            program.statement.output_table.lower()
        ] = _RefreshEntry(statement_text=key, program=program)

        return MiningResult(
            statement=program.statement,
            program=program,
            encoded_rules=encoded_rules,
            rules=decoded,
            preprocess_stats=stats,
            flow=flow,
            preprocessing_reused=reused,
            core_stats=core_stats,
            resilience=resilience,
            run_id=self._executions,
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------

    def _preprocess_stage(
        self,
        program: TranslationProgram,
        statement_text: str,
        flow: ProcessFlow,
        checkpoint: StageCheckpoint,
        policy: RetryPolicy,
        resilience: ResilienceStats,
        resumed: bool,
        on_retry,
    ) -> Tuple[TranslationProgram, Optional[PreprocessStats], bool]:
        flow.start("preprocessor")
        stats: Optional[PreprocessStats] = None
        reused = False

        if resumed and checkpoint.preprocessing_reused:
            # The crashed run had satisfied preprocessing from the
            # Section-3 reuse cache; its encoded tables still live in
            # the shared workspace the checkpoint points at.
            self.db.variables.update(checkpoint.host_variables)
            reused = True
            flow.event(
                "preprocessor",
                "reused encoded tables",
                f"workspace {program.workspace.prefix} "
                f"(Section 3 optimisation)",
            )
            resilience.stages_resumed += 1
            if not checkpoint.stored:
                self._drop_output_tables(program)
            flow.stop()
            return program, None, True

        if resumed:
            # Partial artifacts of the crashed query (tables it started
            # but never completed) are dropped so re-running it starts
            # from a clean slate.
            self._drop_partial_tables(checkpoint, program.workspace)
            stats = self._preprocessor.run(
                program, flow, checkpoint=checkpoint, policy=policy
            )
            resilience.stages_resumed += stats.queries_skipped
            resilience.retries += stats.retries
        else:
            signature = self._preprocess_signature(program)
            cached = (
                self._preprocess_cache.get(signature)
                if self.reuse_preprocessing
                else None
            )
            if cached is not None:
                cached_workspace, totg, mingroups = cached
                # Re-target the program onto the cached workspace.
                program = self._translator.translate(
                    statement_text, cached_workspace
                )
                self.db.variables["totg"] = totg
                self.db.variables["mingroups"] = mingroups
                reused = True
                checkpoint.preprocessing_reused = True
                checkpoint.workspace_prefix = cached_workspace.prefix
                checkpoint.host_variables = {
                    "totg": totg, "mingroups": mingroups
                }
                flow.event(
                    "preprocessor",
                    "reused encoded tables",
                    f"workspace {cached_workspace.prefix} "
                    f"(Section 3 optimisation)",
                )
                # The output tables of *this* statement must be fresh.
                self._drop_output_tables(program)
            else:
                stats = self._preprocessor.run(
                    program, flow, checkpoint=checkpoint, policy=policy
                )
                resilience.retries += stats.retries
        if stats is not None and self.reuse_preprocessing:
            self._preprocess_cache[self._preprocess_signature(program)] = (
                program.workspace,
                stats.totg,
                stats.mingroups,
            )
        flow.stop()
        return program, stats, reused

    def _core_stage(
        self,
        program: TranslationProgram,
        flow: ProcessFlow,
        checkpoint: StageCheckpoint,
        policy: RetryPolicy,
        resilience: ResilienceStats,
        on_retry,
    ) -> Tuple[List[EncodedRule], Optional[CoreStats]]:
        flow.start("core")
        if checkpoint.encoded_rules is not None:
            encoded_rules = checkpoint.encoded_rules
            core_stats = checkpoint.core_stats
            resilience.stages_resumed += 1
            flow.event(
                "core",
                "skipped (resume)",
                f"{len(encoded_rules)} rules from checkpoint",
            )
        else:
            representation = self.representation
            try:
                encoded_rules, core_stats = policy.execute(
                    lambda: self._mine_once(program, flow, representation),
                    stage="core",
                    on_retry=on_retry,
                )
            except FaultError as exc:
                if representation == "set" or exc.site != "core.bitset":
                    raise
                # Graceful degradation: the bitset machinery keeps
                # failing after retries — fall back to the "set" layout
                # (identical rules, slower counting).
                representation = "set"
                resilience.degraded.append(f"core: bitset -> set ({exc})")
                fallback_counter(self.metrics).inc(
                    site="core.bitset", reason="fault"
                )
                self.tracer.annotate(core_fallback=str(exc))
                flow.event(
                    "core",
                    "degraded",
                    "bitset representation failed; retrying with the "
                    "set layout",
                )
                encoded_rules, core_stats = policy.execute(
                    lambda: self._mine_once(program, flow, representation),
                    stage="core",
                    on_retry=on_retry,
                )
            checkpoint.encoded_rules = encoded_rules
            checkpoint.core_stats = core_stats
        flow.event("core", "extracted rules", f"{len(encoded_rules)} rules")
        if core_stats is not None:
            flow.event("core", "observability", core_stats.describe())
        flow.stop()
        return encoded_rules, core_stats

    def _mine_once(
        self,
        program: TranslationProgram,
        flow: ProcessFlow,
        representation: str,
    ) -> Tuple[List[EncodedRule], CoreStats]:
        faults.check("core.load")
        loader = CoreInputLoader(self.db, program.core)
        if program.core.simple:
            data, _ = loader.load_simple_columns()
            if representation == "bitset":
                faults.check("core.bitset")
            algorithm = self.algorithm
            restore = None
            if (
                representation != "bitset"
                and getattr(algorithm, "representation", None) == "bitset"
            ):
                restore = algorithm.representation
                algorithm.representation = "set"
            try:
                encoded_rules = SimpleCoreOperator(algorithm).run(
                    data, program.core
                )
                core_stats = CoreStats.from_simple(algorithm)
            finally:
                if restore is not None:
                    algorithm.representation = restore
            # after the run: "auto" knows its member only then
            flow.event(
                "core",
                "simple core processing",
                f"algorithm {core_stats.algorithm}, "
                f"{len(data.groups)} encoded groups",
            )
            self.tracer.annotate(algorithm=core_stats.algorithm)
            return encoded_rules, core_stats

        general_data = loader.load_general()
        if representation == "bitset":
            faults.check("core.bitset")
        general = GeneralCoreOperator(
            representation=self._forced_layout(representation)
        )
        flow.event(
            "core",
            "general core processing",
            "elementary rules from InputRules"
            if general_data.elementary is not None
            else "elementary rules derived from CodedSource",
        )
        encoded_rules = general.run(general_data, program.core)
        return encoded_rules, CoreStats.from_general(general)

    def _forced_layout(self, representation: str) -> Optional[str]:
        """What the general core is told about its support layout: an
        explicit ``representation=`` and the ``core.bitset`` degrade
        path (``"set"``) force one, otherwise it measures."""
        if self._explicit_representation or representation == "set":
            return representation
        return None

    def _postprocess_stage(
        self,
        program: TranslationProgram,
        encoded_rules: List[EncodedRule],
        flow: ProcessFlow,
        checkpoint: StageCheckpoint,
        policy: RetryPolicy,
        resilience: ResilienceStats,
        on_retry,
    ) -> List[DecodedRule]:
        out = program.statement.output_table
        flow.start("postprocessor")
        if checkpoint.stored and self.db.catalog.has_table(out):
            resilience.stages_resumed += 1
            flow.event("postprocessor", "skipped store (resume)", out)
        else:
            policy.execute(
                lambda: self._postprocessor.store_encoded_rules(
                    program, encoded_rules
                ),
                stage="postprocessor.store",
                on_retry=on_retry,
            )
            checkpoint.stored = True
            # The stored tables join the checkpoint snapshot so a
            # later resume neither sweeps them away as partial
            # artifacts nor trusts them if they changed underneath.
            for table in (program.workspace.output_bodies,
                          program.workspace.output_heads):
                if self.db.catalog.has_table(table):
                    checkpoint.table_snapshot[table] = len(
                        self.db.catalog.get_table(table)
                    )
        if checkpoint.decoded and self.db.catalog.has_table(f"{out}_Display"):
            resilience.stages_resumed += 1
            flow.event(
                "postprocessor", "skipped decode (resume)", f"{out}_Display"
            )
        else:
            policy.execute(
                lambda: self._postprocessor.decode(program),
                stage="postprocessor.decode",
                on_retry=on_retry,
            )
            checkpoint.decoded = True
        decoded = policy.execute(
            lambda: self._postprocessor.decoded_rules(
                program, encoded_rules
            ),
            stage="postprocessor.decode",
            on_retry=on_retry,
        )
        flow.event(
            "postprocessor",
            "stored output relations",
            f"{out}, {out}_Bodies, {out}_Heads",
        )
        flow.stop()
        return decoded

    # ------------------------------------------------------------------
    # REFRESH RULES (FUP-style incremental maintenance)
    # ------------------------------------------------------------------

    def refresh(
        self,
        target: str,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> RefreshResult:
        """Bring a previously mined rule table up to date with rows
        appended to its source (``REFRESH RULES <output_table>``).

        *target* is either the bare output table name or the full
        ``REFRESH RULES <name>`` statement text.  The refreshed output
        tables are bit-identical to a from-scratch run of the owning
        statement on the current source.  When the statement is not
        eligible for delta maintenance, when no state has been captured
        yet the work degrades gracefully (state capture / forced full
        re-mine — see :mod:`repro.incremental`); when the source was
        mutated in place (not append-only) a full re-mine is forced.
        """
        policy = retry if retry is not None else self.retry_policy
        if policy is None:
            policy = RetryPolicy.single()
        text = target.strip()
        # Statement text, not a bare table name whose identifier merely
        # starts with "refresh": the keyword is a whole first word.
        first_word = text.split(None, 1)[0].upper() if text else ""
        if first_word == "REFRESH":
            name = parse_refresh(text).output_table
        else:
            name = text

        tracer = self.tracer
        metrics = self.metrics
        health = self.health
        if health is not None:
            health.begin()
        status = "error"
        mode = "unknown"
        error_text: Optional[str] = None
        result: Optional[RefreshResult] = None
        started = time.perf_counter()
        with obs_context.ensure() as ctx:
            cpu_start = obs_profile.cpu_seconds()
            mem_start = obs_profile.memory_sample()
            try:
                if tracer.enabled:
                    with tracer.span(
                        "minerule.refresh", category="minerule", output=name
                    ):
                        result = self._refresh_pipeline(
                            name, resume, policy, cancel
                        )
                else:
                    result = self._refresh_pipeline(
                        name, resume, policy, cancel
                    )
                ctx.run_id = result.run_id
                status = "ok"
                mode = result.stats.mode
            except RunCancelled as exc:
                status = "cancelled"
                error_text = str(exc)
                if health is not None:
                    health.success()
                raise
            except Exception as exc:
                error_text = f"{type(exc).__name__}: {exc}"
                if health is not None:
                    health.failure(exc)
                raise
            finally:
                elapsed = time.perf_counter() - started
                if metrics.enabled:
                    metrics.histogram(
                        "repro_refresh_seconds",
                        "End-to-end REFRESH RULES latency",
                    ).observe(elapsed)
                    metrics.counter(
                        "repro_refresh_total",
                        "REFRESH RULES runs by outcome and mode",
                        ("status", "mode"),
                    ).inc(status=status, mode=mode)
                if self.slowlog is not None:
                    self.slowlog.record(
                        "minerule.refresh",
                        elapsed,
                        detail=f"REFRESH RULES {name}",
                    )
                if self.runlog is not None:
                    self._record_run(
                        ctx,
                        kind="refresh",
                        statement=f"REFRESH RULES {name}",
                        status=status,
                        error=error_text,
                        elapsed=elapsed,
                        cpu_seconds=obs_profile.cpu_seconds() - cpu_start,
                        peak_bytes=obs_profile.peak_bytes_since(mem_start),
                        rules=None if result is None else len(result.rules),
                        stages=(
                            None if result is None else result.flow.timings
                        ),
                        mode=mode,
                        refresh=(
                            None if result is None
                            else result.stats.as_args()
                        ),
                    )
        if health is not None:
            health.success()
        return result

    def _refresh_pipeline(
        self,
        name: str,
        resume: bool,
        policy: RetryPolicy,
        cancel: Optional[Callable[[], bool]],
    ) -> RefreshResult:
        # Same serialization as a full run: refresh rewrites Bset and
        # the output tables, so it owns the engine exclusively.
        with self._run_lock, self.db.rwlock.write_locked():
            return self._refresh_locked(name, resume, policy, cancel)

    def _refresh_locked(
        self,
        name: str,
        resume: bool,
        policy: RetryPolicy,
        cancel: Optional[Callable[[], bool]],
    ) -> RefreshResult:
        entry = self._refresh_registry.get(name.lower())
        if entry is None:
            raise RefreshError(
                f"no MINE RULE run recorded for output table {name!r}; "
                f"run the statement once before REFRESH RULES"
            )
        flow = ProcessFlow(tracer=self.tracer)
        resilience = ResilienceStats()
        reason = refresh_eligibility(entry.program)
        if reason is not None:
            return self._refresh_full(
                entry, reason, flow, resume, policy, cancel
            )

        def on_retry(stage: str, attempt: int, exc: Exception,
                     delay: float) -> None:
            resilience.retries += 1
            flow.bump("retries")
            flow.event(
                "core",
                "retry",
                f"{stage} attempt {attempt} failed ({exc}); "
                f"backing off {delay * 1000:.1f} ms",
            )

        computation = RefreshComputation(
            self.db, entry.program.statement, entry.state,
            entry.program.workspace,
        )

        def phase(site: str, fn):
            def attempt():
                faults.check(site)
                return fn()

            if self.tracer.enabled:
                with self.tracer.span(site, category="refresh"):
                    return policy.execute(attempt, stage=site,
                                          on_retry=on_retry)
            return policy.execute(attempt, stage=site, on_retry=on_retry)

        self._check_cancel(cancel, "refresh.delta")
        flow.start("core")
        flow.event(
            "core",
            "refresh delta",
            "capturing mining state from the source"
            if entry.state is None
            else f"reading the source past row {entry.state.row_count}",
        )
        try:
            # delta() is idempotent (it extends the state's universes
            # only past the sizes the state committed), so an injected
            # fault at the site simply re-runs the whole phase on retry
            phase("refresh.delta", computation.delta)
        except SourceMutated as exc:
            flow.stop()
            return self._refresh_full(
                entry, str(exc), flow, resume, policy, cancel
            )
        stats = computation.stats
        flow.event(
            "core",
            "delta applied",
            f"{stats.delta_rows} rows, {stats.delta_pairs} new pairs, "
            f"{stats.new_items} new items, {stats.new_groups} new groups, "
            f"{stats.known_itemsets} known counts delta-adjusted",
        )
        self._check_cancel(cancel, "refresh.recount")
        state = phase("refresh.recount", computation.recount)
        flow.event(
            "core",
            "refresh recount",
            f"{stats.frequent_itemsets} frequent + "
            f"{stats.border_itemsets} border itemsets "
            f"({stats.recounted_itemsets} full-bitmap recounts)",
        )
        flow.stop()
        # Commit the state before emission: a crash while emitting
        # leaves a committed state whose re-refresh sees an empty delta
        # and re-emits identical tables.
        entry.state = state

        self._check_cancel(cancel, "postprocessor")
        decoded, encoded_rules = self._refresh_emit(
            entry, state, flow, policy, on_retry
        )
        stats.rules = len(encoded_rules)
        if self.tracer.enabled:
            self.tracer.instant(
                "refresh.stats", category="refresh", **stats.as_args()
            )
        # The reuse cache's encoded tables predate the append; drop the
        # cache (not the tables — the refreshed Bset lives among them)
        # so a later full run re-preprocesses against current data.
        self.invalidate_preprocessing()
        self._executions += 1
        return RefreshResult(
            statement=entry.program.statement,
            program=entry.program,
            encoded_rules=encoded_rules,
            rules=decoded,
            flow=flow,
            stats=stats,
            resilience=resilience,
            run_id=self._executions,
        )

    def _refresh_emit(
        self,
        entry: _RefreshEntry,
        state: MiningState,
        flow: ProcessFlow,
        policy: RetryPolicy,
        on_retry,
    ) -> Tuple[List[DecodedRule], List[EncodedRule]]:
        """Rebuild Bset from the refreshed state and emit through the
        serial postprocessor — the exact store/decode path of a full
        run, so outputs are bit-identical by construction."""
        program = entry.program
        names = program.workspace
        bset_rows, counts_by_bid = encode_for_emission(state)
        columns = program.schemas.get(names.bset)
        types = None
        if self.db.catalog.has_table(names.bset):
            table = self.db.catalog.get_table(names.bset)
            if columns is None:
                columns = list(table.columns)
            types = list(table.types)
        self.db.create_table_from_rows(
            names.bset, columns, bset_rows, types=types, replace=True
        )
        encoded_rules = build_rules(counts_by_bid, state.totg, program.core)
        flow.start("postprocessor")
        policy.execute(
            lambda: self._postprocessor.store_encoded_rules(
                program, encoded_rules
            ),
            stage="postprocessor.store",
            on_retry=on_retry,
        )
        policy.execute(
            lambda: self._postprocessor.decode(program),
            stage="postprocessor.decode",
            on_retry=on_retry,
        )
        decoded = policy.execute(
            lambda: self._postprocessor.decoded_rules(program, encoded_rules),
            stage="postprocessor.decode",
            on_retry=on_retry,
        )
        out = program.statement.output_table
        flow.event(
            "postprocessor",
            "stored refreshed relations",
            f"{out}, {out}_Bodies, {out}_Heads ({len(encoded_rules)} rules)",
        )
        flow.stop()
        return decoded, encoded_rules

    def _refresh_full(
        self,
        entry: _RefreshEntry,
        reason: str,
        flow: ProcessFlow,
        resume: bool,
        policy: RetryPolicy,
        cancel: Optional[Callable[[], bool]],
    ) -> RefreshResult:
        """Forced full re-mine of the recorded statement (ineligible
        statement or mutated source); re-registers and re-captures."""
        flow.event("core", "forced full re-mine", reason)
        if self.tracer.enabled:
            self.tracer.instant(
                "refresh.full", category="refresh", reason=reason
            )
        self.invalidate_preprocessing()
        result = self._run_pipeline_locked(
            entry.statement_text, resume, policy, cancel
        )
        stats = RefreshStats(mode="full", reason=reason,
                             rules=len(result.rules))
        return RefreshResult(
            statement=result.statement,
            program=result.program,
            encoded_rules=result.encoded_rules,
            rules=result.rules,
            flow=result.flow,
            stats=stats,
            resilience=result.resilience,
            run_id=result.run_id,
        )

    def _publish_observations(self, result: MiningResult) -> None:
        """Push end-of-run statistics into the tracer registry and the
        metrics registry so the trace export, the consolidated report
        and a monitoring scrape see one snapshot.

        Gauges are labeled with the run id — without the label,
        repeated runs in one session silently overwrite each other's
        values (last-writer-wins) and the trace export lies about every
        run but the final one.
        """
        tracer = self.tracer
        metrics = self.metrics
        run = result.run_id
        cache = self.db.cache_stats

        def pub(name: str, value: Any) -> None:
            publish_gauge(tracer, metrics, name, value, run=run)

        pub("engine.statements_executed", self.db.statements_executed)
        pub("engine.statement_cache_hits", cache.statement_hits)
        pub("engine.statement_cache_misses", cache.statement_misses)
        pub("engine.plan_cache_hits", cache.plan_hits)
        pub("engine.plan_cache_misses", cache.plan_misses)
        pub("rules.decoded", len(result.rules))
        stats = result.preprocess_stats
        if stats is not None:
            pub("preprocessor.totg", stats.totg)
            pub("preprocessor.mingroups", stats.mingroups)
        core = result.core_stats
        if core is not None:
            core.publish(tracer, metrics, run=run)
        # resilience counters stay local to the ProcessFlow during the
        # run; forward them exactly once here (the tracer mirrors them
        # into the metrics registry)
        for counter, amount in result.flow.counters.items():
            if tracer.enabled:
                tracer.bump(counter, amount)
            else:
                metrics.trace_counter(counter, amount)
        if metrics.enabled:
            component_seconds = metrics.histogram(
                "repro_component_seconds",
                "Wall seconds per pipeline component per run",
                ("component",),
            )
            for component, seconds in result.flow.timings.items():
                component_seconds.observe(seconds, component=component)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def _checkpoint_valid(self, checkpoint: StageCheckpoint) -> bool:
        """A checkpoint resumes only if every encoded table it recorded
        still exists with exactly the recorded row count."""
        if checkpoint.preprocessing_reused:
            return True
        for table, rows in checkpoint.table_snapshot.items():
            if not self.db.catalog.has_table(table):
                return False
            if len(self.db.catalog.get_table(table)) != rows:
                return False
        return True

    def _drop_partial_tables(
        self, checkpoint: StageCheckpoint, workspace: Workspace
    ) -> None:
        for table in workspace.all_tables():
            if table not in checkpoint.table_snapshot:
                self.db.catalog.drop_table(table, if_exists=True)

    def _sweep_workspace(self, workspace: Workspace) -> None:
        """Drop every working object of *workspace* and evict reuse
        cache entries pointing at it (orphaned-prefix cleanup)."""
        for view in workspace.all_views():
            self.db.catalog.drop_view(view, if_exists=True)
        for table in workspace.all_tables():
            self.db.catalog.drop_table(table, if_exists=True)
        for sequence in workspace.all_sequences():
            self.db.catalog.drop_sequence(sequence, if_exists=True)
        self._preprocess_cache = {
            signature: entry
            for signature, entry in self._preprocess_cache.items()
            if entry[0].prefix != workspace.prefix
        }

    def _remember_checkpoint(
        self, key: str, checkpoint: StageCheckpoint
    ) -> None:
        self._checkpoints[key] = checkpoint
        while len(self._checkpoints) > self._CHECKPOINT_CAP:
            self._checkpoints.pop(next(iter(self._checkpoints)))

    def checkpoint_for(self, statement_text: str) -> Optional[StageCheckpoint]:
        """The crash checkpoint of *statement_text*, if one exists
        (test/CLI observability)."""
        return self._checkpoints.get(" ".join(statement_text.split()))

    # ------------------------------------------------------------------

    def compute_metrics(self, result: MiningResult, store: bool = True):
        """Extended rule-quality measures (lift, leverage, conviction)
        for a just-executed result; optionally persisted as
        ``<out>_Metrics``.  Requires the result's encoded tables to
        still be in the database (i.e. call right after execute)."""
        from repro.kernel.metrics import compute_metrics, store_metrics

        metrics = compute_metrics(self.db, result.program,
                                  result.encoded_rules)
        if store:
            store_metrics(self.db, result.program, metrics)
        return metrics

    def invalidate_preprocessing(self, drop_tables: bool = False) -> None:
        """Drop the preprocessing-reuse cache (call after updating the
        source tables).  With ``drop_tables`` the cached encoded tables
        are also removed from the database, bounding memory across
        long sessions."""
        if drop_tables:
            for workspace, _, _ in self._preprocess_cache.values():
                for view in workspace.all_views():
                    self.db.catalog.drop_view(view, if_exists=True)
                for table in workspace.all_tables():
                    self.db.catalog.drop_table(table, if_exists=True)
                for sequence in workspace.all_sequences():
                    self.db.catalog.drop_sequence(sequence, if_exists=True)
        self._preprocess_cache.clear()
        self._checkpoints.clear()

    def _preprocess_signature(self, program: TranslationProgram) -> tuple:
        """Statements share encoded tables iff this signature matches:
        all parts that affect queries Q0..Q11 (including the support
        threshold, which parameterizes the Bset/Hset encoding)."""
        statement = program.statement

        def render(expr) -> str:
            return "" if expr is None else render_expr(expr)

        return (
            tuple((t.name.lower(), t.alias) for t in statement.from_list),
            render(statement.source_condition),
            tuple(a.lower() for a in statement.group_attributes),
            render(statement.group_condition),
            tuple(a.lower() for a in statement.cluster_attributes),
            render(statement.cluster_condition),
            tuple(a.lower() for a in statement.body.attributes),
            tuple(a.lower() for a in statement.head.attributes),
            render(statement.mining_condition),
            statement.min_support,
            program.directives.as_tuple(),
        )

    def _drop_output_tables(self, program: TranslationProgram) -> None:
        out = program.statement.output_table
        names = program.workspace
        for table in (
            out,
            f"{out}_Bodies",
            f"{out}_Heads",
            f"{out}_Display",
            names.output_bodies,
            names.output_heads,
        ):
            self.db.catalog.drop_table(table, if_exists=True)

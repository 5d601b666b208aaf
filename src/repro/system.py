"""The mining system facade.

:class:`MiningSystem` wires the kernel components of Figure 3a into the
process flow the paper describes: the user submits a MINE RULE
statement; the translator validates/classifies it and emits SQL
programs; the preprocessor runs them on the SQL server; the core
operator mines encoded rules; the postprocessor stores and decodes the
output relations.  The result object carries everything an application
(or the paper's AMORE user support) needs: decoded rules, the output
table names, the directive vector, and the process flow, per-phase
timings and resilience counters read from the run's record.

It also implements the preprocessing-reuse optimisation noted in
Section 3 ("the same preprocessing could be in common to the execution
of several data mining queries, thus saving its cost"): executions
whose FROM/GROUP/CLUSTER/encoding parts coincide share their encoded
tables.

A statement has one lifecycle, whichever verb it is:

* :meth:`MiningSystem.run` and :meth:`MiningSystem.refresh` both go
  through :meth:`MiningSystem._observed`, the one envelope that takes
  the run lock and the engine's write lock, makes the statement's
  :class:`~repro.kernel.context.RunContext` and reports the outcome to
  health, the latency / outcome series, the slow log and the run
  journal.
* The stages (translate, preprocess, core, postprocess; delta and
  recount for ``REFRESH RULES``) take that context plus their own
  inputs, and record their work only on the context's tracer, as spans,
  instants and ``minerule.<kind>`` root-span attributes.
  ``MiningResult.flow``, the pipeline's metrics series and the slow-log
  and journal entries are views of that record.  Every retryable unit
  runs through
  :meth:`RunContext.attempt <repro.kernel.context.RunContext.attempt>`
  (cancel hook, fault site, :class:`~repro.faults.RetryPolicy`, retry
  bookkeeping); what ``attempt`` gives up on fails the statement and
  keeps its checkpoint.
* ``run(resume=True)`` skips the stages a crashed run's
  :class:`~repro.kernel.program.StageCheckpoint` completed.  A refresh
  is two more stages of the same flow: its emission is the postprocess
  stage with a fresh checkpoint, and a forced full re-mine continues in
  the refresh's own context.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.algorithms import FrequentItemsetMiner, get_algorithm
from repro.faults import RetryPolicy
from repro.incremental import (
    MiningState,
    RefreshComputation,
    RefreshError,
    RefreshStats,
    SourceMutated,
    encode_for_emission,
    refresh_eligibility,
)
from repro.kernel.context import (
    Resilience,
    RunCancelled,
    RunContext,
    RunFlow,
    run_tracer,
)
from repro.kernel.core.general import GeneralCoreOperator
from repro.kernel.metrics import CoreStats
from repro.kernel.core.inputs import CoreInputLoader
from repro.kernel.core.rules import EncodedRule
from repro.kernel.core.simple import SimpleCoreOperator, build_rules
from repro.kernel.names import Workspace
from repro.kernel.postprocessor import DecodedRule, Postprocessor
from repro.kernel.preprocessor import Preprocessor, PreprocessStats
from repro.kernel.program import StageCheckpoint, TranslationProgram
from repro.kernel.translator import Translator
from repro.minerule.parser import parse_refresh
from repro.minerule.statements import MineRuleStatement
from repro.obs import context as obs_context
from repro.obs import profile as obs_profile
from repro.obs.export import trace_events
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.runlog import RunLog
from repro.obs.spans import NULL_TRACER, Tracer
from repro.sqlengine.engine import Database
from repro.sqlengine.render import render_expr

__all__ = [
    "MiningResult",
    "MiningSystem",
    "RefreshResult",
    "RunCancelled",
]


@dataclass(kw_only=True)
class _RuleOutcome:
    """What a mined and a refreshed rule set have in common."""

    statement: MineRuleStatement
    program: TranslationProgram
    encoded_rules: List[EncodedRule]
    rules: List[DecodedRule]
    #: the run's record, read as Figure 3a's process flow
    flow: RunFlow
    #: 1-based execution number within this system
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

    @property
    def resilience(self) -> Resilience:
        """Fault/retry/resume counters of this run."""
        return self.flow.resilience

    def __len__(self) -> int:
        return len(self.rules)

    def rule_set(self) -> set:
        """{(body frozenset, head frozenset, support, confidence)} with
        ratios rounded for robust comparisons."""
        return {
            (r.body, r.head, round(r.support, 9), round(r.confidence, 9))
            for r in self.rules
        }


@dataclass(kw_only=True)
class MiningResult(_RuleOutcome):
    """Outcome of one MINE RULE execution."""

    #: None when encoded tables were reused from a previous execution
    preprocess_stats: Optional[PreprocessStats]
    #: core-operator observability (lattice sizes, bitmap counters)
    core_stats: Optional[CoreStats] = None

    @property
    def preprocessing_reused(self) -> bool:
        return self.preprocess_stats is None


@dataclass
class _RefreshEntry:
    """Per-output-table refresh bookkeeping: the owning statement, its
    translated program (workspace, postprocessing SQL, directives) and
    the mining state captured by the last refresh."""

    statement_text: str
    program: TranslationProgram
    state: Optional[MiningState] = None


@dataclass(kw_only=True)
class RefreshResult(_RuleOutcome):
    """Outcome of one ``REFRESH RULES`` execution.

    A :class:`MiningResult`'s rules, program and flow plus the
    refresh-specific :class:`~repro.incremental.RefreshStats` — mode
    ``"incremental"`` when FUP delta maintenance ran, ``"full"`` when a
    forced full re-mine was executed instead (with ``stats.reason``
    saying why; the same reason is an event of :attr:`flow`)."""

    stats: RefreshStats


#: statement kind -> (journal kind, latency histogram, outcome counter);
#: the names a monitoring scrape and ``/runs`` are read by
_SERIES = {
    "run": (
        "mine",
        ("repro_minerule_run_seconds", "End-to-end MINE RULE run latency"),
        ("repro_minerule_runs_total", "MINE RULE runs by outcome"),
    ),
    "refresh": (
        "refresh",
        ("repro_refresh_seconds", "End-to-end REFRESH RULES latency"),
        ("repro_refresh_total", "REFRESH RULES runs by outcome and mode"),
    ),
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
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        slowlog: Optional[Any] = None,
        health: Optional[Any] = None,
        runlog: Optional[RunLog] = None,
    ):
        #: span sink for the whole pipeline; shared with the SQL engine
        #: so statement spans nest inside the component spans
        self.tracer = tracer if tracer is not None else NULL_TRACER
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
        #: slow-query log (:class:`repro.obs.slowlog.SlowQueryLog`);
        #: shared with the engine so per-statement entries land in it
        self.slowlog = slowlog
        #: run-state tracker (:class:`repro.obs.httpd.HealthState`)
        #: behind a monitoring server's ``/healthz``
        self.health = health
        #: run-history journal (:class:`repro.obs.runlog.RunLog`); every
        #: completed run/refresh appends one record (trace ids, stage
        #: timings, resource totals, outcome) that survives restarts
        self.runlog = runlog
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.algorithm = algorithm
        self.reuse_preprocessing = reuse_preprocessing
        #: default retry policy for :meth:`run` (None: single attempt)
        self.retry_policy = retry_policy
        self._executions = 0
        #: serializes whole MINE RULE runs: the pipeline mutates shared
        #: system state (_executions, reuse cache, checkpoints, host
        #: variables), so concurrent job workers take this and the
        #: engine's write lock for the whole run — making every run
        #: bit-identical to serial execution while plain SELECT jobs
        #: still share the engine's read side
        self._run_lock = threading.RLock()
        self.attach(database if database is not None else Database())

    def attach(self, database: Database) -> None:
        """Make *database* the one this system mines — the only place a
        database is wired in (the constructor and the shell's
        ``.restore`` both come here), so every holder of the system
        sees the new catalog and nothing configured at construction
        (journal, retry policy, observability sinks) is lost.  What the
        system remembered about the previous catalog — reuse cache,
        crash checkpoints, refresh targets — is dropped."""
        with self._run_lock:
            self.db = database
            database.tracer = self.tracer
            database.metrics = self.metrics
            database.slowlog = self.slowlog
            self._translator = Translator(database)
            self._preprocessor = Preprocessor(database)
            self._postprocessor = Postprocessor(database)
            #: preprocessing signature -> (workspace, totg, mingroups)
            self._preprocess_cache: Dict[
                tuple, Tuple[Workspace, int, int]
            ] = {}
            #: normalized statement text -> checkpoint of a crashed run
            self._checkpoints: Dict[str, StageCheckpoint] = {}
            #: lowercased output table -> refresh bookkeeping of the
            #: last successful MINE RULE run producing it
            self._refresh_registry: Dict[str, _RefreshEntry] = {}

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

        ``cancel`` is a zero-argument callable polled before every
        retryable unit of work up to the postprocessor, whose emission
        is one unit; once it returns True the run raises
        :class:`RunCancelled` (a cooperative cancel, so the database
        stays consistent — see the exception's docstring).
        """
        compact = " ".join(statement_text.split())
        return self._observed(
            "run",
            compact,
            {"statement": compact[:120], "run": self._executions + 1},
            retry,
            cancel,
            lambda ctx: self._mine(ctx, statement_text, resume),
        )

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
        text = target.strip()
        # Statement text, not a bare table name whose identifier merely
        # starts with "refresh": the keyword is a whole first word.
        first_word = text.split(None, 1)[0].upper() if text else ""
        name = (
            parse_refresh(text).output_table
            if first_word == "REFRESH"
            else text
        )
        return self._observed(
            "refresh",
            f"REFRESH RULES {name}",
            {"output": name},
            retry,
            cancel,
            lambda ctx: self._refresh(ctx, name, resume),
        )

    def _observed(
        self,
        kind: str,
        label: str,
        span_args: Dict[str, Any],
        retry: Optional[RetryPolicy],
        cancel: Optional[Callable[[], bool]],
        stages: Callable[[RunContext], Any],
    ):
        """The lifecycle of one statement: *stages* runs in a fresh
        :class:`RunContext` under the run lock and the engine's write
        lock, inside the ``minerule.<kind>`` root span, and its outcome
        — ok, cancelled or error — is reported once each to health, the
        latency and outcome series, the slow log and the run journal,
        the last two read from the finished run's spans."""
        journal_kind, seconds_series, outcome_series = _SERIES[kind]
        policy = retry or self.retry_policy or RetryPolicy.single()
        tracer = run_tracer(self.tracer, self.metrics)
        health = self.health
        if health is not None:
            health.begin()
        status = "error"
        error: Optional[str] = None
        result = None
        with obs_context.ensure() as trace:
            cpu_start = obs_profile.cpu_seconds()
            mem_start = obs_profile.memory_sample()
            root = tracer.span(f"minerule.{kind}", "minerule", **span_args)
            flow = RunFlow(tracer, root)
            try:
                with root:
                    # One run at a time: the run lock serializes
                    # concurrent job workers, and the engine's write
                    # lock keeps every SQL job (even read-only scans)
                    # out of the pipeline's way while the encoded and
                    # output tables are in flux.
                    with self._run_lock, self.db.rwlock.write_locked():
                        ctx = RunContext(flow, policy, cancel)
                        try:
                            result = stages(ctx)
                            root.annotate(rules=len(result.rules))
                        finally:
                            ctx.settle()
                trace.run_id = result.run_id
                status = "ok"
                if health is not None:
                    health.success()
            except RunCancelled as exc:
                # Not a failure: the caller asked the run to stop.  The
                # health endpoint must not flip to 503 over it.
                status, error = "cancelled", str(exc)
                if health is not None:
                    health.success()
                raise
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                if health is not None:
                    health.failure(exc)
                raise
            finally:
                flow.seal()
                mode = {}
                if kind == "refresh":
                    mode["mode"] = (
                        "unknown" if result is None else result.stats.mode
                    )
                self.metrics.histogram(*seconds_series).observe(root.seconds)
                self.metrics.counter(
                    *outcome_series, ("status", *mode)
                ).inc(status=status, **mode)
                if self.slowlog is not None:
                    for span in flow.spans():
                        if "stage" in span.args and "error" not in span.args:
                            self.slowlog.record(
                                span.name, span.seconds,
                                detail=span.args["purpose"],
                            )
                    self.slowlog.record(
                        f"minerule.{kind}", root.seconds, detail=label
                    )
                if self.runlog is not None:
                    extra: Dict[str, Any] = dict(mode)
                    if result is not None:
                        extra["rules"] = len(result.rules)
                        extra["stages"] = {
                            stage: round(seconds, 6)
                            for stage, seconds in flow.timings.items()
                        } or None
                        if kind == "refresh":
                            extra["refresh"] = result.stats.as_args()
                    if flow.resilience.any():
                        # which fallback fired, how often a unit was
                        # repeated, what a resume skipped
                        extra["resilience"] = flow.resilience._asdict()
                    if self.tracer.enabled:
                        # persist the run's own slice of the trace so
                        # GET /runs/<id>/trace works long after the
                        # tracer moved on
                        extra["trace"] = trace_events(
                            self.tracer, trace_id=trace.trace_id
                        )
                    self.runlog.record_run(
                        trace, journal_kind, label, status, root.seconds,
                        error=error,
                        cpu_seconds=round(
                            obs_profile.cpu_seconds() - cpu_start, 6
                        ),
                        peak_bytes=(
                            obs_profile.peak_bytes_since(mem_start) or None
                        ),
                        **extra,
                    )
        return result

    # ------------------------------------------------------------------
    # MINE RULE stages
    # ------------------------------------------------------------------

    def _mine(
        self, ctx: RunContext, statement_text: str, resume: bool
    ) -> MiningResult:
        """translate -> preprocess -> core -> postprocess in *ctx*."""
        ctx.check_cancel("translator")
        self._executions += 1

        key = " ".join(statement_text.split())
        checkpoint = self._checkpoints.get(key) if resume else None
        if checkpoint is not None and not self._checkpoint_valid(checkpoint):
            ctx.event(
                "translator",
                "checkpoint discarded",
                "recorded encoded tables are gone or changed; "
                "restarting from scratch",
            )
            # The restarted run mints a fresh workspace prefix, so the
            # discarded checkpoint's partial tables would never be
            # dropped by the resumed preprocess stage — orphan-sweep its
            # prefix here (and evict reuse-cache entries pointing at it,
            # which would otherwise hand out just-dropped encoded
            # tables).
            self._sweep_workspace(Workspace(checkpoint.workspace_prefix))
            ctx.event(
                "translator",
                "swept orphaned workspace",
                checkpoint.workspace_prefix,
            )
            self._checkpoints.pop(key, None)
            checkpoint = None
        ctx.resumed = checkpoint is not None

        with ctx.phase("translator"):
            ctx.event("translator", "received statement")
            workspace = Workspace(
                checkpoint.workspace_prefix
                if checkpoint is not None
                else f"MR{self._executions}"
            )
            program = self._translator.translate(statement_text, workspace)
            ctx.event(
                "translator",
                "validated and classified",
                f"directives {program.directives}",
            )

        ctx.checkpoint = checkpoint or StageCheckpoint(
            statement_text=key, workspace_prefix=workspace.prefix
        )
        try:
            with ctx.phase("preprocessor"):
                program, stats = self._preprocess_stage(
                    ctx, program, statement_text
                )
            with ctx.phase("core"):
                encoded_rules, core_stats = self._core_stage(ctx, program)
            with ctx.phase("postprocessor"):
                decoded = self._postprocess_stage(
                    ctx, program, encoded_rules
                )
        except Exception:
            # Keep the checkpoint: a later run(resume=True) of the same
            # statement picks up right after the last completed stage.
            self._checkpoints[key] = ctx.checkpoint
            while len(self._checkpoints) > self._CHECKPOINT_CAP:
                self._checkpoints.pop(next(iter(self._checkpoints)))
            raise
        self._checkpoints.pop(key, None)

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
            flow=ctx.flow,
            core_stats=core_stats,
            run_id=self._executions,
        )

    def _preprocess_stage(
        self,
        ctx: RunContext,
        program: TranslationProgram,
        statement_text: str,
    ) -> Tuple[TranslationProgram, Optional[PreprocessStats]]:
        """The program that ran (re-targeted when its encoded tables
        came from the Section-3 reuse cache) and what preprocessing
        measured — None when nothing had to be preprocessed."""
        ctx.check_cancel("preprocessor")
        checkpoint = ctx.checkpoint

        if ctx.resumed and checkpoint.preprocessing_reused:
            # The crashed run had satisfied preprocessing from the
            # Section-3 reuse cache; its encoded tables still live in
            # the shared workspace the checkpoint points at.
            self.db.variables.update(checkpoint.host_variables)
            ctx.event(
                "preprocessor",
                "reused encoded tables",
                f"workspace {program.workspace.prefix} "
                f"(Section 3 optimisation)",
            )
            ctx.count("stages_resumed")
            if not checkpoint.stored:
                self._drop_output_tables(program)
            return program, None

        if ctx.resumed:
            # Partial artifacts of the crashed query (tables it started
            # but never completed) are dropped so re-running it starts
            # from a clean slate.
            for table in program.workspace.all_tables():
                if table not in checkpoint.table_snapshot:
                    self.db.catalog.drop_table(table, if_exists=True)
        elif self.reuse_preprocessing:
            cached = self._preprocess_cache.get(
                self._preprocess_signature(program)
            )
            if cached is not None:
                cached_workspace, totg, mingroups = cached
                # Re-target the program onto the cached workspace.
                program = self._translator.translate(
                    statement_text, cached_workspace
                )
                self.db.variables["totg"] = totg
                self.db.variables["mingroups"] = mingroups
                checkpoint.preprocessing_reused = True
                checkpoint.workspace_prefix = cached_workspace.prefix
                checkpoint.host_variables = {
                    "totg": totg, "mingroups": mingroups
                }
                ctx.event(
                    "preprocessor",
                    "reused encoded tables",
                    f"workspace {cached_workspace.prefix} "
                    f"(Section 3 optimisation)",
                )
                # The output tables of *this* statement must be fresh.
                self._drop_output_tables(program)
                return program, None

        stats = self._preprocessor.run(program, ctx)
        if self.reuse_preprocessing:
            self._preprocess_cache[self._preprocess_signature(program)] = (
                program.workspace,
                stats.totg,
                stats.mingroups,
            )
        return program, stats

    def _core_stage(
        self, ctx: RunContext, program: TranslationProgram
    ) -> Tuple[List[EncodedRule], Optional[CoreStats]]:
        checkpoint = ctx.checkpoint
        if checkpoint.encoded_rules is not None:
            encoded_rules = checkpoint.encoded_rules
            core_stats = checkpoint.core_stats
            ctx.count("stages_resumed")
            ctx.event(
                "core",
                "skipped (resume)",
                f"{len(encoded_rules)} rules from checkpoint",
            )
        else:
            encoded_rules, core_stats = ctx.attempt(
                "core", lambda: self._mine_once(ctx, program)
            )
            checkpoint.encoded_rules = encoded_rules
            checkpoint.core_stats = core_stats
        ctx.event("core", "extracted rules", f"{len(encoded_rules)} rules")
        if core_stats is not None:
            ctx.event("core", "observability", core_stats.describe())
            ctx.tracer.annotate(**core_stats.span_args())
        return encoded_rules, core_stats

    def _mine_once(
        self, ctx: RunContext, program: TranslationProgram
    ) -> Tuple[List[EncodedRule], CoreStats]:
        """One attempt of the core operator: load, then mine."""
        faults.check("core.load")
        loader = CoreInputLoader(self.db, program.core)
        if program.core.simple:
            data, _ = loader.load_simple_columns()
        else:
            data = loader.load_general()
        faults.check("core.bitset")
        if not program.core.simple:
            general = GeneralCoreOperator()
            ctx.event(
                "core",
                "general core processing",
                "elementary rules from InputRules"
                if data.input_rules is not None
                else "elementary rules derived from CodedSource",
            )
            encoded_rules = general.run(data, program.core)
            return encoded_rules, CoreStats.from_general(general)

        encoded_rules = SimpleCoreOperator(self.algorithm).run(
            data, program.core
        )
        core_stats = CoreStats.from_simple(self.algorithm)
        # after the run: "auto" knows its member only then
        ctx.event(
            "core",
            "simple core processing",
            f"algorithm {core_stats.algorithm}, "
            f"{len(data.groups)} encoded groups",
        )
        return encoded_rules, core_stats

    def _postprocess_stage(
        self,
        ctx: RunContext,
        program: TranslationProgram,
        encoded_rules: List[EncodedRule],
    ) -> List[DecodedRule]:
        """Store, decode and read back the rules — the one emission
        path of a mined and a refreshed rule set, so their output
        tables are bit-identical by construction."""
        ctx.check_cancel("postprocessor")
        # store -> decode -> read-back is one unit to a cancel: a
        # refresh has committed its state by now and keeps no checkpoint
        # that could finish a half-emitted rule set
        ctx.cancel = None
        checkpoint = ctx.checkpoint
        post = self._postprocessor
        catalog = self.db.catalog
        out = program.statement.output_table
        if checkpoint.stored and catalog.has_table(out):
            ctx.count("stages_resumed")
            ctx.event("postprocessor", "skipped store (resume)", out)
        else:
            ctx.attempt(
                "postprocessor.store",
                lambda: post.store_encoded_rules(program, encoded_rules),
                own_site=True, rules=len(encoded_rules),
            )
            checkpoint.stored = True
            # The stored tables join the checkpoint snapshot so a
            # later resume neither sweeps them away as partial
            # artifacts nor trusts them if they changed underneath.
            for table in (program.workspace.output_bodies,
                          program.workspace.output_heads):
                if catalog.has_table(table):
                    checkpoint.table_snapshot[table] = len(
                        catalog.get_table(table)
                    )
        if checkpoint.decoded and catalog.has_table(f"{out}_Display"):
            ctx.count("stages_resumed")
            ctx.event(
                "postprocessor", "skipped decode (resume)", f"{out}_Display"
            )
        else:
            ctx.attempt(
                "postprocessor.decode", lambda: post.decode(program),
                own_site=True,
            )
            checkpoint.decoded = True
        decoded = ctx.attempt(
            "postprocessor.decode",
            lambda: post.decoded_rules(program, encoded_rules),
        )
        ctx.event(
            "postprocessor",
            "stored output relations",
            f"{out}, {out}_Bodies, {out}_Heads ({len(encoded_rules)} rules)",
        )
        return decoded

    # ------------------------------------------------------------------
    # REFRESH RULES stages (FUP-style incremental maintenance)
    # ------------------------------------------------------------------

    def _refresh(
        self, ctx: RunContext, name: str, resume: bool
    ) -> RefreshResult:
        """delta -> recount -> postprocess in *ctx*, or — when the
        statement is not eligible or the source was rewritten — the
        MINE RULE stages of the recorded statement in the same *ctx*."""
        entry = self._refresh_registry.get(name.lower())
        if entry is None:
            raise RefreshError(
                f"no MINE RULE run recorded for output table {name!r}; "
                f"run the statement once before REFRESH RULES"
            )
        program = entry.program
        reason = refresh_eligibility(program)
        if reason is None:
            try:
                with ctx.phase("core"):
                    state, stats = self._delta_stage(ctx, entry)
            except SourceMutated as exc:
                reason = str(exc)
        if reason is not None:
            # Forced full re-mine of the recorded statement; the run
            # re-registers the target, the next refresh re-captures.
            ctx.event("core", "forced full re-mine", reason)
            ctx.tracer.instant(
                "refresh.full", category="refresh", reason=reason
            )
            self.invalidate_preprocessing()
            mined = self._mine(ctx, entry.statement_text, resume)
            program, encoded_rules = mined.program, mined.encoded_rules
            decoded = mined.rules
            stats = RefreshStats(
                mode="full", reason=reason, rules=len(decoded)
            )
        else:
            # Commit the state before emission: a crash while emitting
            # leaves a committed state whose re-refresh sees an empty
            # delta and re-emits identical tables.
            entry.state = state
            encoded_rules = self._rebuild_bset(program, state)
            ctx.checkpoint = StageCheckpoint(
                statement_text=entry.statement_text,
                workspace_prefix=program.workspace.prefix,
            )
            with ctx.phase("postprocessor"):
                decoded = self._postprocess_stage(
                    ctx, program, encoded_rules
                )
            stats.rules = len(encoded_rules)
            ctx.tracer.instant(
                "refresh.stats", category="refresh", **stats.as_args()
            )
            # The reuse cache's encoded tables predate the append; drop
            # the cache (not the tables — the refreshed Bset lives among
            # them) so a later full run re-preprocesses against current
            # data.
            self.invalidate_preprocessing()
            self._executions += 1
        return RefreshResult(
            statement=program.statement,
            program=program,
            encoded_rules=encoded_rules,
            rules=decoded,
            flow=ctx.flow,
            stats=stats,
            run_id=self._executions,
        )

    def _delta_stage(
        self, ctx: RunContext, entry: _RefreshEntry
    ) -> Tuple[MiningState, RefreshStats]:
        """The FUP phases: fold the rows past the watermark into the
        recorded state, then recount what crossed the border.  Raises
        :class:`SourceMutated` when the source is not append-only."""
        computation = RefreshComputation(
            self.db, entry.program.statement, entry.state,
            entry.program.workspace,
        )
        ctx.event(
            "core",
            "refresh delta",
            "capturing mining state from the source"
            if entry.state is None
            else f"reading the source past row {entry.state.row_count}",
        )
        # both phases are idempotent (delta() extends the state's
        # universes only past the sizes the state committed, recount()
        # commits nothing), so an injected fault at either site simply
        # re-runs the whole phase on retry
        ctx.attempt("refresh.delta", computation.delta, own_site=True)
        stats = computation.stats
        ctx.event(
            "core",
            "delta applied",
            f"{stats.delta_rows} rows, {stats.delta_pairs} new pairs, "
            f"{stats.new_items} new items, {stats.new_groups} new groups, "
            f"{stats.known_itemsets} known counts delta-adjusted",
        )
        state = ctx.attempt(
            "refresh.recount", computation.recount, own_site=True
        )
        ctx.event(
            "core",
            "refresh recount",
            f"{stats.frequent_itemsets} frequent + "
            f"{stats.border_itemsets} border itemsets "
            f"({stats.recounted_itemsets} full-bitmap recounts)",
        )
        return state, stats

    def _rebuild_bset(
        self, program: TranslationProgram, state: MiningState
    ) -> List[EncodedRule]:
        """Rewrite Bset from the refreshed state (Bids in Q3b's
        first-appearance order) and build the encoded rules the
        postprocess stage emits."""
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
        return build_rules(counts_by_bid, state.totg, program.core)

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

    def _drop_workspace(self, workspace: Workspace) -> None:
        """Drop every working object of *workspace*."""
        catalog = self.db.catalog
        for view in workspace.all_views():
            catalog.drop_view(view, if_exists=True)
        for table in workspace.all_tables():
            catalog.drop_table(table, if_exists=True)
        for sequence in workspace.all_sequences():
            catalog.drop_sequence(sequence, if_exists=True)

    def _sweep_workspace(self, workspace: Workspace) -> None:
        """Drop *workspace* and evict reuse cache entries pointing at
        it (orphaned-prefix cleanup)."""
        self._drop_workspace(workspace)
        self._preprocess_cache = {
            signature: entry
            for signature, entry in self._preprocess_cache.items()
            if entry[0].prefix != workspace.prefix
        }

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
                self._drop_workspace(workspace)
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

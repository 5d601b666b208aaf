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
  :class:`~repro.kernel.context.RunContext` and puts the outcome
  (status, error, CPU, peak memory, rules, refresh mode) on the
  ``minerule.<kind>`` root span before closing it.
* The stages (translate, preprocess, core, postprocess; delta and
  recount for ``REFRESH RULES``) take that context plus their own
  inputs, and record their work only on the context's tracer, as spans,
  instants and root-span attributes.  ``MiningResult.flow`` reads the
  root's own record; health, the metrics series, the slow log and the
  run journal are views attached to the tracer, reading spans as they
  close.  Every retryable unit
  runs through
  :meth:`RunContext.attempt <repro.kernel.context.RunContext.attempt>`
  (cancel hook, fault site, :class:`~repro.faults.RetryPolicy`, retry
  bookkeeping); what ``attempt`` gives up on fails the statement.
* A failed or cancelled statement is finished by running it again.  The
  failed run drops its workspace unless the reuse cache holds it, so
  the catalog keeps either nothing of the run or a finished set of
  encoded tables that the next run reuses.  A refresh is two more
  stages of the same flow: its emission is the postprocess stage, and a
  forced full re-mine continues in the refresh's own context.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.algorithms import FrequentItemsetMiner, get_algorithm
from repro.algorithms.bitset import BitsetStats, VerticalInput
from repro.faults import RetryPolicy
from repro.incremental import (
    MiningState,
    RefreshComputation,
    RefreshError,
    RefreshStats,
    SourceMutated,
    refresh_eligibility,
)
from repro.kernel.context import (
    Resilience,
    RunCancelled,
    RunContext,
    RunFlow,
    render_core,
    run_tracer,
)
from repro.kernel.core.general import GeneralCoreOperator
from repro.kernel.core.inputs import CoreInputLoader, SimpleInput
from repro.kernel.core.rules import EncodedRule
from repro.kernel.core.simple import SimpleCoreOperator, build_rules
from repro.kernel.names import Workspace
from repro.kernel.postprocessor import DecodedRule, Postprocessor
from repro.kernel.preprocessor import Preprocessor, PreprocessStats
from repro.kernel.program import TranslationProgram
from repro.kernel.translator import Translator
from repro.minerule.parser import parse_refresh
from repro.minerule.statements import MineRuleStatement
from repro.obs import context as obs_context
from repro.obs import profile as obs_profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import RunLog
from repro.obs.slowlog import SlowQueryLog
from repro.obs.spans import NULL_TRACER, Span, Tracer
from repro.sqlengine.engine import Database
from repro.sqlengine.render import render_expr
from repro.sqlengine.table import Table

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
        """Fault and retry counters of this run."""
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

    @property
    def preprocessing_reused(self) -> bool:
        return self.preprocess_stats is None


@dataclass
class _RefreshEntry:
    """Per-output-table refresh bookkeeping: the translated program of
    the owning statement (its parsed statement, workspace,
    postprocessing SQL, directives) and the mining state captured by
    the last refresh."""

    program: TranslationProgram
    state: Optional[MiningState] = None


@dataclass
class _Reuse:
    """One entry of the Section-3 reuse cache: a workspace whose
    encoded tables are complete, the host variables its preprocessing
    set, and — once a statement has read it — the simple core's input,
    stamped with the ``CodedSource`` table it was read from.  The input
    never changes once stored; it is dropped with the entry."""

    workspace: Workspace
    totg: int
    mingroups: int
    #: the pool's vertical input read from the workspace's CodedSource
    core_input: Optional[VerticalInput] = None
    #: CodedSource as it was read: (weak reference to the table object,
    #: its ``rewrites``, its row count)
    stamp: Optional[Tuple[weakref.ref, int, int]] = None

    def input_for(self, table: Table) -> Optional[VerticalInput]:
        """The kept input if it was read from *table* as it stands —
        the same object, not rewritten since, as many rows — else
        None."""
        if self.stamp is None:
            return None
        source, rewrites, rows = self.stamp
        if source() is table and (rewrites, rows) == (
            table.rewrites, len(table)
        ):
            return self.core_input
        return None


@dataclass(kw_only=True)
class RefreshResult(_RuleOutcome):
    """Outcome of one ``REFRESH RULES`` execution.

    A :class:`MiningResult`'s rules, program and flow plus the
    refresh-specific :class:`~repro.incremental.RefreshStats` — mode
    ``"incremental"`` when the delta and recount phases ran,
    ``"full"`` when a forced full re-mine was executed instead (with
    ``stats.reason`` saying why; the same reason is an event of
    :attr:`flow`)."""

    stats: RefreshStats


def _algorithm_label(miner: FrequentItemsetMiner) -> str:
    """The pool member's name; after a run, ``auto`` also names the
    member it ran (``auto(apriori)``)."""
    member = getattr(miner, "last_choice", "")
    return f"{miner.name}({member})" if member else miner.name


class MiningSystem:
    """Tightly-coupled data mining on top of the SQL engine."""

    def __init__(
        self,
        database: Optional[Database] = None,
        algorithm: Union[str, FrequentItemsetMiner] = "apriori",
        reuse_preprocessing: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        slowlog: Optional[SlowQueryLog] = None,
        runlog: Optional[RunLog] = None,
    ):
        tracer = tracer if tracer is not None else NULL_TRACER
        sinks = [
            sink for sink in (metrics, slowlog, runlog)
            if sink is not None and getattr(sink, "enabled", True)
        ]
        if sinks and not tracer.enabled:  # a view needs spans to read
            tracer = Tracer(profile_cpu=False)
        for sink in sinks:
            tracer.attach(sink)
        #: the pipeline's one recorder, shared with the SQL engine so
        #: statement spans nest inside the component spans; every sink
        #: is a view attached to it
        self.tracer = tracer
        if isinstance(algorithm, str):
            algorithm = get_algorithm(algorithm)
        self.algorithm = algorithm
        self.reuse_preprocessing = reuse_preprocessing
        #: default retry policy for :meth:`run` (None: single attempt)
        self.retry_policy = retry_policy
        self._executions = 0
        #: serializes whole MINE RULE runs: the pipeline mutates shared
        #: system state (_executions, reuse cache, host variables), so
        #: concurrent job workers take this and the engine's write
        #: lock for the whole run — making every run
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
        system remembered about the previous catalog — reuse cache and
        refresh targets — is dropped."""
        with self._run_lock:
            self.db = database
            database.tracer = self.tracer
            self._translator = Translator(database)
            self._preprocessor = Preprocessor(database)
            self._postprocessor = Postprocessor(database)
            #: preprocessing signature -> its reuse-cache entry
            self._preprocess_cache: Dict[tuple, _Reuse] = {}
            #: lowercased output table -> refresh bookkeeping of the
            #: last successful MINE RULE run producing it
            self._refresh_registry: Dict[str, _RefreshEntry] = {}

    # ------------------------------------------------------------------

    def execute(self, statement_text: str) -> MiningResult:
        """Run one MINE RULE statement end to end (no retry)."""
        return self.run(statement_text)

    def run(
        self,
        statement_text: str,
        retry: Optional[RetryPolicy] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> MiningResult:
        """Run one MINE RULE statement end to end.

        ``retry`` (or the system-wide :attr:`retry_policy`) re-attempts
        stages that fail with an injected :class:`FaultError`, with
        capped exponential backoff.  A run that fails anyway is finished
        by calling ``run`` again: it reuses the encoded tables when
        preprocessing had completed (and the reuse cache is on), and
        otherwise starts from scratch.

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
            lambda ctx: self._mine(ctx, statement_text),
        )

    def refresh(
        self,
        target: str,
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
            lambda ctx: self._refresh(ctx, name),
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
        — ok, cancelled or error — becomes the root's attributes before
        it closes, which is where every attached view reads it."""
        policy = retry or self.retry_policy or RetryPolicy.single()
        tracer = run_tracer(self.tracer)
        with obs_context.ensure() as trace:
            cpu_start = obs_profile.cpu_seconds()
            mem_start = obs_profile.memory_sample()
            root = tracer.span(
                f"minerule.{kind}", "minerule", label=label, **span_args
            )
            flow = RunFlow(tracer, root)
            outcome: Dict[str, Any] = {"status": "error"}
            try:
                # One run at a time: the run lock serializes concurrent
                # job workers, and the engine's write lock keeps every
                # SQL job (even read-only scans) out of the pipeline's
                # way while the encoded and output tables are in flux.
                with self._run_lock, self.db.rwlock.write_locked():
                    ctx = RunContext(flow, policy, cancel)
                    try:
                        result = stages(ctx)
                    finally:
                        ctx.settle()
                trace.run_id = result.run_id
                outcome.update(status="ok", rules=len(result.rules))
                if kind == "refresh":
                    outcome.update(
                        mode=result.stats.mode,
                        refresh=result.stats.as_args(),
                    )
            except RunCancelled as exc:
                # Not a failure: the caller asked the run to stop.  The
                # health endpoint must not flip to 503 over it.
                outcome.update(status="cancelled", error=str(exc))
                raise
            except Exception as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                if kind == "refresh":
                    outcome.setdefault("mode", "unknown")
                outcome["cpu_seconds"] = round(
                    obs_profile.cpu_seconds() - cpu_start, 6
                )
                peak = obs_profile.peak_bytes_since(mem_start)
                if peak:
                    outcome["peak_bytes"] = peak
                root.annotate(**outcome)
                tracer.end(root)
        return result

    # ------------------------------------------------------------------
    # MINE RULE stages
    # ------------------------------------------------------------------

    def _mine(
        self, ctx: RunContext, statement: Union[str, MineRuleStatement]
    ) -> MiningResult:
        """translate -> preprocess -> core -> postprocess in *ctx*;
        *statement* is parsed here unless it already is."""
        ctx.check_cancel("translator")
        self._executions += 1
        with ctx.phase("translator"):
            ctx.event("translator", "received statement")
            program = self._translator.translate(
                statement, Workspace(f"MR{self._executions}")
            )
            ctx.event(
                "translator",
                "validated and classified",
                f"directives {program.directives}",
            )

        try:
            with ctx.phase("preprocessor"):
                program, stats, reuse = self._preprocess_stage(ctx, program)
            with ctx.phase("core") as core:
                encoded_rules = self._core_stage(ctx, program, core, reuse)
            with ctx.phase("postprocessor"):
                decoded = self._postprocess_stage(
                    ctx, program, encoded_rules
                )
        except Exception:
            # A re-run mints a fresh prefix: leave it either nothing of
            # this run or the finished encoded tables it will reuse.
            self._sweep_workspace(program.workspace)
            raise

        # Register the run as a REFRESH RULES target.  The state is
        # captured lazily by the first refresh (which then costs a full
        # pairs pass but still emits bit-identically); a re-run resets
        # it because the old snapshot no longer matches what the rule
        # tables reflect.
        self._refresh_registry[
            program.statement.output_table.lower()
        ] = _RefreshEntry(program=program)

        return MiningResult(
            statement=program.statement,
            program=program,
            encoded_rules=encoded_rules,
            rules=decoded,
            preprocess_stats=stats,
            flow=ctx.flow,
            run_id=self._executions,
        )

    def _preprocess_stage(
        self,
        ctx: RunContext,
        program: TranslationProgram,
    ) -> Tuple[TranslationProgram, Optional[PreprocessStats],
               Optional[_Reuse]]:
        """The program that ran (re-targeted when its encoded tables
        came from the Section-3 reuse cache), what preprocessing
        measured — None when nothing had to be preprocessed — and the
        reuse-cache entry of its encoded tables (None with the cache
        off)."""
        ctx.check_cancel("preprocessor")
        if self.reuse_preprocessing:
            reuse = self._preprocess_cache.get(
                self._preprocess_signature(program)
            )
            if reuse is not None:
                # Re-target the program onto the cached workspace; the
                # statement is already parsed.
                program = self._translator.translate(
                    program.statement, reuse.workspace
                )
                self.db.variables["totg"] = reuse.totg
                self.db.variables["mingroups"] = reuse.mingroups
                ctx.event(
                    "preprocessor",
                    "reused encoded tables",
                    f"workspace {reuse.workspace.prefix} "
                    f"(Section 3 optimisation)",
                )
                # The output tables of *this* statement must be fresh.
                self._drop_output_tables(program)
                return program, None, reuse

        stats = self._preprocessor.run(program, ctx)
        reuse = None
        if self.reuse_preprocessing:
            reuse = _Reuse(program.workspace, stats.totg, stats.mingroups)
            self._preprocess_cache[self._preprocess_signature(program)] = reuse
        return program, stats, reuse

    def _core_stage(
        self, ctx: RunContext, program: TranslationProgram, core: Span,
        reuse: Optional[_Reuse],
    ) -> List[EncodedRule]:
        encoded_rules = ctx.attempt(
            "core", lambda: self._mine_once(ctx, program, core, reuse)
        )
        ctx.event("core", "extracted rules", f"{len(encoded_rules)} rules")
        ctx.event("core", "observability", render_core(core.args)[0])
        return encoded_rules

    def _mine_once(
        self, ctx: RunContext, program: TranslationProgram, core: Span,
        reuse: Optional[_Reuse],
    ) -> List[EncodedRule]:
        """One attempt of the core operator: load (or take the input
        the reuse-cache entry *reuse* holds), then mine; what it
        observed becomes the attributes of the *core* span."""
        faults.check("core.load")
        loader = CoreInputLoader(self.db, program.core)
        if program.core.simple:
            data = self._simple_input(ctx, loader, program, reuse)
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
            core.annotate(variant="general", **general.span_args())
            return encoded_rules

        miner = self.algorithm
        encoded_rules = SimpleCoreOperator(miner).run(data, program.core)
        algorithm = _algorithm_label(miner)
        stats = getattr(miner, "stats", None) or BitsetStats()
        # one layout, bitmap gid lists, and no lattice joins
        core.annotate(
            variant="simple", representation="bitset", algorithm=algorithm,
            join_pairs_examined=0, **stats.span_args(),
        )
        ctx.event(
            "core",
            "simple core processing",
            f"algorithm {algorithm}, {len(data.groups)} encoded groups",
        )
        return encoded_rules

    def _simple_input(
        self, ctx: RunContext, loader: CoreInputLoader,
        program: TranslationProgram, reuse: Optional[_Reuse],
    ) -> SimpleInput:
        """The simple core's input: the one *reuse* holds when it was
        read from the ``CodedSource`` table as it stands (same table
        object, no rewrite, same row count), else loaded — and then
        stored in *reuse*, once complete."""
        table = self.db.catalog.get_table(program.core.coded_source)
        if reuse is not None:
            kept = reuse.input_for(table)
            if kept is not None:
                ctx.event(
                    "core",
                    "reused core input",
                    f"{len(kept)} encoded groups of "
                    f"{program.core.coded_source}",
                )
                totg, min_count = loader.thresholds()
                return SimpleInput(totg, min_count, kept)
            # none kept, or read from a table edited since: drop it
            # before the load builds the new one
            reuse.core_input = reuse.stamp = None
        stamp = (weakref.ref(table), table.rewrites, len(table))
        data, _ = loader.load_simple_columns()
        if reuse is not None:
            reuse.core_input, reuse.stamp = data.groups, stamp
        return data

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
        # refresh has committed its state by now, so a cancel between
        # store and decode would leave a half-emitted rule set
        ctx.cancel = None
        post = self._postprocessor
        out = program.statement.output_table
        ctx.attempt(
            "postprocessor.store",
            lambda: post.store_encoded_rules(program, encoded_rules),
            own_site=True, rules=len(encoded_rules),
        )
        decoders = ctx.attempt(
            "postprocessor.decode", lambda: post.decode(program),
            own_site=True,
        )
        decoded = ctx.attempt(
            "postprocessor.decode",
            lambda: post.decoded_rules(decoders, encoded_rules),
        )
        ctx.event(
            "postprocessor",
            "stored output relations",
            f"{out}, {out}_Bodies, {out}_Heads ({len(encoded_rules)} rules)",
        )
        return decoded

    # ------------------------------------------------------------------
    # REFRESH RULES stages (incremental maintenance)
    # ------------------------------------------------------------------

    def _refresh(self, ctx: RunContext, name: str) -> RefreshResult:
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
                    state, computation = self._delta_stage(ctx, entry)
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
            mined = self._mine(ctx, program.statement)
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
            stats = computation.stats
            encoded_rules = self._rebuild_bset(program, computation)
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
    ) -> Tuple[MiningState, RefreshComputation]:
        """The refresh phases: fold the rows past the watermark into the
        recorded bitmaps, then mine them with the pool member.  Raises
        :class:`SourceMutated` when the source is not append-only."""
        computation = RefreshComputation(
            self.db, entry.program.statement, entry.state, self.algorithm,
            entry.program.workspace,
        )
        ctx.event(
            "core",
            "refresh delta",
            "capturing mining state from the source"
            if entry.state is None
            else f"reading the source past row {entry.state.row_count}",
        )
        # both phases are idempotent (delta() extends the state's id
        # dicts only past the sizes the state committed, recount()
        # commits nothing), so an injected fault at either site simply
        # re-runs the whole phase on retry
        ctx.attempt("refresh.delta", computation.delta, own_site=True)
        stats = computation.stats
        ctx.event(
            "core",
            "delta applied",
            f"{stats.delta_rows} rows, {stats.delta_pairs} new pairs, "
            f"{stats.new_items} new items, {stats.new_groups} new groups",
        )
        state = ctx.attempt(
            "refresh.recount", computation.recount, own_site=True
        )
        ctx.event(
            "core",
            "refresh recount",
            f"algorithm {_algorithm_label(self.algorithm)}, "
            f"{stats.frequent_itemsets} frequent itemsets "
            f"({stats.recounted_itemsets} candidates)",
        )
        return state, computation

    def _rebuild_bset(
        self, program: TranslationProgram, computation: RefreshComputation
    ) -> List[EncodedRule]:
        """Rewrite Bset from the refresh's rows (Bids in Q3b's
        first-appearance order) and build the encoded rules the
        postprocess stage emits."""
        names = program.workspace
        columns = program.schemas.get(names.bset)
        types = None
        if self.db.catalog.has_table(names.bset):
            table = self.db.catalog.get_table(names.bset)
            if columns is None:
                columns = list(table.columns)
            types = list(table.types)
        self.db.create_table_from_rows(
            names.bset, columns, computation.bset_rows, types=types,
            replace=True,
        )
        return build_rules(
            computation.counts, computation.stats.totg, program.core
        )

    # ------------------------------------------------------------------
    # workspaces
    # ------------------------------------------------------------------

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
        """Drop a failed run's *workspace* unless the reuse cache holds
        it: then its encoded tables are complete and the next run of a
        statement with the same preprocessing reuses them."""
        cached = [reuse.workspace for reuse in self._preprocess_cache.values()]
        if workspace not in cached:
            self._drop_workspace(workspace)

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
            for reuse in self._preprocess_cache.values():
                self._drop_workspace(reuse.workspace)
        self._preprocess_cache.clear()

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

"""The layer boundaries the traced run wraps — the one place that
names functions of the program.  The end-to-end run never imports this
file, so a refactor that moves a boundary cannot break it; the traced
run lists a boundary that no longer resolves under
``missing_boundaries`` and reports its metrics as null.

Each entry: span name, module, dotted path of the function inside the
module, and optional hooks that copy a few counts onto the span.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from benchmarks.suite.spans import Hook, Span, SpanRecorder, wrap


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    path: str
    before: Optional[Hook] = None
    after: Optional[Hook] = None
    #: overrides module/path resolution (the pool member is chosen at
    #: run time, not named by the source)
    locate: Optional[Callable[[], Tuple[Any, str]]] = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.path}"

    def resolve(self) -> Tuple[Any, str]:
        """``(owner, attribute)`` of the plain function to wrap."""
        if self.locate is not None:
            owner, attribute = self.locate()
        else:
            owner = importlib.import_module(self.module)
            *parents, attribute = self.path.split(".")
            for part in parents:
                owner = getattr(owner, part)
        if not callable(vars(owner).get(attribute)):
            raise AttributeError(
                f"{self.label}: {attribute!r} is not defined on {owner!r}"
            )
        return owner, attribute


# -- hooks ---------------------------------------------------------------


def _statement_before(span: Span, args, kwargs, _result) -> None:
    stats = args[0].db.cache_stats
    span.attrs["cpu"] = -time.thread_time()
    span.attrs["plan_hits"] = -stats.plan_hits
    span.attrs["plan_misses"] = -stats.plan_misses


def _statement_after(span: Span, args, kwargs, result) -> None:
    stats = args[0].db.cache_stats
    span.attrs["cpu"] += time.thread_time()
    span.attrs["plan_hits"] += stats.plan_hits
    span.attrs["plan_misses"] += stats.plan_misses
    span.attrs["rules"] = len(result.encoded_rules)


def _run_after(span: Span, args, kwargs, result) -> None:
    _statement_after(span, args, kwargs, result)
    span.attrs["reused"] = bool(result.preprocessing_reused)
    stats = result.preprocess_stats
    span.attrs["encoded_rows"] = (
        sum(stats.table_rows.values()) if stats is not None else 0
    )
    # the SQL-text -> Qn label map of the statement's own program
    span.attrs["labels"] = {
        query.sql: query.label for query in result.program.preprocessing
    }


def _refresh_after(span: Span, args, kwargs, result) -> None:
    _statement_after(span, args, kwargs, result)
    span.attrs["mode"] = result.stats.mode
    span.attrs["delta_rows"] = result.stats.delta_rows
    span.attrs["recounted_itemsets"] = result.stats.recounted_itemsets


def _translate_after(span: Span, args, kwargs, program) -> None:
    span.attrs["sql_statements"] = (
        len(program.setup)
        + len(program.preprocessing)
        + len(program.postprocessing)
    )


def _execute_before(span: Span, args, kwargs, _result) -> None:
    statement = args[1] if len(args) > 1 else kwargs.get("statement")
    span.attrs["kind"] = type(statement).__name__
    span.attrs["sql"] = kwargs.get("sql")
    if span.parent is not None and span.parent.name == "sqlengine.text":
        span.parent.attrs["kind"] = span.attrs["kind"]


def _prepare_before(span: Span, args, kwargs, _result) -> None:
    span.attrs["sql"] = args[1] if len(args) > 1 else kwargs.get("sql")


def _load_after(span: Span, args, kwargs, result) -> None:
    if isinstance(result, tuple):  # load_simple_columns: (input, columns)
        span.attrs["groups"] = len(set(result[1][0]))
    elif result is not None:
        groups = getattr(result, "groups", None)
        if groups is None:
            groups = result.body_items
        span.attrs["groups"] = len(groups)


def _mine_after(span: Span, args, kwargs, counts) -> None:
    span.attrs["itemsets"] = len(counts)


def _default_pool_member() -> Tuple[Any, str]:
    from repro.system import MiningSystem

    return type(MiningSystem().algorithm), "mine"


BOUNDARIES: List[Boundary] = [
    Boundary("system.run", "repro.system", "MiningSystem.run",
             _statement_before, _run_after),
    Boundary("system.refresh", "repro.system", "MiningSystem.refresh",
             _statement_before, _refresh_after),
    Boundary("translator.translate", "repro.kernel.translator",
             "Translator.translate", after=_translate_after),
    Boundary("preprocessor.run", "repro.kernel.preprocessor",
             "Preprocessor.run"),
    Boundary("sqlengine.prepare", "repro.sqlengine.engine",
             "Database.prepare", before=_prepare_before),
    # a statement arriving as text: its self time is the parse
    Boundary("sqlengine.text", "repro.sqlengine.engine", "Database.execute"),
    Boundary("sqlengine.execute", "repro.sqlengine.engine",
             "Database.execute_ast", before=_execute_before),
    Boundary("core.load", "repro.kernel.core.inputs",
             "CoreInputLoader.load_simple", after=_load_after),
    Boundary("core.load", "repro.kernel.core.inputs",
             "CoreInputLoader.load_simple_columns", after=_load_after),
    Boundary("core.load", "repro.kernel.core.inputs",
             "CoreInputLoader.load_general", after=_load_after),
    Boundary("core.simple", "repro.kernel.core.simple",
             "SimpleCoreOperator.run"),
    Boundary("algorithms.mine", "repro.system",
             "MiningSystem().algorithm.mine", after=_mine_after,
             locate=_default_pool_member),
    Boundary("core.general", "repro.kernel.core.general",
             "GeneralCoreOperator.run"),
    Boundary("postprocessor.store", "repro.kernel.postprocessor",
             "Postprocessor.store_encoded_rules"),
    Boundary("postprocessor.decode", "repro.kernel.postprocessor",
             "Postprocessor.decode"),
    Boundary("postprocessor.rules", "repro.kernel.postprocessor",
             "Postprocessor.decoded_rules"),
    Boundary("refresh.delta", "repro.incremental",
             "RefreshComputation.delta"),
    Boundary("refresh.recount", "repro.incremental",
             "RefreshComputation.recount"),
]


class Tracing:
    """Installs and removes the wrappers; ``missing`` lists the
    boundaries that did not resolve on this source."""

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder if recorder is not None else SpanRecorder()
        self.missing: List[str] = []
        #: span names at least one of whose boundaries is missing
        self.missing_spans: set = set()
        self._resolved: List[Tuple[Boundary, Any, str, Callable]] = []
        for boundary in BOUNDARIES:
            try:
                owner, attribute = boundary.resolve()
            except (ImportError, AttributeError, TypeError) as exc:
                self.missing.append(f"{boundary.label} ({exc})")
                self.missing_spans.add(boundary.span)
                continue
            self._resolved.append(
                (boundary, owner, attribute, vars(owner)[attribute])
            )
        self.installed = False

    def install(self) -> None:
        if self.installed:
            return
        for boundary, owner, attribute, original in self._resolved:
            setattr(owner, attribute, wrap(
                self.recorder, boundary.span, original,
                boundary.before, boundary.after,
            ))
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for _boundary, owner, attribute, original in self._resolved:
            setattr(owner, attribute, original)
        self.installed = False

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

"""The docs cannot go stale: every name they cite must exist.

Five checks over DESIGN.md, README.md and ``docs/*.md``:

* every dotted ``repro.…`` name resolves by import plus ``getattr``;
* every backticked CamelCase name is defined somewhere in ``repro``,
  is a Python builtin, or is one of the SQL table / column names the
  translator emits;
* every ``tests/…`` / ``benchmarks/…`` / ``tools/…`` path and every
  root-level ``BENCH_*`` record they cite exists (a glob matches
  something), and every ``test_*`` name is a test module or a test
  function under ``tests/`` or ``benchmarks/`` (``test_citation_rule``
  pins what this check flags);
* every id of DESIGN.md's experiment index is regenerated by the test
  modules its row names, or kept as a recorded result, and has its
  section in EXPERIMENTS.md, and every bench module that opens with an
  id is in that id's row;
* every ``repro_*`` series docs/OBSERVABILITY.md names is registered
  after one metered golden run, one refresh and one SQL job.

Four more keep the operator-facing surfaces honest:

* every ``Name(param=default, …)`` in the first column of
  docs/API.md's tables is the signature of that name, parameter names
  and defaults included;

* every ``--flag`` README.md, ``docs/*.md`` or the verify skill
  (``.claude/skills/verify/SKILL.md``) names for ``repro`` /
  ``repro serve`` is one of their parsers' options, unless the text
  right after it says the flag is gone, and then the parsers must
  reject it;
* every site in :mod:`repro.faults`' site table has a call site in
  ``src/``, and every literal call site is in the table;
* every pool member README.md, DESIGN.md, ``docs/*.md`` or
  ``examples/*.py`` picks by name (``get_algorithm("x")``,
  ``algorithm="x"``, ``.algorithm x``, ``--algorithm x``) is
  registered.
"""

import ast
import builtins
import contextlib
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro import Database, MiningSystem, cli, faults, serve
from repro.datagen import load_purchase_figure1
from repro.jobs.service import JobService
from repro.obs import MonitoringServer, profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "DESIGN.md", ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
CITED_PATH = re.compile(
    r"(?<![\w/.])(?:tests|benchmarks|tools)/[\w./*-]*[\w*]"
)
#: a record file at the repository root: ``BENCH_PR7.json``,
#: ``BENCH_PR<n>.json``, ``BENCH_TREND.{md,json}``
BENCH_RECORD = re.compile(r"\bBENCH_[\w<>*{},]+\.(?:json|md|\*|\{[\w,]+\})")
#: ``<n>`` and ``{a,b}`` in a cited name: globbed as ``*``
PLACEHOLDER = re.compile(r"<\w+>|\{[\w,]*\}")
TEST_NAME = re.compile(r"\btest_\w+(?![\w*])")
CAMEL = re.compile(r"`([A-Z][a-z0-9]+[A-Z]\w*)")
SERIES = re.compile(r"\brepro_[a-z0-9_]*[a-z0-9]")

#: tables and columns of the translation programs and of the examples,
#: which the docs cite in backticks like class names
SQL_NAMES = {
    "BodyId", "HeadId", "CodedSource", "ClusterCouples", "InputRules",
    "ValidGroups", "GroupCount", "MiningSource", "FilteredOrderedSets",
    "FilteredOrderedSets_Bodies",
}


def doc_lines():
    for path in DOCS:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield f"{path.relative_to(ROOT)}:{number}", line


def lookup(name):
    """Import the longest module prefix of *name*, then ``getattr``
    the rest (``AttributeError`` when a step is missing)."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            owner = getattr(owner, attribute)
        return owner
    raise AttributeError(name)


def resolves(name):
    try:
        lookup(name)
    except AttributeError:
        return False
    return True


def repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def defined_names():
    """Every top-level name of every ``repro`` module."""
    names = set(dir(builtins))
    for module in repro_modules():
        names.update(vars(module))
    return names


def test_every_dotted_repro_name_resolves():
    stale = [
        f"{where}: {name}"
        for where, line in doc_lines()
        for name in DOTTED.findall(line)
        if not resolves(name)
    ]
    assert stale == []


def test_every_backticked_class_name_is_defined():
    known = defined_names() | SQL_NAMES
    stale = [
        f"{where}: {name}"
        for where, line in doc_lines()
        for name in CAMEL.findall(line)
        if name not in known
    ]
    assert stale == []


#: the ways the docs and the examples pick a pool member by name:
#: ``get_algorithm("x")``, ``algorithm="x"``, ``.algorithm x`` and
#: ``--algorithm x``
ALGORITHM_NAME = re.compile(
    r"""get_algorithm\(\s*["'](\w+)["']"""
    r"""|\balgorithm\s*=\s*["'](\w+)["']"""
    r"""|(?<![\w)\]])\.algorithm[ \t]+(\w+)"""
    r"""|--algorithm[ \t=]+(\w+)"""
)


def test_every_documented_algorithm_name_is_registered():
    """README, DESIGN.md, ``docs/`` and ``examples/`` name only pool
    members that exist."""
    from repro.algorithms import ALGORITHMS

    sources = [*DOCS, *sorted((ROOT / "examples").glob("*.py"))]
    cited = [
        (f"{path.relative_to(ROOT)}:{number}", "".join(match))
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for match in ALGORITHM_NAME.findall(line)
    ]
    assert cited  # the patterns still match how the docs are written
    assert [f"{where}: {name}" for where, name in cited
            if name not in ALGORITHMS] == []


def defined_tests():
    """Every test module stem and ``test_*`` function under ``tests/``
    and ``benchmarks/``."""
    defined = set()
    for folder in ("tests", "benchmarks"):
        for path in ROOT.glob(f"{folder}/**/*.py"):
            defined.add(path.stem)
            defined.update(re.findall(r"def (test_\w+)", path.read_text()))
    return defined


def stale_citations(line, defined):
    """The paths, records and test names *line* cites that do not exist."""
    return [
        *(p for p in CITED_PATH.findall(line) if not any(ROOT.glob(p))),
        *(r for r in BENCH_RECORD.findall(line)
          if not any(ROOT.glob(PLACEHOLDER.sub("*", r)))),
        *(n for n in TEST_NAME.findall(line) if n not in defined),
    ]


def test_every_cited_test_exists():
    defined = defined_tests()
    stale = [
        f"{where}: {cited}"
        for where, line in doc_lines()
        for cited in stale_citations(line, defined)
    ]
    assert stale == []


@pytest.mark.parametrize("line, stale", [
    pytest.param("`tools/bench_trend.py` gathers them",
                 ["tools/bench_trend.py"], id="retired-tool"),
    pytest.param("`tools/run_report.py` renders a run", [], id="live-tool"),
    pytest.param("recorded to `BENCH_PR7.json`", ["BENCH_PR7.json"],
                 id="retired-record"),
    pytest.param("each PR's `BENCH_PR<n>.json`", ["BENCH_PR<n>.json"],
                 id="record-placeholder"),
    pytest.param("into `BENCH_TREND.{md,json}`", ["BENCH_TREND.{md,json}"],
                 id="record-alternatives"),
    pytest.param("see `BENCH_TREND.*`", ["BENCH_TREND.*"],
                 id="record-wildcard"),
    pytest.param("`BENCHMARK.json` declares the suite", [],
                 id="benchmark-declaration"),
    pytest.param("set `BENCH_QUICK=1` to shrink", [], id="environment"),
    pytest.param("`benchmarks/suite/tests` and "
                 "`benchmarks/test_bench_scaling.py`", [], id="live-paths"),
    pytest.param("`tests/integration/test_experiment_suite.py`",
                 ["tests/integration/test_experiment_suite.py",
                  "test_experiment_suite"], id="deleted-module"),
    pytest.param("`test_experiments_runs_suite`",
                 ["test_experiments_runs_suite"], id="deleted-test"),
    pytest.param("`test_syn8_scaleup_shape` guards SYN-8", [],
                 id="live-test"),
    pytest.param("`src/repro/tools/x.py` is no root path", [],
                 id="nested-tools"),
])
def test_citation_rule(line, stale):
    """What the citation check flags, on one line of prose: retired
    records and tools, a deleted test module or test, and nothing that
    exists or only looks alike."""
    assert stale_citations(line, defined_tests()) == stale


#: DESIGN.md §5's experiment ids, each a row of its index
EXPERIMENT_IDS = [
    "FIG1", "FIG2a", "FIG2b", "FIG3", "FIG4", "TAB-GRAMMAR", "APPA",
    "SYN-1", "SYN-2", "SYN-3", "SYN-4", "SYN-5", "SYN-6", "SYN-7", "SYN-8",
]


def experiment_index():
    """``{id: its "Regenerated by" cell}`` of DESIGN.md §5's table."""
    section = (ROOT / "DESIGN.md").read_text().split(
        "## 5. Experiments index", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| ([A-Z]{2,}[\w-]*) \|.*\| ([^|]*) \|$",
                           section, re.M))


def defines_a_test(path):
    return any(
        isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        for node in ast.walk(ast.parse(path.read_text()))
    )


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_every_experiment_is_regenerated_and_recorded(experiment):
    """The one experiment index holds: each id's row names the modules
    that regenerate it, which exist and define tests (a bench module
    opens its docstring with the id), or says that EXPERIMENTS.md keeps
    a recorded result; and EXPERIMENTS.md has a section for the id."""
    cell = experiment_index()[experiment]
    cited = re.findall(r"`((?:tests|benchmarks|examples)/[\w/]+\.py)`", cell)
    assert cited or "EXPERIMENTS.md" in cell
    family = re.sub(r"[a-z]$", "", experiment)
    for path in map(ROOT.joinpath, cited):
        assert path.is_file(), path
        if path.parent.name == "examples":
            continue
        assert defines_a_test(path), path
        if path.parent.name == "benchmarks":
            assert ast.get_docstring(ast.parse(path.read_text())).startswith(
                family), path
    assert re.search(rf"^## {re.escape(experiment)} —",
                     (ROOT / "EXPERIMENTS.md").read_text(), re.M)


def test_every_experiment_bench_is_indexed():
    """A bench module that opens with an experiment id is cited by that
    id's row of the index, and the index has no row beyond the ids."""
    index = experiment_index()
    assert sorted(index) == sorted(EXPERIMENT_IDS)
    for path in sorted(ROOT.glob("benchmarks/test_bench_*.py")):
        opening = ast.get_docstring(ast.parse(path.read_text()))
        family = re.match(r"(FIG\d|SYN-\d)\b", opening)
        if family:
            rows = [cell for id_, cell in index.items()
                    if id_.startswith(family.group(1))]
            assert any(path.name in cell for cell in rows), path


@pytest.fixture(scope="module")
def metered_registry():
    """A registry after what a serving session does: a golden MINE
    RULE, a REFRESH RULES and a SQL job, exported by a monitor."""
    registry = MetricsRegistry()
    MonitoringServer(registry)  # registers its error counter
    database = Database()
    load_purchase_figure1(database)
    tracer = Tracer(metrics=registry, profile_mem=True)
    try:
        system = MiningSystem(
            database=database, tracer=tracer, metrics=registry,
        )
        system.run(GOLDEN_STATEMENTS["simple_associations"])
        system.refresh("SimpleAssociations")
        with JobService(system, workers=1) as service:
            job = service.submit(
                "SELECT item FROM Purchase WHERE price > 100"
            )
            assert service.wait(job.id).state == "done"
    finally:
        profile.stop_memory_tracking()
    return registry


def test_every_documented_series_is_registered(metered_registry):
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    documented = set(SERIES.findall(text))
    assert documented
    assert sorted(
        name for name in documented if metered_registry.get(name) is None
    ) == []


PARAMETER = re.compile(r"^(\*{0,2})([A-Za-z_]\w*)(?:=(.+))?$")


def split_parameters(text):
    """*text*'s comma-separated parts, at bracket depth 0."""
    parts, depth, start = [], 0, 0
    for position, char in enumerate(text):
        depth += char in "([{"
        depth -= char in ")]}"
        if char == "," and depth == 0:
            parts.append(text[start:position].strip())
            start = position + 1
    return parts + [text[start:].strip()] if text.strip() else parts


def documented_signatures():
    """``(cell text, dotted name, [(stars, name, default text)])`` for
    every first-column code span of docs/API.md that is one call of a
    dotted name whose arguments are all parameters — not call examples
    such as ``FaultSchedule.parse("...")``, elisions (``...``) or SQL
    functions (``MOD(a, b)``)."""
    text = (ROOT / "docs" / "API.md").read_text()
    for row in re.findall(r"^\| `([^`]+)`", text, re.M):
        call = re.match(r"^([A-Za-z_][\w.]*)\((.*)\)$", row)
        if not call or "..." in row or "…" in row:
            continue
        name, inner = call.groups()
        if name.isupper():
            continue
        depth = 0
        for char in inner:
            depth += (char == "(") - (char == ")")
            if depth < 0:
                break  # a chained call: Translator(db).translate(...)
        if depth:
            continue
        parameters = [PARAMETER.match(part) for part in split_parameters(inner)]
        if all(parameters):
            yield row, name, [match.groups() for match in parameters]


def resolve_documented(name):
    """The object a dotted API.md name stands for: its head is a
    ``repro`` module or a name one of them defines."""
    if name.startswith("repro."):
        return lookup(name)
    head, *rest = name.split(".")
    for module in repro_modules():
        owner = vars(module).get(head)
        home = getattr(owner, "__name__", "") if inspect.ismodule(owner) \
            else getattr(owner, "__module__", "")
        if owner is not None and home.startswith("repro"):
            for attribute in rest:
                owner = getattr(owner, attribute)
            return owner
    raise AssertionError(f"API.md names {name!r}, which repro does not define")


def test_every_documented_signature_is_the_real_one():
    signatures = list(documented_signatures())
    assert {"MiningSystem", "MiningSystem.run", "MiningSystem.refresh",
            "Database", "RetryPolicy",
            "JobService"} <= {name for _, name, _ in signatures}
    stars = {inspect.Parameter.VAR_POSITIONAL: "*",
             inspect.Parameter.VAR_KEYWORD: "**"}
    stale = []
    for row, name, documented in signatures:
        target = resolve_documented(name)
        try:
            signature = inspect.signature(target)
        except ValueError:
            continue  # `RefreshError(MineRuleError)` names a base class
        actual = [
            parameter for parameter in signature.parameters.values()
            if parameter.name not in ("self", "cls")
        ]
        # defaults are written in the names of the defining module
        namespace = vars(inspect.getmodule(target))
        same = [(kind, param) for kind, param, _ in documented] == [
            (stars.get(p.kind, ""), p.name) for p in actual
        ] and all(
            p.default is inspect.Parameter.empty if default is None
            else eval(default, namespace) == p.default
            for (_, _, default), p in zip(documented, actual)
        )
        if not same:
            stale.append(f"{row}  !=  {name}{signature}")
    assert stale == []


#: commands of other tools, whose flags are theirs
FOREIGN = re.compile(r"pytest|benchmarks[./]suite|tools/\w+\.py")
FLAG = re.compile(r"--[a-z][a-z0-9-]*")
GONE = re.compile(r"\b(?:gone|rejected)\b")


def parser_options(main):
    """The ``--`` options *main*'s parser defines, read off ``--help``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["--help"])
    options = set()
    for line in out.getvalue().splitlines():
        signature = re.match(r"\s+(-\S.*?)(?:\s{2,}|$)", line)
        if signature:
            options.update(FLAG.findall(signature.group(1)))
    return options


def commands(text):
    """``(command, what follows it)`` for each fenced code line (with
    its backslash continuations) and each inline code span of *text*."""
    prose = []
    for number, block in enumerate(re.split(r"^```.*$", text, flags=re.M)):
        if number % 2:
            for line in block.replace("\\\n", " ").splitlines():
                yield line, ""
        else:
            prose.append(block)
    prose = "".join(prose)
    for span in re.finditer(r"`((?:[^`\n]|\n(?!\s*\n))+)`", prose):
        yield span.group(1), prose[span.end():span.end() + 60]


def test_every_documented_cli_flag_exists():
    options = parser_options(cli.main) | parser_options(serve.main)
    assert {"--trace-out", "--job-workers"} <= options
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    unknown, revived = [], []
    for path in docs:
        for command, after in commands(path.read_text()):
            if FOREIGN.search(command):
                continue
            for flag in FLAG.findall(command):
                if GONE.search(after):
                    if flag in options:
                        revived.append(f"{path.name}: {flag}")
                elif flag not in options:
                    unknown.append(f"{path.name}: {flag}")
    assert unknown == []
    assert revived == []


def fault_call_sites():
    """The site names ``src/`` passes to ``faults.check`` or to
    ``RunContext.attempt(..., own_site=True)``, an f-string's fields
    as ``<>``."""
    sites = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            checks = (func.attr == "check"
                      and isinstance(func.value, ast.Name)
                      and func.value.id == "faults")
            owns = func.attr == "attempt" and any(
                k.arg == "own_site" and getattr(k.value, "value", False)
                for k in node.keywords
            )
            site = node.args[0]
            if not (checks or owns):
                continue
            if isinstance(site, ast.Constant):
                sites.add(site.value)
            elif isinstance(site, ast.JoinedStr):
                sites.add("".join(
                    part.value if isinstance(part, ast.Constant) else "<>"
                    for part in site.values
                ))
    return sites


def test_every_fault_site_has_a_call_site():
    table = {
        re.sub(r"<\w+>", "<>", site)
        for site in re.findall(r"^``([\w.<>]+)``", faults.__doc__, re.M)
    }
    assert {"engine.execute", "preprocessor.<>", "jobs.run.<>"} <= table
    sites = fault_call_sites()
    assert sorted(table - sites) == []
    assert sorted(sites - table) == []

"""The docs cannot go stale: every name they cite must exist.

Three checks over DESIGN.md, README.md and ``docs/*.md``:

* every dotted ``repro.…`` name resolves by import plus ``getattr``;
* every backticked CamelCase name is defined somewhere in ``repro``,
  is a Python builtin, or is one of the SQL table / column names the
  translator emits;
* every ``repro_*`` series docs/OBSERVABILITY.md names is registered
  after one metered golden run, one refresh and one SQL job.
"""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.jobs.service import JobService
from repro.obs import profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from tests.integration.test_golden_outputs import GOLDEN_STATEMENTS

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "DESIGN.md", ROOT / "README.md",
        *sorted((ROOT / "docs").glob("*.md"))]

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
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


def resolves(name):
    """Import the longest module prefix of *name*, then ``getattr``
    the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for attribute in parts[cut:]:
                owner = getattr(owner, attribute)
        except AttributeError:
            return False
        return True
    return False


def defined_names():
    """Every top-level name of every ``repro`` module."""
    names = set(dir(builtins))
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        names.update(vars(importlib.import_module(info.name)))
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


@pytest.fixture(scope="module")
def metered_registry():
    """A registry after what a serving session does: a golden MINE
    RULE, a REFRESH RULES and a SQL job (one the row executor runs,
    so the fallback series exists too)."""
    registry = MetricsRegistry()
    database = Database()
    load_purchase_figure1(database)
    tracer = Tracer(metrics=registry, profile_mem=True)
    try:
        system = MiningSystem(
            database=database, tracer=tracer, metrics=registry,
        )
        system.run(GOLDEN_STATEMENTS["simple_associations"])
        system.refresh("SimpleAssociations")
        with JobService(system, workers=1, metrics=registry) as service:
            job = service.submit(
                "SELECT CASE WHEN price > 100 THEN 1 ELSE 0 END FROM Purchase"
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

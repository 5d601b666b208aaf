"""The bench-report artifact writer must survive bad prior files, and
write nothing under quick mode."""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _bench_conftest():
    """Import benchmarks/conftest.py as a plain module (the benchmarks
    directory is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_conftest", module)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_conftest()


class TestLoadReport:
    def test_missing_file_is_empty(self, tmp_path):
        assert BENCH.load_report(tmp_path / "nope.json") == {}

    def test_corrupt_json_is_empty(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text("{ this is not json", encoding="utf-8")
        assert BENCH.load_report(path) == {}

    def test_truncated_json_is_empty(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text('{"fig1": {"speedup":', encoding="utf-8")
        assert BENCH.load_report(path) == {}

    def test_non_object_document_is_empty(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text('["a", "list"]', encoding="utf-8")
        assert BENCH.load_report(path) == {}

    def test_valid_document_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text('{"fig1": {"speedup": 2.5}}', encoding="utf-8")
        assert BENCH.load_report(path) == {"fig1": {"speedup": 2.5}}

    def test_directory_path_is_empty(self, tmp_path):
        assert BENCH.load_report(tmp_path) == {}


class TestMergeReport:
    def test_merge_keeps_prior_entries(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text('{"old": 1, "both": 1}', encoding="utf-8")
        merged = BENCH.merge_report(path, {"both": 2, "new": 3})
        assert merged == {"old": 1, "both": 2, "new": 3}
        assert json.loads(path.read_text(encoding="utf-8")) == merged

    def test_merge_over_corrupt_prior_writes_fresh(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        path.write_text("not json at all", encoding="utf-8")
        merged = BENCH.merge_report(path, {"fig1": {"ms": 12}})
        assert merged == {"fig1": {"ms": 12}}
        assert json.loads(path.read_text(encoding="utf-8")) == merged

    def test_merge_creates_missing_file(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        BENCH.merge_report(path, {"a": 1})
        assert json.loads(path.read_text(encoding="utf-8")) == {"a": 1}


def finish_module(fixture):
    """Run the module-scoped report fixture to its teardown."""
    steps = getattr(fixture, "__wrapped__", fixture)()
    next(steps)
    for _ in steps:
        pass


class TestBenchReportFixture:
    def test_full_run_merges_the_report(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BENCH, "BENCH_QUICK", False)
        path = tmp_path / "BENCH_X.json"  # absolute: the repo root is ignored
        report, fixture = BENCH.bench_report(str(path))
        report["fig1"] = {"ms": 12}
        finish_module(fixture)
        assert json.loads(path.read_text(encoding="utf-8")) == report

    def test_quick_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(BENCH, "BENCH_QUICK", True)
        path = tmp_path / "BENCH_X.json"
        path.write_text('{"fig1": {"ms": 12}}', encoding="utf-8")
        report, fixture = BENCH.bench_report(str(path))
        report["fig1"] = {"ms": 1}
        finish_module(fixture)
        assert path.read_text(encoding="utf-8") == '{"fig1": {"ms": 12}}'

"""Shell / CLI tests (the user-support entry point)."""

import re

import pytest

from repro import cli
from repro.cli import SCENARIOS, Shell, main

MINE = (
    "MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.9"
)


@pytest.fixture
def shell():
    sh = Shell()
    sh.execute(".load purchase")
    return sh


class TestMetaCommands:
    def test_load_reports_rows(self):
        sh = Shell()
        assert "8 rows" in sh.execute(".load purchase")

    def test_load_unknown_scenario(self):
        sh = Shell()
        out = sh.execute(".load nothere")
        assert "unknown scenario" in out
        assert "purchase" in out

    def test_all_scenarios_load(self):
        for name in SCENARIOS:
            sh = Shell()
            assert "loaded" in sh.execute(f".load {name}")

    def test_tables(self, shell):
        assert "Purchase" in shell.execute(".tables")

    def test_tables_empty(self):
        assert "(no tables)" in Shell().execute(".tables")

    def test_schema(self, shell):
        out = shell.execute(".schema Purchase")
        assert "item" in out and "price" in out

    def test_schema_missing_argument(self, shell):
        assert "usage" in shell.execute(".schema")

    def test_algorithm_switch(self, shell):
        assert "eclat" in shell.execute(".algorithm eclat")
        assert shell.system.algorithm.name == "eclat"

    def test_algorithm_unknown(self, shell):
        assert shell.execute(".algorithm xx") == (
            "unknown mining algorithm 'xx'; available: apriori, auto, eclat"
        )

    def test_explain(self, shell):
        out = shell.execute(".explain SELECT item FROM Purchase "
                            "WHERE price > 100")
        assert "Scan Purchase" in out

    def test_timing_toggle(self, shell):
        assert "timing on" in shell.execute(".timing on")
        out = shell.execute("SELECT COUNT(*) FROM Purchase")
        assert "ms)" in out
        shell.execute(".timing off")

    def test_help(self, shell):
        assert ".load" in shell.execute(".help")

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.execute(".bogus")

    #: every meta command the ``.help`` table lists but ``.quit``, which
    #: leaves the shell (``test_quit_raises_eof``)
    @pytest.mark.parametrize("command", [
        command
        for command in re.findall(r"^``(\.\w+)", cli.__doc__, re.M)
        if command != ".quit"
    ])
    def test_every_listed_command_is_answered(self, shell, command):
        """A help line outlives no command: bare, each listed command
        answers (its usage, at worst) instead of being unknown."""
        assert not shell.execute(command).startswith("unknown command")

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.execute(".quit")


class TestStatements:
    def test_sql_select(self, shell):
        out = shell.execute("SELECT COUNT(*) FROM Purchase")
        assert "8" in out and "(1 rows)" in out

    def test_sql_ddl(self, shell):
        out = shell.execute("CREATE TABLE t (a INTEGER)")
        assert out.startswith("ok")

    def test_sql_error_is_reported_not_raised(self, shell):
        out = shell.execute("SELECT nothing FROM nowhere")
        assert out.startswith("error:")

    def test_mine_rule_statement(self, shell):
        out = shell.execute(MINE)
        assert "directives" in out
        assert "R_Display" in out
        assert "{" in out  # rendered rules

    def test_mine_rule_error_reported(self, shell):
        out = shell.execute("MINE RULE broken AS SELECT nothing")
        assert out.startswith("error:")

    def test_load_invalidates_preprocessing_cache(self, shell):
        shell.execute(MINE)
        shell.execute(".load purchase")
        result = shell.system.execute(MINE)
        assert not result.preprocessing_reused


class TestLineFeeding:
    def test_multiline_statement_buffers(self, shell):
        assert shell.feed("SELECT COUNT(*)") is None
        assert shell.pending
        out = shell.feed("FROM Purchase;")
        assert out is not None and "8" in out
        assert not shell.pending

    def test_meta_commands_bypass_buffer(self, shell):
        out = shell.feed(".tables")
        assert out is not None


class TestBatchSizeFlag:
    @pytest.mark.parametrize("value", ["0", "-4", "many"])
    def test_bad_value_is_a_usage_error(self, value, capsys):
        """Both front ends refuse a batch size below 1 at the command
        line: exit 2 and a usage line, not a ``ValueError``
        traceback from ``EngineOptions``."""
        from repro import serve

        for entry in (main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                entry(["--batch-size", value])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:"), err
            assert "--batch-size" in err

    def test_good_value_reaches_the_engine(self, capsys):
        code = main(["--batch-size", "16", "-c", ".load purchase",
                     "-c", "SELECT COUNT(*) FROM Purchase"])
        assert code == 0
        assert "8" in capsys.readouterr().out


class TestRemovedPoolMembers:
    """The members that left the pool are unknown algorithms at every
    entry point, and each error lists the pool that is left."""

    @pytest.mark.parametrize(
        "name", ["dhp", "partition", "sampling", "aprioritid", "exhaustive"]
    )
    def test_is_an_unknown_algorithm_everywhere(self, name, shell, capsys):
        from repro import serve
        from repro.algorithms import get_algorithm

        with pytest.raises(KeyError) as excinfo:
            get_algorithm(name)
        message = (
            f"unknown mining algorithm {name!r}; "
            "available: apriori, auto, eclat"
        )
        assert excinfo.value.args == (message,)
        assert shell.execute(f".algorithm {name}") == message
        assert shell.system.algorithm.name == "apriori"
        for entry in (main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                entry(["--algorithm", name])
            assert exit_info.value.code == 2
            assert (
                f"argument --algorithm: invalid choice: {name!r} "
                "(choose from 'apriori', 'auto', 'eclat')"
            ) in capsys.readouterr().err


class TestRerunAfterFault:
    def test_resume_flag_is_rejected(self, capsys):
        """A crashed statement is finished by running it again: neither
        front end takes the flag that resumed it from a checkpoint."""
        from repro import serve

        for entry in (main, serve.main):
            with pytest.raises(SystemExit) as exit_info:
                entry(["--resume"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --resume" in (
                capsys.readouterr().err
            )

    def test_fault_message_points_at_a_rerun(self, shell):
        from repro import FaultSchedule, faults

        with faults.injected(FaultSchedule().arm("core.bitset")):
            out = shell.execute(MINE)
        assert out.startswith("error: injected fault at core.bitset (call 1)")
        assert "--resume" not in out
        assert (
            "a re-run reuses the encoded tables if preprocessing had "
            "finished" in out
        )
        assert "directives" in shell.execute(MINE)


class TestBatchMain:
    def test_commands_run_in_order(self, capsys):
        code = main([
            "-c", ".load purchase",
            "-c", "SELECT COUNT(*) FROM Purchase",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "loaded Purchase" in captured
        assert "8" in captured

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "session.sql"
        script.write_text(
            ".load purchase;\nSELECT COUNT(*) FROM Purchase;\n"
        )
        # meta commands in files are split on ';' like statements
        code = main(["-f", str(script)])
        assert code == 0
        assert "8" in capsys.readouterr().out

    def test_algorithm_flag(self, capsys):
        code = main(["--algorithm", "eclat", "-c", ".load purchase",
                     "-c", MINE])
        assert code == 0
        assert "directives" in capsys.readouterr().out


class TestObservabilityCommands:
    def traced_shell(self):
        from repro.obs import Tracer

        sh = Shell(tracer=Tracer(enabled=True, analyze=True))
        sh.execute(".load purchase")
        return sh

    def test_analyze_meta_shows_actuals(self, shell):
        out = shell.execute(".analyze SELECT item FROM Purchase "
                            "WHERE price > 100")
        assert "actual rows=" in out
        assert "Execution:" in out

    def test_analyze_requires_argument(self, shell):
        assert "usage" in shell.execute(".analyze")

    def test_explain_analyze_sql_prefix(self, shell):
        out = shell.execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM Purchase"
        )
        assert "actual rows=" in out

    def test_explain_sql_prefix(self, shell):
        out = shell.execute("EXPLAIN SELECT item FROM Purchase")
        assert "Scan Purchase" in out
        assert "actual rows=" not in out

    def test_trace_off_by_default(self, shell):
        assert "tracing is off" in shell.execute(".trace")

    def test_trace_reports_spans(self):
        sh = self.traced_shell()
        sh.execute(MINE)
        out = sh.execute(".trace")
        assert "spans" in out

    def test_trace_writes_chrome_json(self, tmp_path):
        import json

        sh = self.traced_shell()
        sh.execute(MINE)
        target = tmp_path / "trace.json"
        out = sh.execute(f".trace {target}")
        assert "wrote" in out
        data = json.loads(target.read_text(encoding="utf-8"))
        names = {e["name"] for e in data["traceEvents"]}
        assert "preprocessor" in names

    def test_trace_out_flag_writes_on_exit(self, tmp_path, capsys):
        import json

        target = tmp_path / "run.json"
        code = main([
            "--trace-out", str(target),
            "-c", ".load purchase",
            "-c", MINE,
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        data = json.loads(target.read_text(encoding="utf-8"))
        names = {e["name"] for e in data["traceEvents"]}
        for component in ("translator", "preprocessor", "core",
                          "postprocessor"):
            assert component in names


class TestDumpRestore:
    def test_dump_and_restore_roundtrip(self, shell, tmp_path):
        target = tmp_path / "session"
        out = shell.execute(f".dump {target}")
        assert "dumped" in out
        fresh = Shell()
        assert "restored" in fresh.execute(f".restore {target}")
        assert "8" in fresh.execute("SELECT COUNT(*) FROM Purchase")

    def test_restore_rebinds_the_live_system(self, shell, tmp_path):
        """``.restore`` used to build a second MiningSystem without the
        journal and the retry policy, leaving an attached job service
        on the pre-restore database."""
        from repro.faults import RetryPolicy
        from repro.jobs.service import JobService
        from repro.obs import RunLog, Tracer

        target = tmp_path / "session"
        shell.execute(f".dump {target}")
        journal = RunLog()
        policy = RetryPolicy(max_attempts=2)
        tracer = Tracer()
        tracer.attach(journal)
        fresh = Shell(tracer=tracer, retry_policy=policy, batch_size=16)
        system = fresh.system
        with JobService(system, workers=1) as jobs:
            fresh.jobs = jobs
            assert "restored" in fresh.execute(f".restore {target}")
            assert fresh.system is system and jobs.system is system
            assert system.tracer.attached(RunLog) is journal
            assert system.retry_policy is policy
            assert fresh.db.options.batch_size == 16
            fresh.execute(
                "INSERT INTO Purchase VALUES "
                "(9, 'cust3', 'ski_pants', DATE '1995-12-20', 140, 1)"
            )
            job = jobs.wait(jobs.submit("SELECT COUNT(*) FROM Purchase").id)
            assert job.state == "done" and job.result["rows"] == [[9]]
            assert "9" in fresh.execute("SELECT COUNT(*) FROM Purchase")
            assert "rules" in fresh.execute(MINE)
        mined = journal.list(kind="mine")
        assert len(mined) == 1 and mined[0]["status"] == "ok"

    def test_restore_forgets_what_described_the_old_catalog(
        self, shell, tmp_path
    ):
        target = tmp_path / "session"
        shell.execute(f".dump {target}")
        shell.execute(MINE)
        assert shell.system._refresh_registry
        shell.execute(f".restore {target}")
        assert not shell.system._refresh_registry
        assert not shell.system._preprocess_cache
        assert "no MINE RULE run recorded" in shell.execute("REFRESH RULES R")
        assert "rules" in shell.execute(MINE)

    def test_dump_requires_argument(self, shell):
        assert "usage" in shell.execute(".dump")

    def test_restore_requires_argument(self, shell):
        assert "usage" in shell.execute(".restore")

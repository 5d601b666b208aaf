"""Concurrency stress battery: N client threads, one database.

The acceptance gate of the concurrent-service work: 8 client threads
submit a mixed workload (MINE RULE + DML + scans) against one shared
:class:`MiningSystem` through the job service, and

* every MINE RULE job's rule output is **bit-identical** to running
  the same statement serially on an equivalent database;
* concurrent scans never observe a torn write (a CASE transfer update
  that preserves an invariant SUM);
* concurrent increments never lose an update;
* the job metrics series (``repro_jobs_queue_depth``,
  ``repro_job_seconds``) are live during the run.

The DML targets tables disjoint from the mining input (``Purchase``
stays untouched), so the serial baseline is well-defined no matter how
the scheduler interleaves the jobs.
"""

import threading

import pytest

from repro import Database, MiningSystem
from repro.datagen import load_purchase_figure1
from repro.jobs import DONE, JobService
from repro.obs.metrics import MetricsRegistry
from repro.sqlengine.dump import dump_table_text

CLIENTS = 8
INCREMENTS_PER_CLIENT = 5
TRANSFERS_PER_CLIENT = 5

#: every client mines with its own output table so concurrent runs
#: never collide on output relations
MINE_TEMPLATE = (
    "MINE RULE Stress{n} AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)

GENERAL_TEMPLATE = (
    "MINE RULE StressGeneral{n} AS "
    "SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, "
    "SUPPORT, CONFIDENCE "
    "WHERE BODY.price >= 100 AND HEAD.price < 100 "
    "FROM Purchase GROUP BY customer "
    "CLUSTER BY date HAVING BODY.date < HEAD.date "
    "EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.3"
)


def make_database() -> Database:
    database = Database()
    load_purchase_figure1(database)
    database.execute("CREATE TABLE Bank (id INTEGER, amount INTEGER)")
    database.execute("INSERT INTO Bank VALUES (1, 150)")
    database.execute("INSERT INTO Bank VALUES (2, 50)")
    database.execute("CREATE TABLE Tally (n INTEGER)")
    database.execute("INSERT INTO Tally VALUES (0)")
    return database


def client_statements(client: int):
    """The mixed statement stream of one client thread."""
    statements = [MINE_TEMPLATE.format(n=client)]
    if client % 2 == 0:
        statements.append(GENERAL_TEMPLATE.format(n=client))
    for i in range(TRANSFERS_PER_CLIENT):
        sign = 10 if (client + i) % 2 == 0 else -10
        statements.append(
            "UPDATE Bank SET amount = CASE id "
            f"WHEN 1 THEN amount - {sign} "
            f"ELSE amount + {sign} END"
        )
    statements.extend(
        "UPDATE Tally SET n = n + 1"
        for _ in range(INCREMENTS_PER_CLIENT)
    )
    statements.extend(
        "SELECT SUM(amount) AS total FROM Bank" for _ in range(3)
    )
    return statements


@pytest.fixture(scope="module")
def serial_baseline():
    """Rule sets + display dumps of every mine statement, serially."""
    database = make_database()
    system = MiningSystem(database=database, reuse_preprocessing=False)
    baseline = {}
    for client in range(CLIENTS):
        statements = [MINE_TEMPLATE.format(n=client)]
        if client % 2 == 0:
            statements.append(GENERAL_TEMPLATE.format(n=client))
        for statement in statements:
            result = system.run(statement)
            out = result.output_table
            baseline[out] = (
                result.rule_set(),
                dump_table_text(database, f"{out}_Display"),
            )
    return baseline


def test_eight_thread_mixed_stress(serial_baseline):
    registry = MetricsRegistry()
    database = make_database()
    system = MiningSystem(
        database=database, reuse_preprocessing=False, metrics=registry
    )
    service = JobService(system, workers=CLIENTS, queue_size=256)
    submitted = []
    submitted_lock = threading.Lock()
    errors = []

    def client(n):
        try:
            jobs = [
                service.submit(statement)
                for statement in client_statements(n)
            ]
            with submitted_lock:
                submitted.extend(jobs)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with service:
        threads = [
            threading.Thread(target=client, args=(n,))
            for n in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        finished = [service.wait(job.id, timeout=300) for job in submitted]

    # -- every job completed --------------------------------------------
    assert all(job.state == DONE for job in finished), [
        (job.id, job.state, job.error)
        for job in finished
        if job.state != DONE
    ]

    # -- every mine job bit-identical to its serial execution -----------
    mine_jobs = [job for job in finished if job.kind == "mine"]
    assert len(mine_jobs) == CLIENTS + CLIENTS // 2
    for job in mine_jobs:
        out = job.result["output_table"]
        expected_rules, expected_display = serial_baseline[out]
        got_rules = {
            (frozenset(body), frozenset(head), support, confidence)
            for body, head, support, confidence in job.result["rules"]
        }
        assert got_rules == expected_rules, f"{out}: rule set diverged"
        assert job.result["display"] == expected_display, (
            f"{out}: display dump diverged from serial execution"
        )
        # the stored output relation survives concurrent runs intact
        assert (
            dump_table_text(database, f"{out}_Display")
            == expected_display
        )

    # -- no torn reads: every concurrent SUM saw the invariant ----------
    sums = [
        job.result["rows"][0][0]
        for job in finished
        if job.kind == "sql" and job.statement.startswith("SELECT SUM")
    ]
    assert sums and set(sums) == {200}

    # -- no lost updates: every increment landed ------------------------
    assert database.query("SELECT n FROM Tally") == [
        (CLIENTS * INCREMENTS_PER_CLIENT,)
    ]
    # transfers are balanced per client, so the final state is exact
    assert database.query(
        "SELECT SUM(amount) FROM Bank"
    ) == [(200,)]

    # -- job metrics series live during the run -------------------------
    snapshot = registry.snapshot()
    assert "repro_jobs_queue_depth" in snapshot
    job_seconds = snapshot["repro_job_seconds"]["samples"]
    observed = {
        (labels["kind"], labels["status"])
        for labels, in ((s["labels"],) for s in job_seconds)
    }
    assert ("mine", "done") in observed
    assert ("sql", "done") in observed
    totals = {
        s["labels"]["status"]: s["value"]
        for s in snapshot["repro_jobs_total"]["samples"]
    }
    assert totals["done"] == len(finished)


def test_concurrent_reads_share_the_engine(serial_baseline):
    """Read-only SQL jobs proceed in parallel (shared read lock):
    with workers parked inside slow scans, the engine must report
    multiple concurrent readers at least once."""
    import time

    database = make_database()
    database.execute("CREATE TABLE Big (k INTEGER, v INTEGER)")
    for i in range(400):
        database.execute(f"INSERT INTO Big VALUES ({i % 20}, {i})")
    system = MiningSystem(database=database)
    service = JobService(system, workers=4, queue_size=64)
    peak = {"readers": 0}
    stop = threading.Event()

    def watch():
        while not stop.is_set():
            status = database.rwlock.status()
            peak["readers"] = max(peak["readers"], status["readers"])
            time.sleep(0.001)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        with service:
            jobs = [
                service.submit(
                    "SELECT b1.k, COUNT(*) AS pairs "
                    "FROM Big b1, Big b2 "
                    "WHERE b1.v < b2.v GROUP BY b1.k"
                )
                for _ in range(12)
            ]
            finished = [service.wait(job.id, timeout=300) for job in jobs]
    finally:
        stop.set()
        watcher.join()
    assert all(job.state == DONE for job in finished)
    first = finished[0].result["rows"]
    assert all(job.result["rows"] == first for job in finished)
    assert peak["readers"] >= 2, "scans never overlapped"

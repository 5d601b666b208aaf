"""Thread-safety regression tests for the engine layer.

The jobs subsystem executes statements from a pool of worker threads
against one shared :class:`Database`; these tests hammer the pieces
that used to assume a single thread — the statement/plan caches, the
catalog version counter, sequences, host-variable bindings — plus the
reader/writer lock itself.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.sqlengine.catalog import Sequence
from repro.sqlengine.engine import Database
from repro.sqlengine.locks import RWLock

THREADS = 8


def run_threads(count, target):
    """Run *target(i)* on *count* threads; re-raise the first error."""
    errors = []

    def wrapped(i):
        try:
            target(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# RWLock
# ---------------------------------------------------------------------------


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = threading.Barrier(4, timeout=5)

        def reader(i):
            with lock.read_locked():
                inside.wait()  # all 4 readers in simultaneously

        run_threads(4, reader)

    def test_writer_excludes_writers_and_readers(self):
        lock = RWLock()
        counter = {"value": 0, "max": 0}
        active = threading.Lock()

        def writer(i):
            with lock.write_locked():
                with active:
                    counter["value"] += 1
                    counter["max"] = max(counter["max"], counter["value"])
                with active:
                    counter["value"] -= 1

        run_threads(8, writer)
        assert counter["max"] == 1

    def test_write_reentrant_and_nested_read(self):
        lock = RWLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():
                    assert lock.status()["writer_depth"] == 2

    def test_read_reentrant(self):
        lock = RWLock()
        with lock.read_locked():
            with lock.read_locked():
                assert lock.status()["readers"] == 2

    def test_upgrade_raises(self):
        lock = RWLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_release_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        order = []
        reader_in = threading.Event()
        writer_waiting = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                writer_waiting.wait(timeout=5)
                # give the writer time to queue up before releasing

        def writer():
            reader_in.wait(timeout=5)
            writer_waiting.set()
            with lock.write_locked():
                order.append("writer")

        def second_reader():
            writer_waiting.wait(timeout=5)
            with lock.read_locked():
                order.append("reader2")

        threads = [
            threading.Thread(target=t)
            for t in (first_reader, writer, second_reader)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert order[0] == "writer"  # writer preference


# ---------------------------------------------------------------------------
# the statement cache and the plans on its entries from 8 threads
# ---------------------------------------------------------------------------


class TestPrepareHammer:
    def test_prepare_hammer_8_threads(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        for i in range(50):
            db.execute(f"INSERT INTO t VALUES ({i % 10}, {i})")
        statements = [
            f"SELECT k, COUNT(*) AS c FROM t WHERE k >= {i} GROUP BY k"
            for i in range(6)
        ]
        expected = {sql: db.execute(sql).rows for sql in statements}
        db.clear_caches()

        def hammer(i):
            for round_ in range(40):
                sql = statements[(i + round_) % len(statements)]
                assert db.execute(sql).rows == expected[sql]

        run_threads(THREADS, hammer)
        # the statement cache must hold exactly one entry per text,
        # each planned once: every later execution hit its plan
        assert len(db._statement_cache) == len(statements)
        assert db.cache_stats.plan_misses == 2 * len(statements)
        assert db.cache_stats.plan_hits == THREADS * 40 - len(statements)

    def test_shared_plan_thread_local_params(self):
        """Concurrent executions of one cached plan must each see
        their own host variables (the old rebinding race)."""
        db = Database()
        db.execute("CREATE TABLE n (v INTEGER)")
        for i in range(10):
            db.execute(f"INSERT INTO n VALUES ({i})")
        sql = "SELECT COUNT(*) AS c FROM n WHERE v < :limit"
        barrier = threading.Barrier(THREADS, timeout=10)

        def probe(i):
            for _ in range(30):
                barrier.wait()
                rows = db.execute(sql, {"limit": i}).rows
                assert rows == [(i,)], f"thread {i} saw {rows}"

        run_threads(THREADS, probe)

    def test_shared_row_plan_correlated_closures_thread_local_params(self):
        """The same contract for correlated subqueries: an EXISTS and
        a scalar subquery whose aggregate reads the outer row, and
        ORDER BY SUM(x), on one cached plan.  Each run of a subquery
        binds its outer values per execution, never on the shared
        plan."""
        db = Database()
        db.execute("CREATE TABLE o (k INTEGER, w INTEGER)")
        db.execute("CREATE TABLE m (k INTEGER, v INTEGER)")
        for k in (1, 2, 3):
            db.table("o").insert_many([(k, 10 - k), (k, 2 * k)])
            db.table("m").insert_many((k, v) for v in range(6))
        sql = (
            "SELECT o.k, SUM(o.w), (SELECT SUM(m.v * o.k) FROM m "
            "WHERE m.k = o.k AND m.v < :limit) FROM o "
            "WHERE EXISTS (SELECT 1 FROM m WHERE m.k = o.k AND m.v = :limit) "
            "GROUP BY o.k ORDER BY SUM(o.w + :limit) DESC, o.k"
        )
        db.clear_caches()
        misses = db.cache_stats.plan_misses
        limits = (2, 5)
        barrier = threading.Barrier(len(limits), timeout=10)

        def probe(i):
            limit = limits[i]
            expected = [(k, 10 + k, k * sum(range(limit))) for k in (3, 2, 1)]
            for _ in range(30):
                barrier.wait()
                assert db.execute(sql, {"limit": limit}).rows == expected

        run_threads(len(limits), probe)
        # one cached plan: the subqueries' plans are built inside it,
        # against its frame
        assert db.cache_stats.plan_misses == misses + 1

    def test_statements_executed_is_accurate(self):
        db = Database()
        db.execute("CREATE TABLE c (v INTEGER)")
        before = db.statements_executed

        def insert(i):
            for j in range(50):
                db.execute("INSERT INTO c VALUES (:v)", {"v": i * 50 + j})

        run_threads(THREADS, insert)
        assert db.statements_executed == before + THREADS * 50
        assert db.query("SELECT COUNT(*) FROM c") == [(THREADS * 50,)]


# ---------------------------------------------------------------------------
# catalog + sequences
# ---------------------------------------------------------------------------


class TestCatalogConcurrency:
    def test_concurrent_ddl_bumps_version_exactly(self):
        db = Database()
        version = db.catalog.version

        def ddl(i):
            db.execute(f"CREATE TABLE t{i} (v INTEGER)")

        run_threads(THREADS, ddl)
        assert db.catalog.version == version + THREADS
        assert len(db.catalog.tables()) == THREADS

    def test_sequence_nextval_no_duplicates(self):
        seq = Sequence("s")
        drawn = []
        lock = threading.Lock()

        def draw(i):
            values = [seq.nextval() for _ in range(200)]
            with lock:
                drawn.extend(values)

        run_threads(THREADS, draw)
        assert len(drawn) == len(set(drawn)) == THREADS * 200
        assert seq.next_value == THREADS * 200 + 1

    def test_sequence_nextvals_mixed_with_nextval(self):
        """Batch reservations (a vector NEXTVAL item) interleaved with
        single draws on more threads than cores: the values drawn are
        exactly 1..N, no duplicate and no gap."""
        seq = Sequence("s")
        drawn = [[] for _ in range(THREADS)]

        def draw(i):
            for k in range(1, 150):
                if (i + k) % 2:
                    drawn[i].append(seq.nextval())
                else:
                    drawn[i].extend(seq.nextvals(k % 9))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=draw, args=(i,))
                for i in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        values = sorted(v for values in drawn for v in values)
        assert values == list(range(1, len(values) + 1))
        assert seq.next_value == len(values) + 1

    def test_sequence_nextvals_waits_for_the_lock(self):
        """The stress test above cannot tell a lock-free ``nextvals``
        apart (CPython never switches threads between its read and its
        write), so the lock is pinned structurally: while it is held,
        a reservation does not return."""
        seq = Sequence("s")
        reserved = []
        thread = threading.Thread(
            target=lambda: reserved.append(seq.nextvals(3))
        )
        with seq._lock:
            thread.start()
            thread.join(timeout=0.2)
            assert thread.is_alive() and reserved == []
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert reserved == [range(1, 4)]

    def test_sequence_through_sql(self):
        db = Database()
        db.execute("CREATE SEQUENCE ids")
        db.execute("CREATE TABLE seqrows (v INTEGER)")

        def draw(i):
            for _ in range(50):
                db.execute("INSERT INTO seqrows VALUES (ids.NEXTVAL)")

        run_threads(THREADS, draw)
        rows = db.query("SELECT v FROM seqrows")
        values = [v for (v,) in rows]
        assert sorted(values) == list(range(1, THREADS * 50 + 1))


# ---------------------------------------------------------------------------
# mixed readers/writers through the statement guard
# ---------------------------------------------------------------------------


class TestStatementInterleaving:
    def test_no_torn_reads_under_case_transfer(self):
        """A CASE update moves 10 between two rows, preserving the
        total; concurrent scans must never observe a partial move."""
        db = Database()
        db.execute("CREATE TABLE bank (id INTEGER, amount INTEGER)")
        db.execute("INSERT INTO bank VALUES (1, 100)")
        db.execute("INSERT INTO bank VALUES (2, 100)")
        stop = threading.Event()
        sums = []

        def writer():
            for i in range(150):
                sign = 1 if i % 2 == 0 else -1
                db.execute(
                    "UPDATE bank SET amount = CASE id "
                    f"WHEN 1 THEN amount - {10 * sign} "
                    f"ELSE amount + {10 * sign} END"
                )
            stop.set()

        def reader():
            while True:
                rows = db.query("SELECT SUM(amount) FROM bank")
                sums.append(rows[0][0])
                if stop.is_set():
                    return

        with ThreadPoolExecutor(max_workers=5) as pool:
            futures = [pool.submit(writer)]
            futures += [pool.submit(reader) for _ in range(4)]
            for future in futures:
                future.result(timeout=60)
        assert sums, "readers never ran"
        assert set(sums) == {200}

    def test_no_lost_updates_on_increment(self):
        db = Database()
        db.execute("CREATE TABLE tally (n INTEGER)")
        db.execute("INSERT INTO tally VALUES (0)")

        def bump(i):
            for _ in range(50):
                db.execute("UPDATE tally SET n = n + 1")

        run_threads(THREADS, bump)
        assert db.query("SELECT n FROM tally") == [(THREADS * 50,)]

    def test_select_into_is_exclusive(self):
        """SELECT INTO writes host variables, so it takes the write
        side; concurrent INTOs must not clobber each other mid-read."""
        db = Database()
        db.execute("CREATE TABLE src (v INTEGER)")
        db.execute("INSERT INTO src VALUES (7)")

        def into(i):
            for _ in range(50):
                db.execute("SELECT v INTO :x FROM src")
                assert db.variables["x"] == 7

        run_threads(4, into)

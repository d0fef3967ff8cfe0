"""Concurrency benchmarks: multi-threaded transaction throughput.

Measures what the lock manager and thread-local transaction sessions cost
and buy: single-thread vs multi-thread commit streams on disjoint objects
(lock overhead + latch contention), contended read-modify-write on one hot
object (serialization cost), and concurrent readers against a writer under
group commit. Python threads share the GIL, so these benchmarks bound lock
*overhead* and fairness rather than parallel speedup — the interesting
number is how close N threads stay to 1 thread on the same total work.

``--gate`` (run by ``make bench-mvcc-smoke`` and CI) checks what an
indexed point query reads beside another session's pending write —
counts, not timings::

    PYTHONPATH=src python benchmarks/bench_concurrency.py --gate
"""

import math
import os
import sys
import tempfile
import threading
import time

import pytest

from conftest import BenchItem, BenchSupplier

from repro import Database, IntField, OdeObject


class BenchCounter(OdeObject):
    n = IntField(default=0)


def run_threads(workers):
    errors = []

    def guard(fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
        return wrapped

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestDisjointThroughput:
    """Same total work split across threads on disjoint objects."""

    TOTAL_TXNS = 80

    def _run(self, db, oids, n_threads):
        per_thread = self.TOTAL_TXNS // n_threads

        def writer(oid):
            def work():
                for _ in range(per_thread):
                    def txn():
                        db.deref(oid).n += 1
                    db.run_transaction(txn, retries=20)
            return work

        run_threads([writer(oids[i]) for i in range(n_threads)])

    @pytest.fixture
    def counters(self, db):
        db.create(BenchCounter)
        oids = [db.pnew(BenchCounter).oid for i in range(8)]
        return db, oids

    def test_txn_stream_1_thread(self, benchmark, counters):
        db, oids = counters
        benchmark(lambda: self._run(db, oids, 1))

    def test_txn_stream_4_threads(self, benchmark, counters):
        db, oids = counters
        benchmark(lambda: self._run(db, oids, 4))

    def test_txn_stream_8_threads(self, benchmark, counters):
        db, oids = counters
        benchmark(lambda: self._run(db, oids, 8))


class TestContendedWrites:
    """All threads read-modify-write the same hot object."""

    def test_hot_object_4_threads(self, benchmark, db):
        db.create(BenchCounter)
        oid = db.pnew(BenchCounter).oid

        def run():
            def work():
                for _ in range(10):
                    def txn():
                        db.deref(oid).n += 1
                    db.run_transaction(txn, retries=100)
            run_threads([work] * 4)

        benchmark(run)


class TestReadersWithWriter:
    """Readers deref a working set while one writer commits under group
    durability — the group-commit flush must not stall readers."""

    def test_readers_during_group_commit(self, benchmark, tmp_path):
        db = Database(str(tmp_path / "grp.odb"), durability="group")
        db.create(BenchCounter)
        oids = [db.pnew(BenchCounter).oid for _ in range(16)]

        def run():
            def reader():
                for _ in range(5):
                    def txn():
                        for oid in oids:
                            db.deref(oid)
                    db.run_transaction(txn, retries=50)

            def writer():
                for i in range(10):
                    def txn():
                        db.deref(oids[i % len(oids)]).n += 1
                    db.run_transaction(txn, retries=50)

            run_threads([reader, reader, writer])

        benchmark(run)
        db.close()


class _MvccMode:
    """Open a Database with MVCC forced on or off, restoring the env."""

    def __init__(self, path, on):
        self.path, self.on = str(path), on

    def __enter__(self):
        self._prev = os.environ.get("REPRO_MVCC")
        os.environ["REPRO_MVCC"] = "1" if self.on else "0"
        self.db = Database(self.path)
        return self.db

    def __exit__(self, *exc):
        if self._prev is None:
            os.environ.pop("REPRO_MVCC", None)
        else:
            os.environ["REPRO_MVCC"] = self._prev
        if not self.db._closed:
            self.db.close()
        return False


class TestMvccScanReaders:
    """ISSUE 7 headline: snapshot readers stop blocking the writer.

    Two reader threads scan the cluster in a tight transaction loop while
    one writer runs read-modify-write transactions for a fixed wall-clock
    window. Under 2PL the scans' cluster S locks serialize the writer;
    under MVCC (the default) readers take no locks at all. The gate
    compares committed writer transactions across the two modes in the
    same window — the MVCC writer must get at least 2x through.
    """

    N_ROWS = 300
    N_READERS = 2
    WINDOW_S = 0.7

    def _writer_commits(self, path, mvcc_on):
        """Committed writer txns during one readers-vs-writer window."""
        with _MvccMode(path, mvcc_on) as db:
            assert db._mvcc_on == mvcc_on
            db.create(BenchCounter)
            with db.transaction():
                oids = [db.pnew(BenchCounter, n=i).oid
                        for i in range(self.N_ROWS)]
            stop = threading.Event()
            commits = [0]

            def reader():
                while not stop.is_set():
                    def txn():
                        total = sum(o.n for o in db.cluster(BenchCounter))
                        # Application work over the scanned data, inside
                        # the transaction: a 2PL reader holds its cluster
                        # S lock across it (starving writer IX requests);
                        # an MVCC reader holds nothing.
                        time.sleep(0.01)
                        return total
                    db.run_transaction(txn, retries=1000)

            def writer():
                deadline = time.monotonic() + self.WINDOW_S
                try:
                    while time.monotonic() < deadline:
                        def txn():
                            db.deref(oids[commits[0] % self.N_ROWS]).n += 1
                        db.run_transaction(txn, retries=1000)
                        commits[0] += 1
                finally:
                    stop.set()

            run_threads([reader] * self.N_READERS + [writer])
            return commits[0]

    def test_writer_throughput_vs_scanning_readers(self, benchmark,
                                                   tmp_path):
        commits_off = self._writer_commits(tmp_path / "off.odb",
                                           mvcc_on=False)
        runs = []

        def run():
            runs.append(self._writer_commits(
                tmp_path / ("on%d.odb" % len(runs)), mvcc_on=True))

        benchmark.pedantic(run, rounds=1, iterations=1)
        commits_on = runs[-1]
        speedup = commits_on / max(commits_off, 1)
        benchmark.extra_info["metrics"] = {
            "mvcc_writer_commits": commits_on,
            "slock_writer_commits": commits_off,
            "writer_speedup": round(speedup, 2),
        }
        assert commits_on >= 2 * max(commits_off, 1), (
            "MVCC writer throughput gate: %d commits vs %d under S-locks "
            "(%.2fx, need >= 2x)" % (commits_on, commits_off, speedup))

    def test_single_thread_overhead_mvcc(self, benchmark, tmp_path):
        """MVCC bookkeeping off the contended path is noise: the
        geometric-mean single-thread slowdown across create / RMW / scan
        workloads targets <= 5% (asserted at 25% so shared-CI timing
        jitter on these sub-10ms workloads cannot flake the suite; the
        exact ratio is recorded in the BENCH_*.json detail)."""

        def time_mode(path, mvcc_on):
            with _MvccMode(path, mvcc_on) as db:
                db.create(BenchCounter)
                with db.transaction():
                    oids = [db.pnew(BenchCounter, n=i).oid
                            for i in range(200)]

                def w_create():
                    with db.transaction():
                        for i in range(100):
                            db.pnew(BenchCounter, n=i)

                def w_rmw():
                    for oid in oids[:60]:
                        def txn():
                            db.deref(oid).n += 1
                        db.run_transaction(txn)

                def w_scan():
                    with db.transaction():
                        for _ in range(5):
                            sum(o.n for o in db.cluster(BenchCounter))

                best = {}
                for name, fn in (("create", w_create), ("rmw", w_rmw),
                                 ("scan", w_scan)):
                    fn()   # warm caches / first-touch pages
                    samples = []
                    for _ in range(5):
                        t0 = time.perf_counter()
                        fn()
                        samples.append(time.perf_counter() - t0)
                    best[name] = min(samples)
                return best

        off = time_mode(tmp_path / "st_off.odb", mvcc_on=False)
        runs = []

        def run():
            runs.append(time_mode(tmp_path / ("st_on%d.odb" % len(runs)),
                                  mvcc_on=True))

        benchmark.pedantic(run, rounds=1, iterations=1)
        on = runs[-1]
        ratios = {k: on[k] / off[k] for k in off}
        geomean = math.exp(sum(math.log(r) for r in ratios.values())
                           / len(ratios))
        benchmark.extra_info["metrics"] = {
            "geomean_ratio": round(geomean, 4),
            **{("ratio_" + k): round(v, 4) for k, v in ratios.items()},
        }
        assert geomean <= 1.25, (
            "single-thread MVCC overhead gate: geomean %.3fx "
            "(per-workload: %r)" % (geomean, ratios))


# -- index-overlay count gate (make bench-mvcc-smoke / CI) ------------------


def run_gate(tmpdir) -> int:
    """An indexed point query on 5 000 rows while another session holds
    one pending write reads at most matches + dirty records, on both
    evaluators and from both kinds of reader."""
    from repro import A, forall
    rows, groups = 5000, 1000
    matches = rows // groups
    db = Database(tmpdir + "/gate.odb")
    db.create(BenchCounter)
    db.create_index(BenchCounter, "n", kind="hash")
    with db.transaction():
        for i in range(rows):
            db.pnew(BenchCounter, n=i % groups)
    failures = []

    def check(label, got, limit):
        print("%-58s %6d (want <= %d)" % (label, got, limit))
        if got > limit:
            failures.append("%s: %d > %d" % (label, got, limit))

    def point():
        return forall(db.cluster(BenchCounter)).suchthat(A.n == 7)

    def scan_work(stats):
        # Keys peeked and records decoded by extent walks, plus the heap
        # pages they visited (a walk over cached pages peeks nothing).
        return (stats["scan"]["records_peeked"]
                + stats["scan"]["records_decoded"]
                + stats["page_cache"]["hits"] + stats["page_cache"]["misses"])

    def read(label, q):
        before = db.stats()
        assert q.count() == matches and len(q.to_list()) == matches
        after = db.stats()
        check(label + ": scan records + pages, 2 queries",
              scan_work(after) - scan_work(before), 2 * (matches + 1))
        dirty = (after["mvcc"]["index_overlay_rows"]
                 - before["mvcc"]["index_overlay_rows"])
        print("%-58s %6d (want 2)"
              % (label + ": dirty rows resolved, 2 queries", dirty))
        if dirty != 2:
            failures.append("%s: overlay resolved %d rows, not 2"
                            % (label, dirty))

    pending, release = threading.Event(), threading.Event()

    def writer():
        with db.transaction():
            point().first().n = groups + 7      # one match leaves the key
            assert point().count() == matches - 1   # flushed: entry moved
            pending.set()
            assert release.wait(60)

    def reader():
        try:
            assert pending.wait(60)
            for label, q in (("compiled", point()),
                             ("interpreted", point().codegen(False))):
                read("read-committed, " + label, q)
                with db.transaction():
                    read("snapshot txn, " + label, q)
        finally:
            release.set()

    try:
        run_threads([writer, reader])
    finally:
        db.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("index overlay gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--gate"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="overlay-gate-") as tmpdir:
        return run_gate(tmpdir)


if __name__ == "__main__":
    sys.exit(main())

"""Multi-threaded stress tests for the transaction/lock stack.

These tests exercise genuinely concurrent transactions: thread-local
transaction handles, S/X object locks with cluster intention locks,
deadlock detection with the requester as victim, and the
``run_transaction`` retry helper. All are marked ``concurrency`` so they
can be run in isolation with ``pytest -m concurrency`` (or skipped with
``-m "not concurrency"``).
"""

import threading

import pytest

from repro.core import Database, IntField, OdeObject, StringField
from repro.errors import DeadlockError, LockTimeoutError

pytestmark = pytest.mark.concurrency


class ThreadedAccount(OdeObject):
    owner = StringField(default="")
    balance = IntField(default=0)


class ThreadedCounter(OdeObject):
    n = IntField(default=0)


def run_threads(workers):
    """Start *workers* (zero-arg callables) and re-raise their failures."""
    errors = []

    def guard(fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - collected for main
                errors.append(exc)
        return wrapped

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    alive = [t for t in threads if t.is_alive()]
    assert not alive, "threads hung: %r" % alive
    if errors:
        raise errors[0]
    return errors


class TestDisjointWriters:
    def test_parallel_writers_on_disjoint_objects(self, db):
        """N threads each update their own object; all updates survive."""
        db.create(ThreadedAccount)
        n_threads, n_rounds = 6, 25
        oids = []
        for i in range(n_threads):
            obj = db.pnew(ThreadedAccount, owner="t%d" % i)
            oids.append(obj.oid)

        def writer(oid):
            def work():
                for _ in range(n_rounds):
                    def txn():
                        acct = db.deref(oid)
                        acct.balance += 1
                    db.run_transaction(txn, retries=10)
            return work

        run_threads([writer(oid) for oid in oids])
        for oid in oids:
            assert db.deref(oid).balance == n_rounds
        assert db.store.locks.stats()["held"] == 0

    def test_parallel_creators_in_one_cluster(self, db):
        """Threads pnew into the same cluster; every object lands."""
        db.create(ThreadedCounter)
        n_threads, per_thread = 5, 20

        def creator(tag):
            def work():
                for i in range(per_thread):
                    db.run_transaction(
                        lambda: db.pnew(ThreadedCounter, n=tag * 1000 + i),
                        retries=10)
            return work

        run_threads([creator(t) for t in range(n_threads)])
        assert db.cluster(ThreadedCounter).count() == n_threads * per_thread
        assert db.store.locks.stats()["held"] == 0


class TestOverlappingWriters:
    def test_concurrent_increments_are_serializable(self, db):
        """Conflicting read-modify-write transactions serialize: no lost
        updates, the final value is exactly the number of increments."""
        db.create(ThreadedCounter)
        shared = db.pnew(ThreadedCounter, n=0)
        oid = shared.oid
        n_threads, n_rounds = 6, 20

        def work():
            for _ in range(n_rounds):
                def txn():
                    obj = db.deref(oid)      # S lock ...
                    obj.n += 1               # ... upgraded to X on write
                db.run_transaction(txn, retries=50)

        run_threads([work] * n_threads)
        db._cache.clear()
        assert db.deref(oid).n == n_threads * n_rounds
        stats = db.store.locks.stats()
        assert stats["grants"] > 0          # object layer really took locks
        assert stats["held"] == 0


class TestDeadlock:
    def test_deadlock_detected_and_one_txn_aborted(self, db):
        """Opposite lock orders on two objects deadlock; the victim gets
        DeadlockError (or times out waiting), the other commits."""
        db.create(ThreadedAccount)
        a = db.pnew(ThreadedAccount, owner="a").oid
        b = db.pnew(ThreadedAccount, owner="b").oid
        first_locked = threading.Barrier(2, timeout=30)
        outcomes = []

        def worker(mine, theirs):
            def work():
                try:
                    with db.transaction():
                        # Read both before either writes: a deref after
                        # the peer's write would, under MVCC, resolve a
                        # snapshot copy and conflict out rather than
                        # deadlock. Opposite-order writes still cycle.
                        objm = db.deref(mine)
                        objt = db.deref(theirs)
                        first_locked.wait()   # both have read both
                        objm.balance += 1
                        first_locked.wait()   # both hold their X lock
                        objt.balance += 1
                    outcomes.append("committed")
                except (DeadlockError, LockTimeoutError):
                    outcomes.append("aborted")
            return work

        run_threads([worker(a, b), worker(b, a)])
        assert sorted(outcomes) == ["aborted", "committed"]
        assert db.store.locks.stats()["held"] == 0

    def test_run_transaction_retries_past_deadlock(self, db):
        """With the retry helper, both deadlocking transactions succeed."""
        db.create(ThreadedAccount)
        a = db.pnew(ThreadedAccount, owner="a").oid
        b = db.pnew(ThreadedAccount, owner="b").oid
        n_rounds = 10

        def transferer(src, dst):
            def work():
                for _ in range(n_rounds):
                    def txn():
                        db.deref(src).balance -= 1
                        db.deref(dst).balance += 1
                    db.run_transaction(txn, retries=50)
            return work

        run_threads([transferer(a, b), transferer(b, a)])
        db._cache.clear()
        # Transfers in both directions cancel out.
        assert db.deref(a).balance == 0
        assert db.deref(b).balance == 0
        stats = db.store.locks.stats()
        assert stats["held"] == 0

    def test_victim_failure_releases_all_locks(self, db):
        """A transaction that dies mid-flight (any exception) leaks no
        locks: stats()['held'] returns to zero."""
        db.create(ThreadedCounter)
        oid = db.pnew(ThreadedCounter, n=0).oid

        def dying():
            with db.transaction():
                db.deref(oid).n = 99
                raise RuntimeError("thread dies mid-transaction")

        with pytest.raises(RuntimeError):
            dying()
        # Same failure inside a worker thread (thread "dies" and exits).
        run_threads([lambda: pytest.raises(RuntimeError, dying)])
        assert db.store.locks.stats()["held"] == 0
        db._cache.clear()
        assert db.deref(oid).n == 0    # the write rolled back


class TestReadersDuringGroupCommit:
    def test_readers_see_committed_state_under_group_commit(self, db_path):
        """Readers iterate while writers commit under group durability;
        every observed balance is one a committed transaction produced."""
        db = Database(db_path, durability="group")
        try:
            db.create(ThreadedAccount)
            oids = [db.pnew(ThreadedAccount, owner=str(i), balance=0).oid
                    for i in range(4)]
            stop = threading.Event()
            seen = []

            def writer(oid):
                def work():
                    for _ in range(15):
                        def txn():
                            db.deref(oid).balance += 2
                        db.run_transaction(txn, retries=50)
                return work

            def reader():
                while not stop.is_set():
                    def txn():
                        return [db.deref(oid).balance for oid in oids]
                    seen.append(db.run_transaction(txn, retries=50))

            writers = [writer(oid) for oid in oids]

            def run_all():
                threads = [threading.Thread(target=reader)
                           for _ in range(2)]
                for t in threads:
                    t.start()
                try:
                    run_threads(writers)
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)

            run_all()
            # Writers bump by 2: a reader inside a transaction must never
            # observe an odd (uncommitted, half-applied) balance.
            for snapshot in seen:
                assert all(v % 2 == 0 for v in snapshot), snapshot
            db._cache.clear()
            for oid in oids:
                assert db.deref(oid).balance == 30
            assert db.store.locks.stats()["held"] == 0
        finally:
            if not db._closed:
                db.close()


class TestScanVsWriter:
    def test_cluster_scan_blocks_out_writer(self, db):
        """forall-style iteration inside a transaction takes a cluster S
        lock, so a concurrent writer serializes against the scan."""
        db.create(ThreadedCounter)
        for i in range(10):
            db.pnew(ThreadedCounter, n=i)
        totals = []

        def scanner():
            def txn():
                return sum(obj.n for obj in db.cluster(ThreadedCounter))
            for _ in range(10):
                totals.append(db.run_transaction(txn, retries=50))

        def writer():
            for i in range(10):
                db.run_transaction(
                    lambda: db.pnew(ThreadedCounter, n=0), retries=50)

        run_threads([scanner, writer])
        assert all(t == 45 for t in totals)
        assert db.cluster(ThreadedCounter).count() == 20
        assert db.store.locks.stats()["held"] == 0


class TestDecodedCacheCoherence:
    def test_decoded_cache_coherent_under_concurrent_writers(self, db):
        """Each thread re-materializes its own object every round (popping
        its live instance between transactions), so every deref goes
        through the decoded cache's LSN-token validation — while the
        *other* threads' commits keep bumping the LSNs of the heap pages
        the objects share. A stale decoded entry would surface as a
        value below the thread's own committed count."""
        db.create(ThreadedAccount)
        n_threads, n_rounds = 5, 20
        oids = [db.pnew(ThreadedAccount, owner="t%d" % i).oid
                for i in range(n_threads)]
        stale = []

        def worker(oid):
            key = (oid.cluster, oid.serial)

            def work():
                for i in range(n_rounds):
                    # Only this thread ever touches `key`, so dropping the
                    # live instance between transactions is safe — and it
                    # forces the next deref through _load_current.
                    db._cache.pop(key, None)

                    def txn():
                        acct = db.deref(oid)
                        if acct.balance != i:
                            stale.append((key, i, acct.balance))
                        acct.balance += 1
                    db.run_transaction(txn, retries=50)
            return work

        run_threads([worker(oid) for oid in oids])
        assert not stale
        for oid in oids:
            db._cache.pop((oid.cluster, oid.serial), None)
            assert db.deref(oid).balance == n_rounds
        stats = db._decoded.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert db.store.locks.stats()["held"] == 0

    def test_abort_invalidates_decoded_cache(self, db):
        """A flushed-then-aborted write must not linger in the decoded
        cache: the post-abort deref sees the pre-transaction state."""
        db.create(ThreadedCounter)
        oid = db.pnew(ThreadedCounter, n=0).oid
        db._cache.clear()
        assert db.deref(oid).n == 0    # warm the decoded cache
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                obj = db.deref(oid)
                obj.n = 99
                db._flush(txn.txn_id)  # write reaches the heap pages
                raise RuntimeError("force abort")
        db._cache.clear()
        assert db.deref(oid).n == 0
        assert db.store.locks.stats()["held"] == 0

    def test_cache_validation_survives_writer_between_reads(self, db):
        """Sequential interleaving: read (cache fills), another session
        commits a change, read again — the second read must miss (token
        LSN moved) and return the new state."""
        db.create(ThreadedAccount)
        oid = db.pnew(ThreadedAccount, owner="x", balance=1).oid
        db._cache.clear()
        assert db.deref(oid).balance == 1
        done = threading.Event()

        def other_writer():
            def txn():
                db.deref(oid).balance = 2
            db.run_transaction(txn, retries=50)
            done.set()

        run_threads([other_writer])
        assert done.is_set()
        db._cache.clear()
        assert db.deref(oid).balance == 2

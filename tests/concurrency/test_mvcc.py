"""MVCC snapshot reads: repeatable reads, write conflicts, time travel.

ISSUE 7's concurrency contract: transactions read from a snapshot fixed
at begin (no S locks — readers never block writers and writers never
block readers), write-write conflicts keep using X locks, a write to an
object whose snapshot is stale raises
:class:`~repro.errors.SnapshotConflictError` (retried by
``run_transaction``), and ``as of`` tokens replay recent history.
"""

import threading

import pytest

from repro.core import Database, IntField, OdeObject, StringField
from repro.core.database import VersionCache
from repro.core.oid import Oid, Vref
from repro.core.versions import newversion, versions, vnext, vprev
from repro.errors import (DanglingReferenceError, NotPersistentError,
                          SnapshotConflictError, SnapshotTooOldError,
                          TransactionError)
from repro.opp import Interpreter
from repro.query import A, forall

pytestmark = pytest.mark.concurrency


class MvccCounter(OdeObject):
    n = IntField(default=0)


class Item(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)


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


class TestSnapshotReads:
    def test_reader_repeats_its_snapshot_across_a_commit(self, db):
        """A transaction re-reads the value it started with even after a
        concurrent transaction commits — and the writer commits *while*
        the reader's transaction is still open (readers hold no S locks,
        so they cannot block the writer)."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid
        in_txn = threading.Event()
        committed = threading.Event()
        saw = {}

        def reader():
            with db.transaction():
                saw["first"] = db.deref(oid).n
                in_txn.set()
                assert committed.wait(timeout=30), \
                    "writer blocked while reader transaction was open"
                saw["deref"] = db.deref(oid).n
                saw["scan"] = [o.n for o in db.cluster(MvccCounter)]

        def writer():
            assert in_txn.wait(timeout=30)
            db.run_transaction(lambda: setattr(db.deref(oid), "n", 7))
            committed.set()

        run_threads([reader, writer])
        assert saw == {"first": 0, "deref": 0, "scan": [0]}
        # Outside the reader's transaction the commit is visible.
        assert db.deref(oid).n == 7
        assert db.metrics.get("mvcc.resolutions") > 0
        assert db.store.locks.stats()["held"] == 0

    def test_uncommitted_write_invisible_to_other_readers(self, db):
        """While a writer transaction is in flight, both autocommit derefs
        and cluster scans from another thread see the pre-image — never
        the writer's in-memory or flushed-but-uncommitted state."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid
        wrote = threading.Event()
        done = threading.Event()

        def writer():
            with db.transaction() as txn:
                db.deref(oid).n = 5
                db._flush(txn.txn_id)   # uncommitted bytes reach the heap
                wrote.set()
                assert done.wait(timeout=30)

        def reader():
            assert wrote.wait(timeout=30)
            try:
                assert db.deref(oid).n == 0
                assert [o.n for o in db.cluster(MvccCounter)] == [0]
                with db.transaction():
                    assert db.deref(oid).n == 0
            finally:
                done.set()

        run_threads([writer, reader])
        assert db.deref(oid).n == 5
        assert db.store.locks.stats()["held"] == 0

    def test_scan_totals_are_snapshot_consistent(self, db):
        """A scanning transaction never observes a torn multi-object
        update: a writer that moves quantity between two items commits
        either entirely before or entirely after the snapshot."""
        db.create(Item)
        a = db.pnew(Item, name="a", qty=50).oid
        b = db.pnew(Item, name="b", qty=50).oid
        stop = threading.Event()
        totals = []

        def scanner():
            for _ in range(30):
                def txn():
                    return sum(o.qty for o in db.cluster(Item))
                totals.append(db.run_transaction(txn, retries=50))
            stop.set()

        def mover():
            while not stop.is_set():
                def txn():
                    db.deref(a).qty -= 1
                    db.deref(b).qty += 1
                db.run_transaction(txn, retries=50)

        run_threads([scanner, mover])
        assert totals and all(t == 100 for t in totals)
        assert db.store.locks.stats()["held"] == 0


class TestWriteConflicts:
    def test_first_updater_wins_on_read_then_write(self, db):
        """Read an object, let another transaction commit a newer write,
        then write — the stale transaction gets SnapshotConflictError."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid

        with pytest.raises(SnapshotConflictError):
            with db.transaction():
                obj = db.deref(oid)
                assert obj.n == 0
                run_threads([lambda: db.run_transaction(
                    lambda: setattr(db.deref(oid), "n", 3))])
                obj.n = 9   # conflicts: a commit landed past our snapshot
        assert db.deref(oid).n == 3
        assert db.metrics.get("mvcc.conflicts") >= 1
        assert db.store.locks.stats()["held"] == 0

    def test_write_through_snapshot_copy_conflicts(self, db):
        """A deref that resolved a history image returns a private stale
        copy; writing through it raises immediately (before any lock
        wait) instead of silently clobbering the in-flight writer."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid
        started = threading.Event()
        release = threading.Event()

        def writer():
            with db.transaction():
                db.deref(oid).n = 5
                started.set()
                assert release.wait(timeout=30)

        def reader():
            assert started.wait(timeout=30)
            try:
                with db.transaction():
                    obj = db.deref(oid)   # resolves the pre-image
                    assert obj.n == 0
                    with pytest.raises(SnapshotConflictError):
                        obj.n = 9
            finally:
                release.set()

        run_threads([writer, reader])
        assert db.deref(oid).n == 5
        assert db.store.locks.stats()["held"] == 0

    def test_run_transaction_retries_snapshot_conflicts(self, db):
        """SnapshotConflictError counts as "aborted through no fault of
        its own": the retry helper re-runs the body on a fresh snapshot."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid
        attempts = {"n": 0}
        base = db.metrics.get("txn.retries") or 0

        def body():
            attempts["n"] += 1
            obj = db.deref(oid)
            if attempts["n"] == 1:
                # Simulate losing the first-updater race mid-body.
                run_threads([lambda: db.run_transaction(
                    lambda: setattr(db.deref(oid), "n", 1))])
            obj.n += 10

        db.run_transaction(body, retries=3)
        assert attempts["n"] == 2
        assert (db.metrics.get("txn.retries") or 0) == base + 1
        assert db.deref(oid).n == 11   # retried on top of the winner

    def test_concurrent_increments_still_serialize(self, db):
        """Lost-update check under MVCC: conflicting read-modify-writes
        retried by run_transaction converge to the exact total."""
        db.create(MvccCounter)
        oid = db.pnew(MvccCounter, n=0).oid
        n_threads, n_rounds = 4, 15

        def work():
            for _ in range(n_rounds):
                def txn():
                    db.deref(oid).n += 1
                db.run_transaction(txn, retries=100)

        run_threads([work] * n_threads)
        db._cache.clear()
        assert db.deref(oid).n == n_threads * n_rounds
        assert db.store.locks.stats()["held"] == 0


class TestTimeTravel:
    def test_as_of_scan_replays_past_states(self, db):
        db.create(Item)
        a = db.pnew(Item, name="a", qty=1)
        t0 = db.snapshot_token()
        b = db.pnew(Item, name="b", qty=2)
        with db.transaction():     # explicit: autocommit writes defer
            a.qty = 10
        t1 = db.snapshot_token()
        db.pdelete(b.oid)

        # At t0: only "a", at its original quantity; "b" not created yet.
        assert [(o.name, o.qty)
                for o in db.cluster(Item).as_of(t0)] == [("a", 1)]
        # At t1: updated "a" plus "b" — deleted since, so the scan
        # resurrects it from its pre-delete image.
        assert sorted((o.name, o.qty)
                      for o in db.cluster(Item).as_of(t1)) \
            == [("a", 10), ("b", 2)]
        # The present is unaffected.
        assert [(o.name, o.qty) for o in db.cluster(Item)] == [("a", 10)]

    def test_as_of_count_and_oids(self, db):
        db.create(Item)
        a = db.pnew(Item, name="a", qty=1)
        a_serial = a.oid.serial      # pdelete below makes `a` volatile
        t0 = db.snapshot_token()
        b = db.pnew(Item, name="b", qty=2)
        db.pdelete(a.oid)
        handle = db.cluster(Item).as_of(t0)
        assert handle.count() == 1
        assert [o.serial for o in handle.oids()] == [a_serial]
        assert db.cluster(Item).count() == 1
        assert [o.serial for o in db.cluster(Item).oids()] \
            == [b.oid.serial]

    def test_as_of_objects_are_read_only(self, db):
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        tok = db.snapshot_token()
        with db.transaction():
            obj.n = 2
        old = next(iter(db.cluster(MvccCounter).as_of(tok)))
        assert old.n == 1
        with pytest.raises(SnapshotConflictError):
            old.n = 99
        assert db.deref(obj.oid).n == 2

    def test_forall_as_of_with_predicate(self, db):
        db.create(Item)
        db.pnew(Item, name="cheap", qty=1)
        db.pnew(Item, name="mid", qty=5)
        tok = db.snapshot_token()
        db.pnew(Item, name="late", qty=9)
        rows = (forall(db.cluster(Item)).as_of(tok)
                .suchthat(A.qty > 2).to_list())
        assert [o.name for o in rows] == ["mid"]
        # count() goes through the same plan machinery.
        assert forall(db.cluster(Item)).as_of(tok).count() == 2
        assert forall(db.cluster(Item)).suchthat(A.qty > 2).count() == 2

    def test_opp_forall_as_of(self, db):
        """O++ end to end: capture a token with the snapshot_token()
        builtin, mutate, then replay the past with ``as of (t)``."""
        interp = Interpreter(db)
        interp.run("""
        class part { public: char* name; int qty; };
        create part;
        pnew part("bolt", 3);
        int t = snapshot_token();
        pnew part("nut", 8);
        forall p in part as of (t) printf("%s=%d;", p->name, p->qty);
        printf("|");
        forall p in part suchthat (p->qty > 0) by (p->name)
            printf("%s=%d;", p->name, p->qty);
        """)
        assert "".join(interp.output) == "bolt=3;|bolt=3;nut=8;"

    def test_opp_as_of_rejects_non_integer_token(self, db):
        from repro.errors import OppRuntimeError
        interp = Interpreter(db)
        interp.run('class part { public: int qty; }; create part;')
        with pytest.raises(OppRuntimeError):
            interp.run('forall p in part as of (1.5) printf("x");')

    def test_as_of_older_than_horizon_raises(self, db):
        db.create(MvccCounter)
        db.pnew(MvccCounter, n=1)
        tok = db.snapshot_token()
        db._mvcc.dropped_horizon = tok + 1   # simulate retention pruning
        with pytest.raises(SnapshotTooOldError):
            list(db.cluster(MvccCounter).as_of(tok))

    def test_as_of_requires_mvcc(self, tmp_path):
        db = Database(str(tmp_path / "off.odedb"))
        db._mvcc_on = False                  # the 2PL reference mode
        try:
            db.create(MvccCounter)
            db.pnew(MvccCounter, n=1)
            with pytest.raises(TransactionError):
                list(db.cluster(MvccCounter).as_of(0))
            # 2PL mode itself still works.
            assert [o.n for o in db.cluster(MvccCounter)] == [1]
        finally:
            db.close()


class TestVersionChainEdges:
    def test_vnext_across_aborted_newversion(self, db):
        """newversion inside an aborted transaction leaves the chain as
        it was: the old tip is still the newest version."""
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        first = obj.vref

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                newversion(obj)
                raise Boom()
        assert vnext(first, db) is None
        assert versions(obj) == [first]
        assert db.deref(first).n == 1

    def test_deref_version_with_missing_state_is_dangling(self, db):
        """Regression: a Vref whose chain entry exists but whose state
        record was removed underneath (concurrent delete/vacuum window)
        raises DanglingReferenceError — previously a TypeError from
        subscripting None."""
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        old = obj.vref
        newversion(obj)
        obj.n = 2
        # Remove the pinned version's state record but leave the chain
        # entry — the mid-vacuum window the bug lived in.
        txn = db.store.begin()
        db.store.delete(txn, old.cluster, (old.serial, old.version))
        db.store.commit(txn)
        db._vcache.pop(old, None)
        with pytest.raises(DanglingReferenceError):
            db.deref(old)
        assert db.deref(old, _missing_ok=True) is None

    def test_deref_deleted_version_after_vacuum_is_dangling(self, db):
        """pdelete of one version + vacuum: the stale Vref must miss the
        (invalidated) version cache and raise, not serve the old pin."""
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        old = obj.vref
        newversion(obj)
        with db.transaction():       # commit: pdelete drops deferred writes
            obj.n = 2
        assert db.deref(old).n == 1   # pin it into the version cache
        db.pdelete(old)
        db.vacuum(MvccCounter)
        with pytest.raises(DanglingReferenceError):
            db.deref(old)
        assert db.deref(obj.oid).n == 2

    def test_object_created_after_snapshot_is_invisible(self, db):
        """An object committed after a reader's snapshot neither appears
        in the reader's scans nor derefs — its history image at that
        snapshot is "does not exist"."""
        db.create(MvccCounter)
        db.pnew(MvccCounter, n=1)
        in_txn = threading.Event()
        created = threading.Event()
        box = {}

        def creator():
            assert in_txn.wait(timeout=30)
            box["oid"] = db.run_transaction(
                lambda: db.pnew(MvccCounter, n=2).oid)
            created.set()

        def reader():
            with db.transaction():
                assert [o.n for o in db.cluster(MvccCounter)] == [1]
                in_txn.set()
                assert created.wait(timeout=30)
                assert [o.n for o in db.cluster(MvccCounter)] == [1]
                assert db.cluster(MvccCounter).count() == 1
                with pytest.raises(DanglingReferenceError):
                    db.deref(box["oid"])

        run_threads([creator, reader])
        assert sorted(o.n for o in db.cluster(MvccCounter)) == [1, 2]

    def test_version_macros_take_object_or_ref(self, db):
        """Uniform macro signature: a live object needs no db, a raw ref
        needs one, a volatile object is rejected."""
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        old = obj.vref
        newversion(obj)
        assert vnext(old, db) == obj.vref
        assert vprev(obj) == old
        with pytest.raises(NotPersistentError):
            vnext(old)           # raw Vref without a database
        with pytest.raises(NotPersistentError):
            vprev(MvccCounter(n=0))  # volatile object
        with pytest.raises(NotPersistentError):
            vnext("not a ref")


class TestVersionCache:
    def test_bounded_with_eviction_and_hit_counts(self):
        cache = VersionCache(capacity=4)
        objs = [object() for _ in range(6)]
        for i, o in enumerate(objs):
            cache.put(Vref("C", i, 1), o)
        assert len(cache) <= 4
        assert cache.evictions > 0
        assert cache.get(Vref("C", 5, 1)) is objs[5]
        assert cache.hits == 1
        assert cache.get(Vref("C", 0, 1)) is None   # trimmed
        assert cache.hits == 1

    def test_db_vcache_hits_and_vacuum_invalidation(self, db):
        db.create(MvccCounter)
        obj = db.pnew(MvccCounter, n=1)
        old = obj.vref
        newversion(obj)
        obj.n = 2
        hits0 = db.metrics.get("vcache.hits")
        assert db.deref(old).n == 1        # miss: materialize + pin
        assert db.deref(old).n == 1        # hit
        assert db.metrics.get("vcache.hits") > hits0
        ev0 = db.metrics.get("vcache.evictions")
        db.vacuum()
        assert len(db._vcache) == 0
        assert db.metrics.get("vcache.evictions") > ev0
        assert db.deref(old).n == 1        # re-pins from rewritten pages


class TestStatsSurface:
    def test_mvcc_stats_exposed(self, db):
        db.create(MvccCounter)
        db.pnew(MvccCounter, n=1)
        stats = db.stats()
        for key in ("histories", "active_snapshots", "resolutions",
                    "conflicts", "last_commit_lsn", "dropped_horizon"):
            assert key in stats["mvcc"]
        assert stats["mvcc"]["last_commit_lsn"] == db.snapshot_token()
        assert {"hits", "evictions"} <= set(stats["vcache"])

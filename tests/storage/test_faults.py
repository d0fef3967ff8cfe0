"""Fault-injection layer: the injector itself and the failure semantics
it exposes — transient IO errors, sticky WAL failure, group-commit error
propagation, degraded mode, and transaction retry."""

import threading

import pytest

from repro.core.database import Database
from repro.errors import (DegradedModeError, StorageError, TransientIOError,
                          WalFlushError)
from repro.storage.faults import (ACTIONS, DIE_EXIT_CODE, KNOWN_FAILPOINTS,
                                  FaultInjector)
from repro.storage.page import PAGE_SIZE
from repro.storage.pagefile import PageFile
from repro.storage.store import Store
from repro import IntField, OdeObject


class FaultGadget(OdeObject):
    n = IntField(default=0)


class TestInjector:
    def test_unarmed_fire_is_noop(self):
        f = FaultInjector()
        assert not f.enabled
        assert f.fire("pagefile.write.pre") is None
        assert f.injected == 0

    def test_at_hit_gates_firing(self):
        f = FaultInjector()
        point = f.arm("pagefile.write.lost", at_hit=3)
        assert f.fire("pagefile.write.lost") is None
        assert f.fire("pagefile.write.lost") is None
        assert f.fire("pagefile.write.lost") is point
        # default count=1: fires exactly once
        assert f.fire("pagefile.write.lost") is None
        assert point.fired == 1
        assert f.trace == [("pagefile.write.lost", "lost")]

    def test_count_zero_fires_forever(self):
        f = FaultInjector()
        f.arm("pagefile.write.lost", at_hit=2, count=0)
        hits = [f.fire("pagefile.write.lost") for _ in range(6)]
        assert [h is not None for h in hits] == [False] + [True] * 5

    def test_default_action_from_registry(self):
        f = FaultInjector()
        for name, action in KNOWN_FAILPOINTS:
            assert f.arm(name).action == action
            f.disarm(name)
        assert not f.enabled

    def test_unknown_point_needs_explicit_action(self):
        f = FaultInjector()
        with pytest.raises(StorageError):
            f.arm("no.such.point")
        f.arm("no.such.point", "error")  # explicit action is fine

    def test_bad_action_rejected(self):
        f = FaultInjector()
        with pytest.raises(StorageError):
            f.arm("pagefile.write.pre", "explode")
        assert "explode" not in ACTIONS

    def test_error_action_raises_eio(self):
        f = FaultInjector()
        f.arm("wal.flush.fsync", "error")
        with pytest.raises(OSError) as exc:
            f.fire("wal.flush.fsync")
        assert exc.value.errno == 5

    def test_from_env_parsing(self):
        env = {"REPRO_FAULTS":
               "wal.flush.pre:die:3; pagefile.write.torn:torn",
               "REPRO_FAULTS_SEED": "99"}
        f = FaultInjector.from_env(env)
        assert f.armed("wal.flush.pre").at_hit == 3
        assert f.armed("pagefile.write.torn").at_hit == 1
        assert f.enabled

    def test_from_env_rejects_garbage(self):
        with pytest.raises(StorageError):
            FaultInjector.from_env({"REPRO_FAULTS": "justaname"})

    def test_from_env_empty_is_unarmed(self):
        f = FaultInjector.from_env({})
        assert not f.enabled

    def test_die_exit_code_is_distinctive(self):
        # The harness keys on this value; keep it stable.
        assert DIE_EXIT_CODE == 47


class TestPageFileFaults:
    def test_read_error_is_transient(self, tmp_path):
        f = FaultInjector()
        pf = PageFile(str(tmp_path / "p"), faults=f)
        page_no = pf.allocate_page()
        pf.write_page(page_no, bytes(PAGE_SIZE))
        f.arm("pagefile.read.pre", "error")
        with pytest.raises(TransientIOError):
            pf.read_page(page_no, bytearray(PAGE_SIZE))
        # transient: the next read (fault spent) succeeds
        pf.read_page(page_no, bytearray(PAGE_SIZE))
        pf.close()

    def test_short_read_is_transient(self, tmp_path):
        f = FaultInjector()
        pf = PageFile(str(tmp_path / "p"), faults=f)
        page_no = pf.allocate_page()
        pf.write_page(page_no, bytes(PAGE_SIZE))
        f.arm("pagefile.read.short")
        with pytest.raises(TransientIOError):
            pf.read_page(page_no, bytearray(PAGE_SIZE))
        pf.read_page(page_no, bytearray(PAGE_SIZE))
        pf.close()

    def test_lost_write_changes_nothing(self, tmp_path):
        f = FaultInjector()
        pf = PageFile(str(tmp_path / "p"), faults=f)
        page_no = pf.allocate_page()
        pf.write_page(page_no, b"\x01" * PAGE_SIZE)
        f.arm("pagefile.write.lost")
        pf.write_page(page_no, b"\x02" * PAGE_SIZE)  # vanishes
        buf = bytearray(PAGE_SIZE)
        pf.read_page(page_no, buf)
        assert buf[100] == 1  # the old image survived untouched
        assert f.injected == 1
        pf.close()

    def test_sync_lie_skips_fsync(self, tmp_path):
        f = FaultInjector()
        pf = PageFile(str(tmp_path / "p"), faults=f)
        f.arm("pagefile.sync.lie")
        pf.sync()  # must not raise; the lie is silent
        assert f.trace == [("pagefile.sync.lie", "lie")]
        pf.close()


class TestStickyWalFailure:
    """Satellite (a): a failed WAL fsync surfaces as WalFlushError and the
    log never accepts another record — no retry-fsync data loss."""

    def _failing_store(self, db_path):
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        store.faults.arm("wal.flush.fsync", "error")
        return store

    def test_commit_surfaces_wal_flush_error(self, db_path):
        store = self._failing_store(db_path)
        txn = store.begin()
        store.put(txn, "c", (1, 0), {"x": 1})
        with pytest.raises(WalFlushError) as exc:
            store.commit(txn)
        assert "not durable" in str(exc.value)
        assert store._wal.failed is not None
        store.close()

    def test_failure_is_sticky(self, db_path):
        store = self._failing_store(db_path)
        txn = store.begin()
        store.put(txn, "c", (1, 0), {"x": 1})
        with pytest.raises(WalFlushError):
            store.commit(txn)
        # the fault fired once; the log still refuses everything after
        assert store.faults.armed("wal.flush.fsync").fired == 1
        with pytest.raises((WalFlushError, DegradedModeError)):
            txn2 = store.begin()
            store.put(txn2, "c", (2, 0), {"x": 2})
            store.commit(txn2)
        store.close()

    def test_reads_survive_wal_failure(self, db_path):
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"x": 1})
        store.commit(txn)
        store.faults.arm("wal.flush.fsync", "error")
        txn = store.begin()
        store.put(txn, "c", (2, 0), {"x": 2})
        with pytest.raises(WalFlushError):
            store.commit(txn)
        assert store.degraded is not None
        assert store.get("c", (1, 0)) == {"x": 1}  # reads keep working
        store.close()

    def test_durable_prefix_survives_reopen(self, db_path):
        store = self._failing_store(db_path)
        txn = store.begin()
        store.put(txn, "c", (1, 0), {"x": 1})
        with pytest.raises(WalFlushError):
            store.commit(txn)
        store.close()  # checkpoint skipped: the log is dead
        reopened = Store(db_path)
        assert reopened.has_cluster("c")  # durable prefix
        # The failed commit was never acknowledged. It may still surface
        # (the OS kept the buffers; only the fsync was refused) or be
        # gone — both are legal. What is not legal is a broken store.
        assert reopened.get("c", (1, 0)) in (None, {"x": 1})
        assert reopened.degraded is None  # a fresh process starts healthy
        reopened.close()


class TestGroupCommitFailure:
    """A failed group fsync must reject every committer — concurrently or
    after the fact — and never leave a thread hanging."""

    def test_all_committers_fail_no_hangs(self, db_path):
        db = Database(db_path, durability="group")
        db.create(FaultGadget)
        with db.transaction():
            db.pnew(FaultGadget, n=0)
        db.store.faults.arm("wal.flush.fsync", "error")
        db.store.set_durability("group", group_size=2, group_window=0.01)
        results = {}

        def committer(i):
            try:
                with db.transaction():
                    db.pnew(FaultGadget, n=i)
                results[i] = "committed"
            except (WalFlushError, DegradedModeError) as exc:
                results[i] = type(exc).__name__
            except Exception as exc:  # pragma: no cover - diagnostic
                results[i] = "unexpected:%r" % exc

        threads = [threading.Thread(target=committer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "hung committer"
        # Once the flush fails nothing can durably commit; every thread
        # got a typed error or (the pre-failure window) committed.
        failures = [r for r in results.values() if r != "committed"]
        assert failures, "no committer observed the fsync failure"
        assert all(r in ("committed", "WalFlushError", "DegradedModeError")
                   for r in results.values()), results
        assert db.degraded is not None
        db.close()


class TestTransientRetry:
    """db.run_transaction retries transient IO errors with backoff."""

    def test_transient_read_error_is_retried(self, db_path):
        db = Database(db_path)
        db.create(FaultGadget)
        with db.transaction():
            oid = db.pnew(FaultGadget, n=7).oid
        db.close()

        db = Database(db_path)  # cold pool: the deref must hit the disk
        db.faults.arm("pagefile.read.pre", "error")
        value = db.run_transaction(lambda: db.deref(oid).n)
        assert value == 7
        assert db.faults.armed("pagefile.read.pre").fired == 1
        assert db.metrics.get("txn.retries") >= 1
        db.close()

    def test_retries_exhausted_reraises(self, db_path):
        db = Database(db_path)
        db.create(FaultGadget)
        with db.transaction():
            oid = db.pnew(FaultGadget, n=7).oid
        db.close()

        db = Database(db_path)
        db.faults.arm("pagefile.read.pre", "error", count=0)  # every read
        with pytest.raises(TransientIOError):
            db.run_transaction(lambda: db.deref(oid).n, retries=2,
                               backoff=0.001)
        db.close()


class TestFaultObservability:
    def test_injections_counted_and_logged(self, db_path):
        db = Database(db_path)
        db.faults.arm("pagefile.read.pre", "error")
        with pytest.raises(OSError):
            db.faults.fire("pagefile.read.pre", page_no=1)
        assert db.metrics.get("faults.injected") == 1
        assert db.events.snapshot(kind="fault_injected")
        db.close()

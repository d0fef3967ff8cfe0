"""Shutdown-ordering regression: the final checkpoint must not race
in-flight scans or maintenance (the close()-vs-scan hazard fixed in the
server PR — pinned here)."""

import threading
import time

import pytest

from repro.core import IntField, OdeObject
from repro.core.database import Database
from repro.errors import StorageError


class QObj(OdeObject):
    n = IntField(default=0)


class TestStoreQuiesce:
    def test_quiesce_with_no_readers_is_immediate(self, tmp_path):
        db = Database(str(tmp_path / "q.odb"))
        try:
            assert db.store.quiesce(timeout=1.0) is True
        finally:
            db.close()

    def test_quiesce_waits_for_reader_then_succeeds(self, tmp_path):
        db = Database(str(tmp_path / "q.odb"))
        store = db.store
        entered = threading.Event()
        release = threading.Event()
        done = {}

        def reader():
            store._scan_enter()
            entered.set()
            release.wait(5.0)
            store._scan_exit()
            done["exited"] = True

        t = threading.Thread(target=reader)
        t.start()
        entered.wait(5.0)
        # A stuck reader makes quiesce time out (it must never hang).
        assert store.quiesce(timeout=0.3) is False
        release.set()
        t.join()
        assert store.quiesce(timeout=5.0) is True
        assert done.get("exited")
        # After quiesce, new scans are refused — nothing can sneak in
        # between the drain and the final checkpoint.
        with pytest.raises(StorageError, match="shutting down"):
            store._scan_enter()
        store._quiesced = False  # undo for clean close

    def test_close_waits_for_inflight_scan(self, tmp_path):
        """A scan running while close() is called must finish (or be
        fenced) before the final checkpoint — close() must neither hang
        nor corrupt."""
        path = str(tmp_path / "c.odb")
        db = Database(path)
        db.create(QObj)
        with db.transaction():
            for i in range(300):
                db.pnew(QObj, n=i)
        scanning = threading.Event()
        results = {}

        def slow_scan():
            try:
                total = 0
                for obj in db.cluster(QObj):
                    total += obj.n
                    scanning.set()
                    time.sleep(0.001)
                results["total"] = total
            except StorageError as exc:
                # Acceptable: the scan was fenced off by the shutdown.
                results["fenced"] = str(exc)

        t = threading.Thread(target=slow_scan)
        t.start()
        assert scanning.wait(10.0)
        db.close()
        t.join(timeout=15.0)
        assert not t.is_alive(), "scan thread wedged by close()"
        assert "total" in results or "fenced" in results
        # The store shut down cleanly: it reopens and verifies.
        db2 = Database(path)
        try:
            assert db2.verify() == []
            assert sum(1 for _ in db2.cluster(QObj)) == 300
        finally:
            db2.close()

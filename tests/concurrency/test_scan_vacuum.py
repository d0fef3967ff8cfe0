"""Store maintenance racing MVCC scans.

The contract under test: vacuum — the store's compaction and
reclustering rewrite — moves a cluster's heap pages while client
threads run snapshot scans, and nothing is ever lost — every scan sees
a consistent snapshot with the full object population, the scan page
cache and the decoded-object cache invalidate when their pages move,
and writers keep working throughout.
All concurrency here comes from the client threads the tests start; the
store itself spawns none.
"""

import threading
import time

import pytest

from repro.core import Database, IntField, OdeObject, StringField
from repro.query import forall
from repro.storage.store import Store

pytestmark = pytest.mark.concurrency

class VacuumPart(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)


@pytest.fixture
def part_db(tmp_path):
    db = Database(str(tmp_path / "parts.odb"))
    yield db
    if not db._closed:
        try:
            db.close()
        except Exception:
            pass


def run_threads(workers, timeout=120):
    """Start *workers* (zero-arg callables) and re-raise their failures."""
    errors = []

    def guard(fn):
        def wrapped():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised in main
                errors.append(exc)
        return wrapped

    threads = [threading.Thread(target=guard(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    alive = [t for t in threads if t.is_alive()]
    assert not alive, "threads hung: %r" % alive
    if errors:
        raise errors[0]


class TestScansVersusVacuum:
    def test_mvcc_scans_race_vacuum(self, part_db):
        """Reader threads looping full scans while vacuum rewrites the
        cluster: every scan observes the full population."""
        db = part_db
        db.create(VacuumPart)
        n = 200
        for i in range(n):
            db.pnew(VacuumPart, name="p%d" % i, qty=i)
        stop = threading.Event()
        scans = {"done": 0}

        def reader():
            while not stop.is_set():
                with db.transaction():
                    got = sorted(p.qty for p in forall(db.cluster(VacuumPart)))
                    assert got == list(range(n)), (
                        "scan lost objects: %d/%d" % (len(got), n))
                scans["done"] += 1

        def vacuumer():
            try:
                for _ in range(5):
                    # Records, not objects: every object carries a head
                    # record plus its version states.
                    report = db.store.vacuum("VacuumPart")
                    assert report["objects"] >= n
            finally:
                stop.set()

        run_threads([reader, reader, vacuumer])
        assert scans["done"] > 0
        assert db.verify() == []

    def test_store_scans_race_vacuum_and_writers(self, tmp_path):
        """Raw store level: concurrent batched scans + per-key writers +
        repeated vacuums; object count never drifts."""
        store = Store(str(tmp_path / "raw.pages"))
        txn = store.begin()
        store.create_cluster(txn, "c")
        serials = []
        for i in range(150):
            serial = store.allocate_serial(txn, "c")
            store.put(txn, "c", (serial, 0),
                      {"__key": [serial, 0], "n": i}, new=True)
            serials.append(serial)
        store.commit(txn)
        stop = threading.Event()

        def scanner():
            while not stop.is_set():
                seen = {record["__key"][0]
                        for batch in store.scan_batches("c")
                        for _rid, record in batch}
                # Writers only overwrite existing keys, so the full
                # serial set must be visible to every scan.
                assert seen == set(serials), (
                    "scan lost %d objects" % (len(serials) - len(seen)))

        def writer():
            i = 0
            while not stop.is_set():
                wtxn = store.begin()
                serial = serials[i % len(serials)]
                store.put(wtxn, "c", (serial, 0),
                          {"__key": [serial, 0], "n": -i})
                store.commit(wtxn)
                i += 1

        def vacuumer():
            try:
                for _ in range(4):
                    store.vacuum("c")
            finally:
                stop.set()

        run_threads([scanner, scanner, writer, vacuumer])
        assert store.count("c") == len(serials)
        assert store.verify_integrity() == []
        store.close()


class TestScansVersusRecluster:
    def test_scans_race_repeated_vacuum(self, tmp_path):
        """Back-to-back vacuums while readers loop snapshot scans:
        consistent results, nothing lost."""
        db = Database(str(tmp_path / "rd.odb"))
        try:
            db.create(VacuumPart)
            n = 120
            for i in range(n):
                db.pnew(VacuumPart, name="p%d" % i, qty=i)
            stop = threading.Event()
            rewrites = []

            def reader():
                while not stop.is_set():
                    with db.transaction():
                        got = sorted(p.qty
                                     for p in forall(db.cluster(VacuumPart)))
                    assert got == list(range(n))

            def vacuumer():
                try:
                    deadline = time.time() + 4.0
                    while time.time() < deadline and len(rewrites) < 3:
                        rewrites.append(db.store.vacuum("VacuumPart"))
                        time.sleep(0.05)
                finally:
                    stop.set()

            run_threads([reader, reader, vacuumer])
            assert len(rewrites) >= 1, "vacuum never ran"
            assert len({r["objects"] for r in rewrites}) == 1
            assert db.verify() == []
            with db.transaction():
                assert len(list(forall(db.cluster(VacuumPart)))) == n
        finally:
            db.close()


class TestCacheInvalidation:
    def test_page_cache_invalidates_after_rewrite(self, tmp_path):
        """The scan page cache keys on (page, LSN); a vacuum moves every
        record to fresh pages, so re-scans return the new placement, not
        stale cached batches."""
        store = Store(str(tmp_path / "pc.pages"))
        txn = store.begin()
        store.create_cluster(txn, "c")
        serials = []
        for i in range(80):
            serial = store.allocate_serial(txn, "c")
            store.put(txn, "c", (serial, 0),
                      {"__key": [serial, 0], "n": i}, new=True)
            serials.append(serial)
        store.commit(txn)
        # Two passes: the second one populates from / hits the cache.
        for _ in range(2):
            before = [record["n"] for batch in store.scan_batches("c")
                      for _rid, record in batch]
        assert store.page_cache_hits > 0
        old_rids = {record["__key"][0]: rid
                    for batch in store.scan_batches("c")
                    for rid, record in batch}
        store.vacuum("c")
        after = {record["__key"][0]: record["n"]
                 for batch in store.scan_batches("c")
                 for _rid, record in batch}
        assert len(after) == 80
        assert sorted(after.values()) == sorted(before)
        # The records now come from different pages.
        moved_rids = {}
        for batch in store.scan_batches("c"):
            for rid, record in batch:
                moved_rids[record["__key"][0]] = rid
        assert set(moved_rids) == set(serials)
        assert ({rid.page_no for rid in moved_rids.values()}
                .isdisjoint(rid.page_no for rid in old_rids.values()))
        store.close()

    def test_decoded_object_cache_coherent_across_vacuum(self, part_db):
        """Object-layer decoded cache entries are LSN-token guarded;
        after vacuum's reclustering rewrite moves the objects their
        tokens stop validating, so derefs re-read instead of serving
        stale data."""
        db = part_db
        db.create(VacuumPart)
        objs = [db.pnew(VacuumPart, name="p%d" % i, qty=i) for i in range(40)]
        with db.transaction():
            for obj in forall(db.cluster(VacuumPart)):
                assert obj.qty >= 0  # populate the decoded cache
        db.store.vacuum("VacuumPart")
        with db.transaction():
            got = sorted(p.qty for p in forall(db.cluster(VacuumPart)))
        assert got == list(range(40))
        # And a write after the rewrite still lands correctly.
        with db.transaction():
            objs[0].qty = 999
        with db.transaction():
            assert max(p.qty for p in forall(db.cluster(VacuumPart))) == 999

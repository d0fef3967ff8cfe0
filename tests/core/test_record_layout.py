"""One record per object (page-file format 5).

The version head ``(serial, 0)`` carries the current version's state, and
a ``(serial, v)`` record exists only for a non-current version ``v``. So
``pnew`` and ``pdelete`` of a one-version object are one heap operation
plus one object-table operation each — one OP record apiece — and a cold
deref is one object-table search and one heap read. The counts here are
exact."""

from repro import A, IntField, OdeObject, StringField
from repro.core.database import Database
from repro.storage.heap import HeapFile
from repro.storage.objtable import ObjectTable
from repro.storage.wal import LogRecordType


class LayoutItem(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)


def _op_records(db, start):
    return [record for _lsn, record in db.store._wal.records(start)
            if record["type"] == LogRecordType.OP]


def _keys(db):
    return sorted(db.store._directory("LayoutItem").items())


class TestOpRecords:
    def test_pnew_and_pdelete_log_two_op_records_each(self, db):
        db.create(LayoutItem)
        with db.transaction():
            # reserves the serial block and starts the heap page
            db.pnew(LayoutItem, name="warm")
        wal = db.store._wal
        with db.transaction():
            start = wal.end_lsn
            obj = db.pnew(LayoutItem, name="x", qty=1)
            # one heap insert, one object-table insert
            assert len(_op_records(db, start)) == 2
            start = wal.end_lsn
            db.pdelete(obj)
            # one object-table delete, one heap delete
            assert len(_op_records(db, start)) == 2

    def test_a_versioned_delete_removes_each_older_version_once(self, db):
        db.create(LayoutItem)
        obj = db.pnew(LayoutItem, name="v", qty=0)
        for qty in (1, 2):
            db.newversion(obj)
            obj.qty = qty
        wal = db.store._wal
        with db.transaction():
            start = wal.end_lsn
            db.pdelete(obj.oid)
            # the head and the two non-current versions: two each
            assert len(_op_records(db, start)) == 6


class TestColdDeref:
    def test_one_table_search_and_one_heap_read(self, db_path, monkeypatch):
        db = Database(db_path)
        db.create(LayoutItem)
        oid = db.pnew(LayoutItem, name="cold", qty=7).oid
        db.close()
        searches, reads = [], []
        search, read = ObjectTable.search, HeapFile.read_with_lsn
        monkeypatch.setattr(
            ObjectTable, "search",
            lambda self, key: searches.append(key) or search(self, key))
        monkeypatch.setattr(
            HeapFile, "read_with_lsn",
            lambda self, rid: reads.append(rid) or read(self, rid))
        db = Database(db_path)
        try:
            del searches[:], reads[:]
            assert db.deref(oid).qty == 7
            assert searches == [(oid.serial, 0)]
            assert len(reads) == 1
        finally:
            db.close()


class TestLayout:
    def test_records_follow_the_chain(self, db):
        db.create(LayoutItem)
        obj = db.pnew(LayoutItem, name="a", qty=1)
        s = obj.oid.serial
        assert [key for key, _rid in _keys(db)] == [(s, 0)]
        assert db.store.get("LayoutItem", (s, 0)) == {
            "current": 1, "chain": [1], "state": {"name": "a", "qty": 1}}

        # newversion: the old current state moves into (s, 1); the head
        # goes on carrying the same state as version 2's
        v2 = db.newversion(obj)
        obj.qty = 2
        db.checkpoint()
        assert [key for key, _rid in _keys(db)] == [(s, 0), (s, 1)]
        assert db.store.get("LayoutItem", (s, 1))["state"]["qty"] == 1
        head = db.store.get("LayoutItem", (s, 0))
        assert (head["current"], head["chain"]) == (2, [1, 2])
        assert head["state"]["qty"] == 2

        # deleting the current version moves the latest remaining
        # version's state into the head and drops its own record
        db.pdelete(v2)
        assert [key for key, _rid in _keys(db)] == [(s, 0)]
        head = db.store.get("LayoutItem", (s, 0))
        assert (head["current"], head["chain"]) == (1, [1])
        assert head["state"]["qty"] == 1
        assert db.deref(obj.oid).qty == 1
        assert db.verify() == []

    def test_deleting_the_current_version_moves_its_index_entry(self, db):
        db.create(LayoutItem)
        db.create_index(LayoutItem, "qty")
        obj = db.pnew(LayoutItem, name="i", qty=1)
        v2 = db.newversion(obj)
        obj.qty = 2
        db.checkpoint()
        assert db.store.index_search("LayoutItem", "qty", 2) == [
            obj.oid.serial]
        db.pdelete(v2)
        assert db.store.index_search("LayoutItem", "qty", 2) == []
        assert db.store.index_search("LayoutItem", "qty", 1) == [
            obj.oid.serial]
        found = db.forall(LayoutItem).suchthat(A.qty == 1)
        assert [o.name for o in found] == ["i"]

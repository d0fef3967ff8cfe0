"""Vacuum on a store an older binary split over four page files.

The first open merges such a store into one file
(``repro.storage.upgrade.merge_files``); each cluster then has one heap
that still holds the pages copied from the four files. Vacuum
reclusters those into one fresh run and must keep every object, the
version chains and the indexes; ``test_one_file.TestVacuum`` covers a
store that was always one file."""

import pytest

from repro.core.database import Database

from tests.storage.fixtures import comparable, extra_files, unpack
from tests.storage.test_upgrade_fold import FoldItem, answers, fired


@pytest.fixture(autouse=True)
def clear_fired():
    fired.clear()


@pytest.fixture
def merged(tmp_path):
    """``(Database, fixture meta)`` for ``clean4``, merged at open."""
    path, meta = unpack("clean4", tmp_path)
    db = Database(path)
    assert extra_files(path) == []
    yield db, meta
    if not db.store._closed:
        db.close()


def delete_every_other(db, versioned):
    """pdelete every other object but *versioned*; returns how many
    remain."""
    oids = sorted(db.cluster(FoldItem).oids(), key=lambda o: o.serial)
    with db.transaction():
        for oid in oids[::2]:
            if oid != versioned:
                db.pdelete(oid)
    return db.cluster(FoldItem).count()


class TestVacuumRecluster:
    def test_sharded_vacuum_keeps_objects(self, merged):
        db, meta = merged
        remaining = delete_every_other(db, meta["versioned"])
        assert remaining < meta["answers"]["count"]
        before = comparable(answers(db, meta["versioned"]))
        records = db.store.count("FoldItem")   # heads plus older versions
        report = db.vacuum(FoldItem)["FoldItem"]
        assert report["objects"] == records
        assert db.store.count("FoldItem") == records
        assert report["pages_freed"] > 0
        assert comparable(answers(db, meta["versioned"])) == before
        assert db.verify() == []

    def test_vacuum_event(self, merged):
        db, meta = merged
        records = db.store.count("FoldItem")
        assert records > meta["answers"]["count"]   # older versions too
        db.vacuum(FoldItem)
        events = [e for e in db.events.snapshot()
                  if e["kind"] == "vacuum"]
        assert len(events) == 1 and events[0]["data"]["objects"] == records

    def test_vacuum_survives_reopen(self, tmp_path):
        path, meta = unpack("clean4", tmp_path)
        db = Database(path)
        remaining = delete_every_other(db, meta["versioned"])
        before = comparable(answers(db, meta["versioned"]))
        db.vacuum()
        db.close()
        db = Database(path)
        try:
            assert extra_files(path) == []
            assert db.events.snapshot("files_merged") == []
            assert db.cluster(FoldItem).count() == remaining
            assert comparable(answers(db, meta["versioned"])) == before
            assert db.verify() == []
        finally:
            db.close()

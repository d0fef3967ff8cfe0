"""A store is one page file plus its log. Older binaries could split a
store over four page files; every fixture here was written by one of
them (``tests/storage/fixtures/make_sharded.py``), and the first open
merges it into one file (``repro.storage.upgrade.merge_files``), after
which the object layer answers exactly what that binary answered."""

import threading

import pytest

from repro import Database, IntField, OdeObject
from repro.__main__ import main
from repro.storage import store as store_module
from repro.storage.store import Store
from repro.storage.upgrade import FILES_ROOT_KEY, _split_clusters

from tests.storage.fixtures import NAMES, comparable, extra_files, unpack
from tests.storage.test_upgrade_fold import FoldItem, answers, fired


@pytest.fixture(autouse=True)
def clear_fired():
    fired.clear()


@pytest.mark.parametrize("name", NAMES)
def test_a_four_file_store_opens_as_one_file(tmp_path, name):
    path, meta = unpack(name, tmp_path)
    assert extra_files(path) == ["f.odb.s1", "f.odb.s2", "f.odb.s3"]
    db = Database(path)
    try:
        assert extra_files(path) == []
        (event,) = db.events.snapshot("files_merged")
        assert event["data"]["files"] == 4
        # FoldItem and the trigger activations
        assert event["data"]["clusters"] == 2
        # one heap and one object table per cluster, in the main file
        assert _split_clusters(db.store.catalog) == {}
        assert db.store._pagefile.get_root(FILES_ROOT_KEY) == 0
        assert db.stats()["storage"]["format_version"] == 6
        assert comparable(answers(db, meta["versioned"])) == meta["answers"]
        assert db.verify() == []
        # the activations still fire
        with db.transaction():
            db.deref(meta["watched"]).qty = 1
        assert fired == [("i02", 5)]
    finally:
        db.close()
    assert main(["verify", path]) == 0

    db = Database(path)                         # nothing left to convert
    try:
        assert db.events.snapshot("files_merged") == []
        assert db.events.snapshot("format_upgrade") == []
        assert db.verify() == []
        assert db.cluster(FoldItem).count() == meta["answers"]["count"]
    finally:
        db.close()


def test_the_loser_in_the_log_is_rolled_back_before_the_merge(tmp_path):
    """``crashed4`` died with a transaction open whose pnews went to
    the object tables of files 1-3, and which deleted an object in
    file 2; the merge copies what recovery left."""
    path, meta = unpack("crashed4", tmp_path)
    db = Database(path)
    try:
        assert len(db.store.last_recovery.losers) == 1
        names = [row[1] for row in meta["answers"]["deref"]]
        assert "late" in names and "i05" in names
        assert not any(name.startswith("lost") for name in names)
        assert comparable(answers(db, meta["versioned"])) == meta["answers"]
        # serials go on past every one the old store reserved
        made = db.pnew(FoldItem, name="new", qty=1).oid.serial
        assert made > max(row[0] for row in meta["answers"]["deref"])
    finally:
        db.close()


def test_files_a_merge_left_behind_are_removed_at_open(tmp_path):
    """A kill after the root is cleared, before the unlinks, leaves the
    other files of a store that is already one file: the next open
    unlinks them."""
    path, _meta = unpack("clean4", tmp_path)
    Database(path).close()
    for n in (1, 2):
        with open("%s.s%d" % (path, n), "wb") as handle:
            handle.write(b"left behind")
    Database(path).close()
    assert extra_files(path) == []


# -- what one file keeps of the N-file store's behaviour ----------------------


class OneFileNode(OdeObject):
    n = IntField(default=0)


def fill(store, n=120, cluster="c"):
    txn = store.begin()
    if not store.has_cluster(cluster):
        store.create_cluster(txn, cluster)
    serials = []
    for i in range(n):
        serial = store.allocate_serial(txn, cluster)
        store.put(txn, cluster, (serial, 0),
                  {"__key": [serial, 0], "n": i}, new=True)
        serials.append(serial)
    store.commit(txn)
    return serials


@pytest.mark.parametrize("seeds", [8, 400])
def test_scan_fixpoint(tmp_path, seeds):
    """Paper section 3.2: records inserted during a scan are visited by
    the one walk. 400 seeds grow the heap past its first extent, so
    inserts land on pages linked after the walk started."""
    store = Store(str(tmp_path / "fix.pages"))
    fill(store, seeds)
    seen = []
    txn = store.begin()
    for batch in store.scan_batches("c"):
        for _rid, record in batch:
            seen.append(record["n"])
            if record["n"] < seeds:
                serial = store.allocate_serial(txn, "c")
                store.put(txn, "c", (serial, 0),
                          {"__key": [serial, 0], "n": seeds + record["n"]},
                          new=True)
    store.commit(txn)
    assert sorted(seen) == list(range(2 * seeds))
    store.close()


def test_forall_fixpoint(tmp_path):
    db = Database(str(tmp_path / "grow.odb"))
    db.create(OneFileNode)
    for i in range(8):
        db.pnew(OneFileNode, n=i)
    seen = []
    for node in db.forall(OneFileNode):
        seen.append(node.n)
        if node.n < 8:
            db.pnew(OneFileNode, n=8 + node.n)
    assert sorted(seen) == list(range(16))
    db.close()


def test_opening_a_database_starts_no_thread(tmp_path):
    before = set(threading.enumerate())
    db = Database(str(tmp_path / "t.odb"))
    db.create(OneFileNode)
    db.pnew(OneFileNode, n=1)
    assert set(threading.enumerate()) == before
    db.close()


class TestVacuum:
    @pytest.fixture
    def store(self, tmp_path):
        store = Store(str(tmp_path / "v.pages"))
        yield store
        if not store._closed:
            store.close()

    def test_vacuum_keeps_objects(self, store):
        serials = fill(store, 120)
        txn = store.begin()
        for serial in serials[:60]:
            store.delete(txn, "c", (serial, 0))
        store.commit(txn)
        report = store.vacuum("c")
        assert report["objects"] == 60
        assert report["pages_freed"] > 0
        assert store.count("c") == 60
        assert store.verify_integrity() == []
        seen = sorted(record["n"] for _rid, record in store.scan("c"))
        assert seen == list(range(60, 120))
        (event,) = store.events.snapshot("vacuum")
        assert event["data"]["objects"] == 60

    def test_vacuum_is_one_transaction(self, store, monkeypatch):
        fill(store, 120)
        commits = []
        commit = store._journal.commit
        monkeypatch.setattr(store._journal, "commit",
                            lambda txn: commits.append(txn) or commit(txn))
        store.vacuum("c")
        assert len(commits) == 1

    def test_vacuum_failure_rolls_back(self, store, monkeypatch):
        fill(store, 120)
        info = store.cluster_info("c")
        before = (info.heap_page, info.directory_page)

        def fail(*args):
            raise RuntimeError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "rewrite_objects", fail)
            with pytest.raises(RuntimeError):
                store.vacuum("c")
        info = store.cluster_info("c")
        assert (info.heap_page, info.directory_page) == before
        assert store.count("c") == 120
        assert store.verify_integrity() == []
        assert store.vacuum("c")["objects"] == 120

"""Tests for the Store facade (clusters, objects, indexes, crash)."""

import pytest

from repro.errors import CatalogError
from repro.storage.heap import HeapFile
from repro.storage.store import Store


class TestClusters:
    def test_create_and_lookup(self, store):
        txn = store.begin()
        info = store.create_cluster(txn, "person")
        store.commit(txn)
        assert store.has_cluster("person")
        assert store.cluster_info("person").cluster_id == info.cluster_id

    def test_duplicate_cluster_rejected(self, store):
        txn = store.begin()
        store.create_cluster(txn, "a")
        with pytest.raises(CatalogError):
            store.create_cluster(txn, "a")

    def test_missing_parent_rejected(self, store):
        txn = store.begin()
        with pytest.raises(CatalogError):
            store.create_cluster(txn, "child", parents=["ghost"])

    def test_hierarchy_recorded(self, store):
        txn = store.begin()
        store.create_cluster(txn, "person")
        store.create_cluster(txn, "student", parents=["person"])
        store.create_cluster(txn, "ta", parents=["student"])
        store.commit(txn)
        children = store.catalog.children_of("person")
        assert [c.name for c in children] == ["student"]

    def test_missing_cluster_error(self, store):
        with pytest.raises(CatalogError):
            store.cluster_info("ghost")

    def test_serials_monotone(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        serials = [store.allocate_serial(txn, "c") for _ in range(5)]
        store.commit(txn)
        assert serials == [1, 2, 3, 4, 5]

    def test_serials_unique_within_and_across_blocks(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        n = Store.SERIAL_BLOCK * 2 + 3
        serials = [store.allocate_serial(txn, "c") for _ in range(n)]
        store.commit(txn)
        assert len(set(serials)) == n
        assert serials == sorted(serials)

    def test_serials_not_reused_after_reopen(self, db_path):
        """Serials may skip (block allocation) but must never repeat."""
        s = Store(db_path)
        txn = s.begin()
        s.create_cluster(txn, "c")
        first = {s.allocate_serial(txn, "c") for _ in range(2)}
        s.commit(txn)
        s.close()
        s2 = Store(db_path)
        txn = s2.begin()
        later = s2.allocate_serial(txn, "c")
        s2.commit(txn)
        s2.close()
        assert later not in first
        assert later > max(first)

    def test_aborted_block_not_reissued_stale(self, store):
        """After an abort drops a reserved block, new serials still do not
        collide with serials issued by committed transactions."""
        txn = store.begin()
        store.create_cluster(txn, "c")
        committed = [store.allocate_serial(txn, "c") for _ in range(3)]
        store.commit(txn)
        txn = store.begin()
        store.allocate_serial(txn, "c")
        store.abort(txn)
        txn = store.begin()
        fresh = store.allocate_serial(txn, "c")
        store.commit(txn)
        assert fresh not in committed


class TestObjects:
    def test_put_get(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"name": "x", "n": 5})
        store.commit(txn)
        assert store.get("c", (1, 0)) == {"name": "x", "n": 5}

    def test_get_missing(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        assert store.get("c", (99, 0)) is None

    def test_overwrite(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"v": 1})
        store.put(txn, "c", (1, 0), {"v": 2})
        store.commit(txn)
        assert store.get("c", (1, 0)) == {"v": 2}

    def test_delete(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"v": 1})
        assert store.delete(txn, "c", (1, 0)) is True
        assert store.delete(txn, "c", (1, 0)) is False
        store.commit(txn)
        assert store.get("c", (1, 0)) is None

    def test_scan(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for i in range(20):
            store.put(txn, "c", (i, 0), {"i": i})
        store.commit(txn)
        scanned = sorted(rec["i"] for _, rec in store.scan("c"))
        assert scanned == list(range(20))

    def test_large_object(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        big = {"blob": "x" * 50000, "items": list(range(1000))}
        store.put(txn, "c", (1, 0), big)
        store.commit(txn)
        assert store.get("c", (1, 0)) == big


class TestAbort:
    def test_abort_object_changes(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"v": "original"})
        store.commit(txn)

        txn = store.begin()
        store.put(txn, "c", (1, 0), {"v": "mutated"})
        store.put(txn, "c", (2, 0), {"v": "new"})
        store.abort(txn)
        assert store.get("c", (1, 0)) == {"v": "original"}
        assert store.get("c", (2, 0)) is None

    def test_abort_cluster_creation(self, store):
        txn = store.begin()
        store.create_cluster(txn, "ghost")
        store.abort(txn)
        assert not store.has_cluster("ghost")

    def test_abort_index_creation(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        txn = store.begin()
        store.create_index(txn, "c", "f")
        store.abort(txn)
        assert "f" not in store.indexes_on("c")

    def test_abort_keeps_the_heap_handle_of_a_long_chain(self, store,
                                                        monkeypatch):
        """An abort beside a 200-page heap leaves its handle (and tail)
        cached: the next insert walks no chain."""
        txn = store.begin()
        store.create_cluster(txn, "big")
        store.commit(txn)
        txn = store.begin()
        for serial in range(1, 401):  # two ~1.9 KB records per page
            store.put(txn, "big", (serial, 0), {"pad": "x" * 1900})
        store.commit(txn)
        heap = store._heap("big")
        assert len(store._pages_of_heap(heap)) >= 200

        txn = store.begin()
        store.put(txn, "big", (1, 0), {"pad": "aborted"})
        store.put(txn, "big", (9999, 0), {"pad": "aborted"})
        store.abort(txn)

        walks = []
        real = HeapFile._find_tail
        monkeypatch.setattr(HeapFile, "_find_tail",
                            lambda self: walks.append(1) or real(self))
        txn = store.begin()
        store.put(txn, "big", (401, 0), {"pad": "after"})
        store.commit(txn)
        assert walks == []
        assert store._heap("big") is heap
        assert store.get("big", (1, 0)) == {"pad": "x" * 1900}
        assert store.get("big", (9999, 0)) is None

    def test_abort_forgets_what_the_catalog_no_longer_names(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        txn = store.begin()
        store.create_cluster(txn, "ghost")
        store.put(txn, "ghost", (1, 0), {"v": 1})
        store.create_index(txn, "c", "f")
        store.index("c", "f")
        store.abort(txn)
        assert not any(name == "ghost" for name, _ in store._heaps)
        assert not any(name == "ghost" for name, _ in store._directories)
        assert ("c", "f") not in store._indexes
        assert ("c", 0) in store._heaps
        with pytest.raises(CatalogError):
            store.put(store.begin(), "ghost", (1, 0), {"v": 1})


class TestIndexes:
    def test_create_and_use(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "name", kind="btree")
        store.index("c", "name").insert(txn, "alice", 1)
        store.commit(txn)
        assert store.index("c", "name").search("alice") == [1]

    def test_duplicate_index_rejected(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "f")
        with pytest.raises(CatalogError):
            store.create_index(txn, "c", "f")

    def test_unknown_index(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        with pytest.raises(CatalogError):
            store.index("c", "ghost")

    def test_index_survives_reopen(self, db_path):
        s = Store(db_path)
        txn = s.begin()
        s.create_cluster(txn, "c")
        s.create_index(txn, "c", "age", kind="btree")
        for i in range(50):
            s.index("c", "age").insert(txn, i % 10, i)
        s.commit(txn)
        s.close()
        s2 = Store(db_path)
        assert len(s2.index("c", "age").search(3)) == 5
        s2.close()


class TestCrash:
    def test_crash_recovery_on_open(self, db_path):
        s = Store(db_path)
        txn = s.begin()
        s.create_cluster(txn, "c")
        s.put(txn, "c", (1, 0), {"v": "durable"})
        s.commit(txn)
        txn = s.begin()
        s.put(txn, "c", (2, 0), {"v": "lost"})
        s.crash()

        s2 = Store(db_path)
        assert s2.last_recovery is not None
        assert s2.get("c", (1, 0)) == {"v": "durable"}
        assert s2.get("c", (2, 0)) is None
        s2.close()

    def test_close_aborts_stragglers(self, db_path):
        s = Store(db_path)
        txn = s.begin()
        s.create_cluster(txn, "c")
        s.commit(txn)
        s.begin()  # never finished
        s.close()  # must not raise; straggler aborted
        s2 = Store(db_path)
        assert s2.has_cluster("c")
        s2.close()

    def test_stats(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        stats = store.stats()
        assert stats["pages"] > 1
        assert stats["wal_appends"] > 0

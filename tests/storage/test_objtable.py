"""The serial-indexed object table (storage/objtable.py) and the store
paths built on it: a differential against a dict model, the counts the
design promises (pins per lookup, logged bytes per change, pages per
object), corruption detection + repair, and the conversion of version-2
hash directories at open."""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, StorageError
from repro.storage import pagefile as pagefile_mod
from repro.storage.codec import decode_prefix, encode_key
from repro.storage.heap import RID
from repro.storage.objtable import (ENTRY_SIZE, FANOUT, LEAF_ENTRIES,
                                    LEAF_SERIALS, LIVE, ObjectTable)
from repro.storage.page import HEADER_SIZE, NO_PAGE, PAGE_SIZE, PageType
from repro.storage.store import Store

from tests.storage.legacy_layouts import (header_version, page_type,
                                          stable_hash, stamp_version,
                                          to_v2_layout, to_version_2)


def record(key, n=0):
    return {"__key": list(key), "n": n}


def directory_items(store, cluster="c"):
    return dict(store._directory(cluster).items())


# -- differential: store + table vs a dict --------------------------------------

#: Dense serials around a leaf boundary, plus sparse ones far up the
#: radix (other leaves, other mid pages, a chained root page).
serials = st.one_of(
    st.integers(min_value=0, max_value=3 * LEAF_SERIALS),
    st.sampled_from([4 * LEAF_SERIALS * FANOUT + 5, 10 ** 7 + 3,
                     4 * LEAF_SERIALS * FANOUT * 7,
                     4 * LEAF_SERIALS * FANOUT * FANOUT + 9]))

ops = st.lists(st.one_of(
    st.tuples(st.just("put"), serials, st.integers(0, 4)),
    st.tuples(st.just("delete"), serials, st.integers(0, 4)),
    # 1..500 versions of one serial at once: fills and chains its leaf.
    st.tuples(st.just("versions"), serials, st.integers(1, 500)),
    # every pending key in the leaf covering the serial: detaches it
    st.tuples(st.just("delete_range"), serials, st.just(0)),
    st.tuples(st.just("commit"), st.just(0), st.just(0)),
    st.tuples(st.just("abort"), st.just(0), st.just(0)),
    st.tuples(st.just("reopen"), st.just(0), st.just(0)),
    # lose the open transaction and the pool; recovery undoes it
    st.tuples(st.just("crash"), st.just(0), st.just(0)),
), max_size=40)


def same_leaf(a, b):
    """Whether serials *a* and *b* share a leaf of the table."""
    return a // LEAF_SERIALS == b // LEAF_SERIALS


class TestDifferential:
    @given(ops=ops)
    @settings(max_examples=25, deadline=None)
    def test_store_matches_dict_model(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.odb")
            store = Store(path, durability="none")
            txn = store.begin()
            store.create_cluster(txn, "c")
            store.commit(txn)
            committed, pending = {}, {}
            txn = store.begin()
            for n, (kind, serial, arg) in enumerate(ops):
                if kind == "put":
                    store.put(txn, "c", (serial, arg),
                              record((serial, arg), n))
                    pending[(serial, arg)] = n
                elif kind == "versions":
                    for version in range(1, arg + 1):
                        store.put(txn, "c", (serial, version),
                                  record((serial, version), n))
                        pending[(serial, version)] = n
                elif kind == "delete":
                    existed = pending.pop((serial, arg), None) is not None
                    assert store.delete(txn, "c", (serial, arg)) == existed
                elif kind == "delete_range":
                    for key in [k for k in pending
                                if same_leaf(k[0], serial)]:
                        assert store.delete(txn, "c", key)
                        del pending[key]
                else:
                    if kind == "abort":
                        store.abort(txn)
                        pending = dict(committed)
                    elif kind == "crash":
                        store.crash()
                        store = Store(path, durability="none")
                        assert store.last_recovery is not None
                        pending = dict(committed)
                    else:
                        store.commit(txn)
                        committed = dict(pending)
                    if kind == "reopen":
                        store.close()
                        store = Store(path, durability="none")
                    txn = store.begin()
                    self.check(store, pending)
                    continue
                key = (serial, arg)
                assert store.exists("c", key) == (key in pending)
            self.check(store, pending)
            store.abort(txn)
            self.check(store, committed)
            store.vacuum("c")                 # reclaims dead entries
            self.check(store, committed)
            assert store.directory_stats("c")["dead_entries"] == 0
            store.close()

    @staticmethod
    def check(store, model):
        assert set(directory_items(store)) == set(model)
        for key, n in model.items():
            assert store.get("c", key) == record(key, n)
        assert store.verify_integrity() == []
        assert store.directory_stats("c")["live_entries"] == len(model)
        # Every leaf chain still reachable holds a live entry: deletes,
        # aborts and recovery detached the others.
        chains = {}
        for leaf, _page_no, raw in store._directory("c")._leaf_pages():
            flags = raw[ENTRY_SIZE - 2::ENTRY_SIZE]
            chains[leaf] = chains.get(leaf, False) or LIVE in flags
        assert all(chains.values())

    def test_key_shapes_outside_the_table_are_refused(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for key in [("a", 0), (1, -1), (2 ** 32, 0), (1, 2 ** 32), (1,)]:
            with pytest.raises(StorageError):
                store.put(txn, "c", key, {"x": 1})
            with pytest.raises(StorageError):
                store.get("c", key)
        assert store.count("c") == 0          # nothing reached the heap
        store.commit(txn)

    def test_serials_past_one_root_page_chain_a_second(self, db_path):
        """A root page covers FANOUT * FANOUT * LEAF_SERIALS serials; the
        table has no upper bound short of the key width."""
        per_root = FANOUT * FANOUT * LEAF_SERIALS
        keys = [(per_root - 1, 0), (per_root, 0), (per_root, 1),
                (2 * per_root + 7, 0), (2 ** 32 - 1, 0)]
        store = Store(db_path, durability="none")
        txn = store.begin()
        store.create_cluster(txn, "c")
        assert store.get("c", keys[1]) is None     # no second root yet
        assert not store.exists("c", keys[-1])
        for key in keys:
            store.put(txn, "c", key, record(key), new=True)
        store.commit(txn)
        store.close()
        store = Store(db_path, durability="none")
        table = store._directory("c")
        assert len(table._roots()) == (2 ** 32 - 1) // per_root + 1
        for key in keys:
            assert store.get("c", key) == record(key)
        assert set(directory_items(store)) == set(keys)
        assert store.verify_integrity() == []
        txn = store.begin()
        assert store.delete(txn, "c", keys[1])
        store.commit(txn)
        store.vacuum("c")
        assert set(directory_items(store)) == set(keys) - {keys[1]}
        assert store.verify_integrity() == []
        store.close()


# -- put(new=True) on an existing key ------------------------------------------


class TestDuplicateNew:
    def assert_refused(self, store, key):
        before = store.count("c")
        txn = store.begin()
        with pytest.raises(DuplicateKeyError):
            store.put(txn, "c", key, {"v": "dup"}, new=True)
        store.commit(txn)
        assert store.count("c") == before      # no orphan heap record
        assert store.get("c", key) == {"v": "first"}
        assert store.verify_integrity() == []

    def test_fresh_leaf(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"v": "first"}, new=True)
        store.commit(txn)
        self.assert_refused(store, (1, 0))

    def test_chained_leaf(self, store):
        """The key lives on a chain page, behind a full first leaf."""
        txn = store.begin()
        store.create_cluster(txn, "c")
        for version in range(1, LEAF_ENTRIES + 20):
            store.put(txn, "c", (5, version), {"v": version}, new=True)
        store.put(txn, "c", (6, 0), {"v": "first"}, new=True)
        store.commit(txn)
        assert store.directory_stats("c")["leaf_pages"] == 2
        self.assert_refused(store, (6, 0))

    def test_version_2_chained_bucket(self, db_path):
        """The old layout's chain path wrote a second entry silently; a
        chained version-2 bucket converts at open like any other."""
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        for serial in range(16000):       # every bucket becomes a chain
            store.put(txn, "c", (serial, 0), {"v": serial}, new=True)
        store.put(txn, "c", (16000, 0), {"v": "first"}, new=True)
        store.commit(txn)
        to_v2_layout(store, "c")
        directory = store.cluster_info("c").directory_page
        with store._pool.page(directory) as page:
            depth, pointers = decode_prefix(page.read(0))[0]
        bucket = pointers[stable_hash(encode_key((16000, 0)))
                          & ((1 << depth) - 1)]
        with store._pool.page(bucket) as page:
            assert page.next_page != NO_PAGE
        store.close()
        store = Store(db_path)
        try:
            assert isinstance(store._directory("c"), ObjectTable)
            assert store.directory_stats("c")["live_entries"] == 16001
            self.assert_refused(store, (16000, 0))
        finally:
            store.close()


# -- the counts the design promises ----------------------------------------------


class TestCounts:
    def test_pins_per_get_do_not_grow_with_the_cluster(self, db_path):
        """leaf + heap page, at any size: the root -> mid descent to a
        leaf is made once per table instance (the leaf never moves)."""
        store = Store(db_path, durability="none", pool_size=4096)
        txn = store.begin()
        store.create_cluster(txn, "c")
        pins = {}
        size = 0
        for target in (1000, 10000, 40000):
            for serial in range(size, target):
                store.put(txn, "c", (serial, 0), {"n": serial}, new=True)
            size = target
            before = self.requests(store._pool)
            probes = range(0, size, size // 50)
            for serial in probes:
                assert store.get("c", (serial, 0)) == {"n": serial}
            after = self.requests(store._pool)
            pins[target] = [(b - a) / len(probes)
                            for a, b in zip(before, after)]
        store.commit(txn)
        store.close()
        # (directory pages, data pages): the pool accounts them apart
        assert pins[1000] == pins[10000] == pins[40000] == [1, 1]

    @staticmethod
    def requests(pool):
        return (pool.directory_hits + pool.directory_misses,
                pool.hits + pool.misses)

    def test_logged_bytes_per_insert_and_delete(self, stack):
        """One UPDATE record of <= 15 changed bytes, however wide the
        values are and however full the table is."""
        _pool, wal, journal = stack
        txn = journal.begin()
        table = ObjectTable.create(journal, txn)
        widest = 0x01010101                     # no zero byte to trim
        for serial in (2, widest):
            table.insert(txn, (serial, 0), (1, 1))   # the leaf exists
        worst = 0
        for key, rid in [((2, 1), (9, 1)),
                         ((2, 2 ** 32 - 1), (2 ** 32 - 1, 65535)),
                         ((widest, widest), (widest, 0x0101))]:
            start = wal.end_lsn
            table.insert(txn, key, rid)
            worst = max(worst, wal.end_lsn - start)
            start = wal.end_lsn
            assert table.delete(txn, key) == rid
            worst = max(worst, wal.end_lsn - start)
        journal.commit(txn)
        assert 0 < worst <= 64

    def test_directory_pages_for_10000_objects(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for serial in range(1, 10001):          # head + one state each
            store.put(txn, "c", (serial, 0), {"current": 1}, new=True)
            store.put(txn, "c", (serial, 1), {"n": serial}, new=True)
        store.commit(txn)
        pages = store._directory("c").pages()
        assert len(pages) <= 100
        stats = store.directory_stats("c")
        assert stats == {"leaf_pages": len(pages) - 2,
                         "live_entries": 20000, "dead_entries": 0}

    def test_deletes_leave_dead_entries_until_vacuum(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for serial in range(300):
            store.put(txn, "c", (serial, 0), {"n": serial})
        for serial in range(0, 300, 3):
            store.delete(txn, "c", (serial, 0))
        store.commit(txn)
        frag = store.fragmentation("c")["directory"]
        assert (frag["live_entries"], frag["dead_entries"]) == (200, 100)
        # taken on demand only: a metrics snapshot never walks a table
        assert not any(name.startswith("directory.")
                       for name in store.metrics.snapshot())
        store.vacuum("c")
        assert store.directory_stats("c")["dead_entries"] == 0
        assert store.directory_stats("c")["live_entries"] == 200


class TestChurn:
    def test_sliding_window_directory_stays_bounded(self, db_path):
        """100 live objects, 5 000 created and deleted: a leaf whose
        serials are all deleted is detached in place, so the table stays
        bounded with no rebuild and nobody calling vacuum."""
        store = Store(db_path, durability="none")
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        window, worst = 100, 0
        for serial in range(5000):
            txn = store.begin()
            for version in (0, 1):
                store.put(txn, "c", (serial, version),
                          record((serial, version)), new=True)
                if serial >= window:
                    assert store.delete(txn, "c", (serial - window, version))
            store.commit(txn)
            if serial % 500 == 499:
                stats = store.directory_stats("c")
                # mostly live, or under a leaf's worth deleted
                assert stats["dead_entries"] <= (stats["live_entries"]
                                                 + LEAF_ENTRIES)
                worst = max(worst, stats["leaf_pages"])
        assert worst <= 3                   # 45+ and growing without detach
        live = {(serial, version) for serial in range(4900, 5000)
                for version in (0, 1)}
        assert set(directory_items(store)) == live
        assert store.verify_integrity() == []
        store.close()

    def test_reversioning_one_object_reuses_its_positions(self, db_path):
        """5 000 version create/delete pairs of one object: each insert
        takes a dead position, so its leaf never chains past two pages
        (it would grow to ~20 if dead positions were not reused)."""
        store = Store(db_path, durability="none")
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (7, 0), record((7, 0)), new=True)
        store.commit(txn)
        for version in range(1, 5001):
            txn = store.begin()
            store.put(txn, "c", (7, version), record((7, version)), new=True)
            if version > 1:
                assert store.delete(txn, "c", (7, version - 1))
            store.commit(txn)
        assert store.directory_stats("c")["leaf_pages"] <= 2
        assert set(directory_items(store)) == {(7, 0), (7, 5000)}
        assert store.verify_integrity() == []
        store.close()

    def test_last_delete_of_a_leaf_frees_its_pages(self, stack):
        """Deleting every entry of a leaf detaches it; the pages reach
        the free list when the transaction ends and an insert into the
        range grows a fresh leaf."""
        pool, _wal, journal = stack
        txn = journal.begin()
        table = ObjectTable.create(journal, txn)
        for serial in range(LEAF_SERIALS, 2 * LEAF_SERIALS):
            table.insert(txn, (serial, 0), (1, serial))
        table.insert(txn, (0, 0), (1, 0))           # another leaf stays
        journal.commit(txn)
        leaf = table._leaf(LEAF_SERIALS)
        txn = journal.begin()
        for serial in range(LEAF_SERIALS, 2 * LEAF_SERIALS):
            assert table.delete(txn, (serial, 0)) == (1, serial)
        assert table._leaf(LEAF_SERIALS) == NO_PAGE
        assert table.stats() == {"leaf_pages": 1, "live_entries": 1,
                                 "dead_entries": 0}
        journal.commit(txn)
        with pool.page(leaf) as page:
            assert page.page_type == PageType.FREE
        txn = journal.begin()
        table.insert(txn, (LEAF_SERIALS + 3, 0), (2, 3))
        journal.commit(txn)
        assert table.search((LEAF_SERIALS + 3, 0)) == (2, 3)
        table.check_invariants()


# -- corruption: detection and repair -------------------------------------------


class TestCorruptEntry:
    @pytest.fixture
    def loaded(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for serial in range(1, 41):
            store.put(txn, "c", (serial, 0), record((serial, 0), serial))
        store.commit(txn)
        return store

    def scribble(self, store, key, offset, raw):
        """Overwrite bytes of *key*'s leaf entry behind the table's back
        (through the journal, so the page still checksums)."""
        table = store._directory("c")
        page_no, entry_at, _rid = table._find(key)
        txn = store.begin()
        with store._journal.edit(txn, page_no) as page:
            at = entry_at + offset
            page.buf[at:at + len(raw)] = raw
        store.commit(txn)

    def test_verify_catches_a_misfiled_serial(self, loaded):
        self.scribble(loaded, (7, 0), 0, struct.pack("<I", 7 + 5000))
        problems = loaded.verify_integrity()
        assert any("directory invariant" in p and "serial 5007" in p
                   for p in problems)

    def test_verify_catches_a_wrong_rid(self, loaded):
        self.scribble(loaded, (7, 0), 8, struct.pack("<IH", 2, 999))
        problems = loaded.verify_integrity()
        assert any("unreadable RID" in p for p in problems)

    def test_repair_rebuilds_the_table_from_heap_keys(self, loaded):
        self.scribble(loaded, (7, 0), 0, struct.pack("<I", 7 + 5000))
        assert loaded.get("c", (7, 0)) is None        # unreachable by id
        report = loaded.repair_quarantined()
        assert report["clusters"]["c"]["objects"] == 40
        assert report["clusters"]["c"]["directory_authoritative"] is False
        assert loaded.verify_integrity() == []
        for serial in range(1, 41):
            assert loaded.get("c", (serial, 0)) == record((serial, 0),
                                                          serial)


# -- version-2 stores ---------------------------------------------------------------


class TestVersion2Migration:
    def test_hash_layout_converts_at_open(self, db_path):
        """A version-2 file — a hash directory, a version-3 tree and a
        hash index — opens with the same objects and index entries in an
        object table and B+trees, and the old pages on the free list."""
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "n")
        store.create_index(txn, "c", "h")
        for serial in range(1, 301):
            for version in (0, 1):
                store.put(txn, "c", (serial, version),
                          record((serial, version), serial))
            store.index_insert(txn, "c", "n", serial, serial)
            store.index_insert(txn, "c", "h", serial % 7, serial)
        for serial in range(1, 301, 7):
            assert store.delete(txn, "c", (serial, 1))
        store.commit(txn)
        before = directory_items(store)
        model = {key: store.get("c", key) for key in before}
        entries = {f: list(store.index("c", f).items()) for f in ("n", "h")}
        old = to_version_2(store, hash_indexes={("c", "h")})
        store.close()
        stamp_version(db_path, 2)

        store = Store(db_path)
        assert header_version(db_path) == 6
        assert all(page_type(db_path, p) == PageType.FREE for p in old)
        root = store.cluster_info("c").directory_page
        with store._pool.page(root) as page:
            assert page.page_type == PageType.TABLE_NODE
        assert directory_items(store) == before
        assert {key: store.get("c", key) for key in model} == model
        for field, items in entries.items():
            assert store.cluster_info("c").indexes[field].kind == "btree"
            assert list(store.index("c", field).items()) == items
        assert store.verify_integrity() == []
        # Reads and writes work on what the conversion built.
        txn = store.begin()
        for serial in range(1, 301, 5):
            assert store.delete(txn, "c", (serial, 0))
            del model[(serial, 0)]
            if (serial, 1) not in model:          # the serial is gone
                store.index_delete(txn, "c", "n", serial, serial)
                store.index_delete(txn, "c", "h", serial % 7, serial)
        for serial in range(301, 341):
            store.put(txn, "c", (serial, 0), record((serial, 0), -1),
                      new=True)
            store.index_insert(txn, "c", "n", -1, serial)
            model[(serial, 0)] = record((serial, 0), -1)
        store.commit(txn)
        assert {k: store.get("c", k) for k in model} == model
        store.vacuum("c")
        assert store.verify_integrity() == []
        store.close()

        store = Store(db_path)                  # and it persists
        assert set(directory_items(store)) == set(model)
        assert {k: store.get("c", k) for k in model} == model
        store.close()

    def test_version_2_header_opens_and_is_restamped_current(self, db_path):
        current = pagefile_mod._FORMAT_VERSION
        Store(db_path).close()
        assert self.header_version(db_path) == current
        with open(db_path, "r+b") as handle:     # what a v2 binary left
            handle.seek(8)
            handle.write(struct.pack("<I", 2))
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.commit(txn)
        store.close()
        assert self.header_version(db_path) == current

    def test_unknown_versions_are_refused(self, db_path):
        Store(db_path).close()
        for version in (1, pagefile_mod._FORMAT_VERSION + 1):
            with open(db_path, "r+b") as handle:
                handle.seek(8)
                handle.write(struct.pack("<I", version))
            with pytest.raises(StorageError, match="format version"):
                Store(db_path)

    @staticmethod
    def header_version(path):
        with open(path, "rb") as handle:
            return struct.unpack_from("<I", handle.read(16), 8)[0]


def test_leaf_geometry():
    assert ENTRY_SIZE == 16
    assert LEAF_ENTRIES == (PAGE_SIZE - HEADER_SIZE) // 16 == 253
    assert 2 * LEAF_SERIALS <= LEAF_ENTRIES
    assert RID(3, 4) == (3, 4)      # the table stores RIDs as plain pairs

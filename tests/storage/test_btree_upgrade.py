"""Retired layouts convert at open: a version-3 store whose B+trees are
in the old node layout (one codec-encoded record per node) and a
format-4 store with ``kind="hash"`` indexes both open, convert once in
one transaction, and then behave identically.

The writers in :mod:`tests.storage.legacy_layouts` fabricate the old
files; nothing in ``src/`` can create them.
"""

import os
import subprocess
import sys

import pytest

from repro.storage.btree import _tiebreak
from repro.storage.codec import encode_key
from repro.storage.faults import DIE_EXIT_CODE
from repro.storage.page import NO_PAGE, PageType
from repro.storage.store import Store
from repro.storage.upgrade import BTREE_FORMAT_KEY, hash_entries

from tests.storage.legacy_layouts import (header_version, page_type,
                                          read_legacy_tree, stamp_version,
                                          write_hash, write_legacy_tree)

FANOUT = 24

ENTRIES = {
    "n": [(i, i * 3) for i in range(900)],
    "tag": [("tag-%d" % (i % 9), i) for i in range(400)] + [(7, 7), (7.0, 8)],
    "u": [("u%04d" % i, i) for i in range(300)],
    # the largest keys a version-3 node took (one entry to a leaf, one
    # separator to an internal node), plain and escaped
    "big": ([("k%02d" % i + "a" * 1985, i) for i in range(9)]
            + [("n%02d" % i + "\x00" * 1320, i) for i in range(9)]),
    # a hash index: many keys, and one key chained over several pages
    "h": [(i % 50, i) for i in range(500)] + [("hot", i) for i in range(600)],
}
#: Indexes the fixture writes in the extendible-hash layout.
HASHED = {"h"}


def sort_key(unique):
    return lambda e: (encode_key(e[0]), b"" if unique else _tiebreak(e[1]))


def expected_items(field):
    return sorted(ENTRIES[field], key=sort_key(field == "u"))


@pytest.fixture
def v3_store(db_path):
    """A checkpointed version-3 file with four legacy trees (wide
    ints, heavy duplicates of mixed types, a unique index, node-sized
    keys) and a hash index; yields ``(path, old pages)``."""
    store = Store(db_path)
    txn = store.begin()
    store.create_cluster(txn, "c")
    old = []
    for field, entries in ENTRIES.items():
        info = store.create_index(txn, "c", field, unique=field == "u")
        store._journal.free_page_deferred(txn, info.root_page)
        if field in HASHED:
            info.kind = "hash"
            info.root_page, pages = write_hash(store._journal, txn, entries)
        else:
            info.root_page, pages = write_legacy_tree(
                store._journal, txn, entries, unique=field == "u",
                fanout=1 if field == "big" else FANOUT)
        old.extend(pages)
        store._indexes.clear()
    store.catalog.save_cluster(txn, store.cluster_info("c"))
    store.commit(txn)
    store.close()
    stamp_version(db_path, 3)                 # what a version-3 binary left
    return db_path, old


def test_upgrade_preserves_items_and_frees_old_pages(v3_store):
    path, old = v3_store
    assert header_version(path) == 3
    store = Store(path)
    assert header_version(path) == 4
    assert store.catalog.get_meta(BTREE_FORMAT_KEY) == 4
    for field in ENTRIES:
        assert store.cluster_info("c").indexes[field].kind == "btree"
        tree = store.index("c", field)
        tree.check_invariants()
        assert list(tree.items()) == expected_items(field)
        assert tree.root_page not in old
    assert store.index("c", "u").unique
    assert len(store.index_search("c", "h", "hot")) == 600
    # and the upgraded trees behave: writes, reads, another reopen
    txn = store.begin()
    store.index_insert(txn, "c", "n", 10_000, -1)
    store.index_delete(txn, "c", "n", 0, 0)
    store.commit(txn)
    assert store.index_search("c", "n", 10_000) == [-1]
    store.index("c", "n").check_invariants()
    store.close()
    assert all(page_type(path, p) == PageType.FREE for p in old)
    store = Store(path)                        # no second upgrade
    assert store.index_search("c", "n", 0) == []
    assert len(store.index("c", "n")) == 900
    store.close()


# Opening runs (empty) recovery first, whose closing checkpoint is the
# first sync and the first truncate; the upgrade's own are the later hits.
@pytest.mark.parametrize("spec", [
    "wal.append.pre:die:%d" % hit for hit in (1, 40, 400, 2000)] + [
    "wal.flush.pre:die:2", "wal.flush.post:die:2",
    "pagefile.write.pre:die:1", "pagefile.write.pre:die:30",
    "pagefile.sync.pre:die:2", "pagefile.sync.post:die:2",
    "pagefile.sync.pre:die:4", "pagefile.sync.post:die:4",
    "wal.truncate.pre:die:2", "wal.truncate.post:die:2"])
def test_crash_during_upgrade_is_all_old_or_all_new(v3_store, monkeypatch,
                                                    spec):
    path, _old = v3_store
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               REPRO_FAULTS=spec)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.storage.store import Store; "
         "Store(sys.argv[1]).close()", path],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode in (0, DIE_EXIT_CODE), proc.stderr.decode()
    # Recover without upgrading, to see what the crash left.
    with monkeypatch.context() as patch:
        patch.setattr(Store, "_upgrade_format", lambda self: None)
        store = Store(path)
        done = store.catalog.get_meta(BTREE_FORMAT_KEY) == 4
        for field, ix in store.cluster_info("c").indexes.items():
            assert ix.kind == ("hash" if field in HASHED and not done
                               else "btree"), (field, done)
            if done:
                tree = store.index("c", field)
                tree.check_invariants()
                got = list(tree.items())
            elif field in HASHED:
                got = sorted(hash_entries(store._pool, ix.root_page)[1],
                             key=sort_key(False))
            else:
                got = read_legacy_tree(store._pool, ix.root_page)
            assert got == expected_items(field), (field, done)
        if not done:
            assert header_version(path) == 3
        store.close()
    store = Store(path)                        # finishes the job
    assert header_version(path) == 4
    for field in ENTRIES:
        tree = store.index("c", field)
        tree.check_invariants()
        assert list(tree.items()) == expected_items(field)
    store.close()


def test_hash_indexes_of_a_format_4_store_convert_at_open(db_path):
    """A format-4 file written before hash indexes became B+trees: a
    unique and a non-unique hash index (one key chained over several
    bucket pages) become B+trees at the first open; nothing else
    changes."""
    store = Store(db_path)
    txn = store.begin()
    store.create_cluster(txn, "c")
    for serial in range(1, 801):
        store.put(txn, "c", (serial, 0), {"n": serial})
    entries = {"u": [("u%04d" % s, s) for s in range(1, 801)],
               "d": [(s % 7, s) for s in range(1, 201)]
               + [("hot", s) for s in range(201, 801)]}
    old = []
    for field, rows in entries.items():
        info = store.create_index(txn, "c", field, unique=field == "u")
        store._journal.free_page_deferred(txn, info.root_page)
        info.kind = "hash"
        info.root_page, pages = write_hash(store._journal, txn, rows)
        old.extend(pages)
    store._indexes.clear()
    store.catalog.save_cluster(txn, store.cluster_info("c"))
    store.commit(txn)
    chains = 0
    for page_no in old:
        with store._pool.page(page_no) as page:
            chains += page.next_page != NO_PAGE
    assert chains >= 1                      # "hot" spans bucket pages
    objects = {key: store.get("c", key)
               for key, _rid in store._directory("c").items()}
    store.close()
    assert header_version(db_path) == 4

    store = Store(db_path)
    assert store.verify_integrity() == []
    assert {key: store.get("c", key)
            for key, _rid in store._directory("c").items()} == objects
    for field, rows in entries.items():
        ix = store.cluster_info("c").indexes[field]
        assert ix.kind == "btree" and ix.unique == (field == "u")
        assert list(store.index("c", field).items()) == sorted(
            rows, key=sort_key(field == "u"))
    assert sorted(store.index_search("c", "d", "hot")) == list(range(201, 801))
    assert [s for _k, s in store.index_range("c", "u", "u0100", "u0103")] \
        == [100, 101, 102]                  # a former hash index serves ranges
    store.close()
    assert header_version(db_path) == 4
    assert all(page_type(db_path, p) == PageType.FREE for p in old)

"""Format 3 → 4: a store whose B+trees are in the old node layout (one
codec-encoded record per node) opens, upgrades once, and then behaves
identically.

The legacy writer and reader below are the only code outside
``upgrade_legacy_tree`` that knows the old layout; they exist to
fabricate and audit version-3 files.
"""

import os
import struct
import subprocess
import sys

import pytest

from repro.storage.btree import _tiebreak
from repro.storage.codec import decode_value, encode_key, encode_value
from repro.storage.faults import DIE_EXIT_CODE
from repro.storage.page import PAGE_SIZE, NO_PAGE, PageType
from repro.storage.store import Store

FANOUT = 24


def write_legacy_tree(store, txn, entries, unique=False, fanout=FANOUT):
    """Build a version-3 tree — chained leaves of *fanout* entries under
    internal levels — over *entries*; returns its root and every page
    it occupies."""
    journal, pool = store._journal, store._pool
    rows = sorted(((encode_key(k), b"" if unique else _tiebreak(v), k, v)
                   for k, v in entries), key=lambda r: r[:2])
    chunks = [rows[i:i + fanout] for i in range(0, len(rows), fanout)]
    # a level: (first row below the node, its state) per node
    level = [(chunk[0], [True] + [[r[i] for r in chunk] for i in (0, 2, 3, 1)])
             for chunk in chunks]
    pages, fanout = [], max(fanout, 2)
    while True:
        leaf = level[0][1][0]
        nos = [pool.new_page(PageType.BTREE_LEAF if leaf
                             else PageType.BTREE_INTERNAL) for _ in level]
        for (_first, state), page_no, nxt in zip(level, nos, nos[1:] + [NO_PAGE]):
            with journal.edit(txn, page_no) as page:
                page.insert(encode_value(state))
                page.next_page = nxt if leaf else NO_PAGE
        pages += nos
        if len(nos) == 1:
            return nos[0], pages
        firsts = [first for first, _state in level]
        level = [(firsts[i], [False] + [[s[c] for s in firsts[i + 1:i + fanout]]
                                        for c in (0, 2)]
                  + [nos[i:i + fanout], [s[1] for s in firsts[i + 1:i + fanout]]])
                 for i in range(0, len(nos), fanout)]


def read_legacy_tree(store, root):
    """``items()`` of a version-3 tree."""
    page_no = root
    while True:
        with store._pool.page(page_no) as page:
            state = decode_value(page.read(0))
        if state[0]:
            break
        page_no = state[3][0]
    out = []
    while page_no != NO_PAGE:
        with store._pool.page(page_no) as page:
            state, page_no = decode_value(page.read(0)), page.next_page
        out.extend(zip(state[2], state[3]))
    return out


def header_version(path):
    with open(path, "rb") as handle:
        return struct.unpack_from("<I", handle.read(16), 8)[0]


def page_types(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    return [raw[i + 4] for i in range(0, len(raw), PAGE_SIZE)]


ENTRIES = {
    "n": [(i, i * 3) for i in range(900)],
    "tag": [("tag-%d" % (i % 9), i) for i in range(400)] + [(7, 7), (7.0, 8)],
    "u": [("u%04d" % i, i) for i in range(300)],
    # the largest keys a version-3 node took (one entry to a leaf, one
    # separator to an internal node), plain and escaped
    "big": ([("k%02d" % i + "a" * 1985, i) for i in range(9)]
            + [("n%02d" % i + "\x00" * 1320, i) for i in range(9)]),
}


@pytest.fixture
def v3_store(db_path):
    """A checkpointed version-3 file with four legacy trees (wide
    ints, heavy duplicates of mixed types, a unique index, node-sized
    keys); yields ``(path, legacy pages)``."""
    store = Store(db_path)
    txn = store.begin()
    store.create_cluster(txn, "c")
    legacy = []
    for field, entries in ENTRIES.items():
        info = store.create_index(txn, "c", field, kind="btree",
                                  unique=field == "u")
        store._journal.free_page_deferred(txn, info.root_page)
        info.root_page, pages = write_legacy_tree(
            store, txn, entries, unique=field == "u",
            fanout=1 if field == "big" else FANOUT)
        legacy.extend(pages)
        store._indexes.clear()
    store.catalog.save_cluster(txn, store.cluster_info("c"))
    store.commit(txn)
    store.close()
    with open(db_path, "r+b") as handle:      # what a version-3 binary left
        handle.seek(8)
        handle.write(struct.pack("<I", 3))
    return db_path, legacy


def expected_items(field):
    unique = field == "u"
    return sorted(ENTRIES[field], key=lambda e: (
        encode_key(e[0]), b"" if unique else _tiebreak(e[1])))


def test_upgrade_preserves_items_and_frees_old_pages(v3_store):
    path, legacy = v3_store
    assert header_version(path) == 3
    store = Store(path)
    assert header_version(path) == 4
    assert store.catalog.get_meta(Store._BTREE_FORMAT_KEY) == 4
    for field in ENTRIES:
        tree = store.index("c", field)
        tree.check_invariants()
        assert list(tree.items()) == expected_items(field)
        assert tree.root_page not in legacy
    assert store.index("c", "u").unique
    # and the upgraded trees behave: writes, reads, another reopen
    txn = store.begin()
    store.index_insert(txn, "c", "n", 10_000, -1)
    store.index_delete(txn, "c", "n", 0, 0)
    store.commit(txn)
    assert store.index_search("c", "n", 10_000) == [-1]
    store.index("c", "n").check_invariants()
    store.close()
    types = page_types(path)
    assert all(types[p] == PageType.FREE for p in legacy)
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
    path, _legacy = v3_store
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
        done = store.catalog.get_meta(Store._BTREE_FORMAT_KEY) == 4
        for field, ix in store.cluster_info("c").indexes.items():
            if done:
                tree = store.index("c", field)
                tree.check_invariants()
                got = list(tree.items())
            else:
                got = read_legacy_tree(store, ix.root_page)
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

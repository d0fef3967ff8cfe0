"""Abort isolation: an abort undoes its own operations and nothing else.

Undo is logical (``repro.storage.journal``): a heap insert is undone by
tombstoning its RID, a heap delete by putting the record back at its
RID, a B+tree entry insert or delete by removing or re-inserting the
pair wherever it is now. So an aborting session next to another
session's committed records — on the same heap page, sharing its header
words and slot directory, or on the same B+tree leaf, whose slots shift
under every insert — leaves those records where they are. What an
uncommitted delete removed (a heap slot and its bytes, a unique key)
stays reserved until its transaction ends, so the undo can put it back.
Object-table
entries are undone the same way — re-inserted or marked dead wherever
the key's leaf is now — which is what lets a delete detach a leaf it
emptied in place; the last tests prove it.
"""

import threading

import pytest

from repro.core import Database, IntField, OdeObject
from repro.errors import DuplicateKeyError
from repro.storage.btree import BTree
from repro.storage.heap import HeapFile
from repro.storage.objtable import LEAF_ENTRIES, LEAF_SERIALS, ObjectTable
from repro.storage.page import NO_PAGE, PageType

pytestmark = pytest.mark.concurrency


class IsoItem(OdeObject):
    n = IntField(default=0)


def _a_aborts_beside_b(db, a_work, b_work):
    """Session A runs *a_work* and waits; session B runs *b_work* and
    commits; then A aborts. Returns the errors either session raised."""
    a_done = threading.Event()
    b_committed = threading.Event()
    errors = []

    def session_a():
        try:
            with db.transaction():
                a_work()
                a_done.set()
                assert b_committed.wait(30)
                raise KeyboardInterrupt  # any exception aborts A
        except KeyboardInterrupt:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            a_done.set()

    def session_b():
        try:
            assert a_done.wait(30)
            with db.transaction():
                b_work()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            b_committed.set()

    threads = [threading.Thread(target=session_a),
               threading.Thread(target=session_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    return errors


def test_abort_beside_committed_inserts(db_path):
    """A pnews 3 and waits; B pnews 3 into the same cluster and commits;
    A aborts. B's objects must survive."""
    db = Database(db_path)
    db.create(IsoItem)
    with db.transaction():
        for i in range(5):
            db.pnew(IsoItem, n=i)
    errors = _a_aborts_beside_b(
        db, lambda: [db.pnew(IsoItem, n=i) for i in range(100, 103)],
        lambda: [db.pnew(IsoItem, n=i) for i in range(200, 203)])
    try:
        assert errors == []
        assert db.verify() == []
        assert sorted(o.n for o in db.cluster(IsoItem)) == \
            [0, 1, 2, 3, 4, 200, 201, 202]
    finally:
        db.close()


def test_abort_beside_committed_index_entries(db_path):
    """The B+tree twin: A inserts keys into one leaf and waits; B inserts
    keys between them and commits; A aborts. B's pairs — which shifted
    A's slots, and A's undo must find A's pairs past them — come back
    from ``index_search``, A's are gone."""
    db = Database(db_path)
    db.create(IsoItem)
    db.create_index(IsoItem, "n")
    with db.transaction():
        for i in range(0, 40, 10):
            db.pnew(IsoItem, n=i)
    errors = _a_aborts_beside_b(
        db, lambda: [db.pnew(IsoItem, n=i) for i in range(1, 40, 4)],
        lambda: [db.pnew(IsoItem, n=i) for i in range(3, 40, 4)])
    try:
        assert errors == []
        assert db.verify() == []
        store = db.store
        kept = list(range(0, 40, 10)) + list(range(3, 40, 4))
        for key in kept:
            assert len(store.index_search("IsoItem", "n", key)) == 1, key
        for key in range(1, 40, 4):
            assert store.index_search("IsoItem", "n", key) == [], key
        assert sorted(o.n for o in db.cluster(IsoItem)) == sorted(kept)
        store.index("IsoItem", "n").check_invariants()
    finally:
        db.close()


def test_heap_delete_keeps_its_slot_and_bytes_until_abort(stack):
    """The heap-delete twin: A deletes a record; B inserts into the same
    page and gets neither A's slot nor its bytes; A aborts and the record
    is back at its RID, B's beside it."""
    _pool, _wal, journal = stack
    setup = journal.begin()
    heap = HeapFile.create(journal, setup)
    big = b"x" * 1800
    rids = [heap.insert(setup, big), heap.insert(setup, big)]
    assert {rid.page_no for rid in rids} == {heap.first_page}
    journal.commit(setup)

    a, b = journal.begin(), journal.begin()
    heap.delete(a, rids[0])
    small = heap.insert(b, b"beside")
    assert small.page_no == rids[0].page_no    # same page, other slot
    assert small != rids[0]
    moved = heap.insert(b, b"y" * 1800)        # A's bytes are not free
    assert moved.page_no != rids[0].page_no
    journal.abort(a)
    journal.commit(b)
    assert heap.read(rids[0]) == big
    assert heap.read(rids[1]) == big
    assert heap.read(small) == b"beside"
    assert heap.read(moved) == b"y" * 1800
    assert heap.count() == 4


def test_unique_key_deleted_by_an_open_transaction_stays_taken(stack):
    """The unique-index twin: A deletes key 5 and stays open; B's insert
    of 5 is refused (A's undo would put 5 back beside it); A aborts and 5
    is there once. After A commits a delete, 5 is free again."""
    _pool, _wal, journal = stack
    setup = journal.begin()
    tree = BTree.create(journal, setup, unique=True)
    for key in range(10):
        tree.insert(setup, key, "v%d" % key)
    journal.commit(setup)

    a, b = journal.begin(), journal.begin()
    assert tree.delete(a, 5) == 1
    with pytest.raises(DuplicateKeyError):
        tree.insert(b, 5, "b")
    tree.insert(b, 50, "b")                    # other keys are free
    tree.insert(a, 5, "a")                     # A's own key is A's
    assert tree.delete(a, 5) == 1
    journal.commit(b)
    journal.abort(a)
    assert tree.search(5) == ["v5"]
    assert tree.search(50) == ["b"]
    tree.check_invariants()

    a, b = journal.begin(), journal.begin()
    tree.delete(a, 5)
    journal.commit(a)
    tree.insert(b, 5, "b")
    journal.commit(b)
    assert tree.search(5) == ["b"]
    tree.check_invariants()


def test_table_abort_keeps_other_transactions_entries(stack):
    """Two journal transactions interleave inserts and deletes on one
    leaf (and on the chain page one of them has to add); one aborts; the
    other's entries — and only those — survive, committed or not yet."""
    _pool, _wal, journal = stack
    setup = journal.begin()
    table = ObjectTable.create(journal, setup)
    for serial in range(1, 21):
        table.insert(setup, (serial, 0), (7, serial))
    journal.commit(setup)

    a, b = journal.begin(), journal.begin()
    expected = {(serial, 0): (7, serial) for serial in range(1, 21)}
    # Interleaved inserts into the same leaf; A's overflow the leaf, so
    # the chain page both then write to is allocated under A.
    for i in range(LEAF_ENTRIES):
        table.insert(a, (30, 1 + i), (8, i))
        if i % 2 == 0:
            table.insert(b, (40, 1 + i), (9, i))
            expected[(40, 1 + i)] = (9, i)
    # Interleaved deletes of committed entries.
    for serial in range(1, 11):
        table.delete(a if serial % 2 else b, (serial, 0))
        if not serial % 2:
            del expected[(serial, 0)]
    # B re-inserts a key it deleted, next to A's uncommitted entries.
    table.insert(b, (2, 0), (10, 2))
    expected[(2, 0)] = (10, 2)

    journal.abort(a)
    assert dict(table.items()) == expected
    table.check_invariants()
    journal.commit(b)
    assert dict(table.items()) == expected
    for key, rid in expected.items():
        assert table.search(key) == rid
    assert table.search((30, 1)) is None
    assert table.search((1, 0)) == (7, 1)      # A's delete rolled back
    table.check_invariants()


@pytest.mark.parametrize("b_commits_first", [True, False])
def test_table_abort_beside_a_leaf_re_created_after_its_detach(
        stack, b_commits_first):
    """A deletes the last live entries of a leaf, which detaches it; B
    inserts a fresh serial in that range, which grows a new leaf; A
    aborts. A's entries come back in B's leaf beside B's entry — the
    undo finds the leaf by a fresh descent — and no table instance
    resolves the range to the page A's detach cut out."""
    pool, _wal, journal = stack
    setup = journal.begin()
    table = ObjectTable.create(journal, setup)
    table.insert(setup, (1, 0), (7, 1))             # leaf 0 stays
    mine = {(serial, version): (7, serial + version)
            for serial in range(LEAF_SERIALS, LEAF_SERIALS + 4)
            for version in (0, 1)}
    for key, rid in mine.items():
        table.insert(setup, key, rid)
    journal.commit(setup)
    # A second instance over the same root, its memo warm for the leaf.
    other = ObjectTable(journal, table.root_page)
    assert other.search((LEAF_SERIALS, 0)) == (7, LEAF_SERIALS)
    old_leaf = other._leaf(LEAF_SERIALS)

    a, b = journal.begin(), journal.begin()
    for key in mine:
        assert table.delete(a, key) == mine[key]
    assert table._leaf(LEAF_SERIALS) == NO_PAGE     # detached
    fresh = (LEAF_SERIALS + 50, 0)
    other.insert(b, fresh, (9, 9))
    assert other._leaf(LEAF_SERIALS) not in (NO_PAGE, old_leaf)
    if b_commits_first:
        journal.commit(b)
    journal.abort(a)
    if not b_commits_first:
        journal.commit(b)

    expected = {**mine, (1, 0): (7, 1), fresh: (9, 9)}
    for instance in (table, other, ObjectTable(journal, table.root_page)):
        assert dict(instance.items()) == expected
        for key, rid in expected.items():
            assert instance.search(key) == rid
        instance.check_invariants()
    assert table.stats() == {"leaf_pages": 2, "live_entries": 10,
                             "dead_entries": 0}
    with pool.page(old_leaf) as page:   # freed when A ended
        assert page.page_type == PageType.FREE

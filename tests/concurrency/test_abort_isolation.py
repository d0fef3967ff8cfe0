"""Abort isolation: what one transaction's physical undo may touch.

The journal undoes an aborting transaction by re-applying the
before-images of the byte ranges it changed. That is only sound when no
*other* transaction has changed bytes inside those ranges since — record
locks do not guarantee it, because two records (or two directory
entries) of different objects can share a page header word.

The object table is built so the ranges never overlap (one never-used
entry position per insert, one flag byte per delete, structure growth
logged redo-only); heap slotted pages are not — ``slot_count`` and the
free-space words in the page header are shared by every record on the
page. The first test pins the heap bug (recorded, not fixed: DESIGN.md
fault model); the second proves the table's invariant.
"""

import threading

import pytest

from repro.core import Database, IntField, OdeObject
from repro.storage.objtable import LEAF_ENTRIES, ObjectTable

pytestmark = pytest.mark.concurrency


class IsoItem(OdeObject):
    n = IntField(default=0)


@pytest.mark.xfail(strict=True, reason=(
    "heap slot headers are undone physically: A's abort restores the "
    "page's slot_count/free-space words to their pre-A values and B's "
    "committed records fall off the page (DESIGN.md fault model)"))
def test_abort_beside_committed_inserts(db_path):
    """A pnews 3 and waits; B pnews 3 into the same cluster and commits;
    A aborts. B's objects must survive."""
    db = Database(db_path)
    db.create(IsoItem)
    with db.transaction():
        for i in range(5):
            db.pnew(IsoItem, n=i)
    a_inserted = threading.Event()
    b_committed = threading.Event()
    errors = []

    def session_a():
        try:
            with db.transaction():
                for i in range(100, 103):
                    db.pnew(IsoItem, n=i)
                a_inserted.set()
                assert b_committed.wait(30)
                raise KeyboardInterrupt  # any exception aborts A
        except KeyboardInterrupt:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def session_b():
        try:
            assert a_inserted.wait(30)
            with db.transaction():
                for i in range(200, 203):
                    db.pnew(IsoItem, n=i)
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
    try:
        assert errors == []
        assert db.verify() == []
        assert sorted(o.n for o in db.cluster(IsoItem)) == \
            [0, 1, 2, 3, 4, 200, 201, 202]
    finally:
        db.close()


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

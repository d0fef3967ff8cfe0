"""Index plans under MVCC churn: the dirty set and what reports it.

The behaviour under concurrent sessions is covered by the differential
rounds (``test_codegen_differential.py``) and the state machine
(``test_index_overlay_model.py``); this file pins the pieces: the
manager's dirty set, a transaction's own writes, and the counter /
``explain`` line that say the overlay ran.
"""

import threading

import pytest

from repro.__main__ import main
from repro.core import Database, IntField, OdeObject
from repro.core.mvcc import MVCCManager
from repro.query import A, forall


class OverlayRow(OdeObject):
    k = IntField(default=0)
    r = IntField(default=0)


@pytest.fixture
def rows(db):
    db.create(OverlayRow)
    db.create_index(OverlayRow, "k", kind="hash")
    db.create_index(OverlayRow, "r", kind="btree")
    with db.transaction():
        for i in range(2000):
            db.pnew(OverlayRow, k=i % 100, r=i)
    return db


def _peeked(db):
    return db.stats()["scan"]["records_peeked"]


class TestDirtySet:
    def test_pending_and_newer_commits_without_walking_histories(self):
        mvcc = MVCCManager()
        image = lambda: ({"current": 1}, {1: {}})  # noqa: E731
        for serial in range(1, 500):              # old, retained histories
            mvcc.register(1, "c", serial, image)
        mvcc.commit(1, 10)
        snapshot = mvcc.begin_snapshot(2)
        assert not mvcc.cluster_dirty("c", snapshot, 2)
        assert mvcc.dirty_serials("c", snapshot, 2) == set()

        mvcc.register(2, "c", 7, image)           # the reader's own write
        assert not mvcc.cluster_dirty("c", snapshot, 2)
        assert mvcc.cluster_dirty("c", None, -1)  # foreign to anyone else
        assert mvcc.dirty_serials("c", None, -1) == {7}

        mvcc.register(3, "c", 8, image)           # a foreign pending write
        mvcc.register(3, "other", 9, image)
        assert mvcc.cluster_dirty("c", snapshot, 2)
        assert mvcc.dirty_serials("c", snapshot, 2) == {8}

        mvcc.commit(3, 20)                        # ... now newer than 2's
        assert mvcc.cluster_dirty("c", snapshot, 2)
        assert mvcc.dirty_serials("c", snapshot, 2) == {8}
        assert not mvcc.cluster_dirty("c", None, 2)   # read-committed
        # A later snapshot covers the commit; txn 2 is still in flight.
        assert mvcc.dirty_serials("c", mvcc.begin_snapshot(4), 4) == {7}

        mvcc.abort(2)
        assert not mvcc.cluster_dirty("c", None, -1)
        assert mvcc.dirty_serials("c", None, -1) == set()

    def test_out_of_order_commit_stamps_stay_findable(self):
        mvcc = MVCCManager()
        image = lambda: None  # noqa: E731
        mvcc.register(1, "c", 1, image)
        mvcc.register(2, "c", 2, image)
        mvcc.commit(2, 30)            # group commit: stamped before txn 1
        mvcc.commit(1, 20)
        assert mvcc.dirty_serials("c", 10, 9) == {1, 2}
        assert mvcc.dirty_serials("c", 20, 9) == {2}
        assert mvcc.dirty_serials("c", 30, 9) == set()


class TestOwnWrites:
    def test_indexed_lookup_after_own_write_peeks_nothing(self, rows):
        """A transaction's own pending write used to make the cluster
        dirty for itself: every indexed query after the first write
        walked all 2 000 records."""
        db = rows
        with db.transaction():
            db.pnew(OverlayRow, k=7, r=5000)
            before = _peeked(db)
            q = forall(db.cluster(OverlayRow)).suchthat(A.k == 7)
            assert q.count() == 21
            assert q.codegen(False).count() == 21
            assert sorted(o.r for o in q)[-1] == 5000
            span = forall(db.cluster(OverlayRow)).suchthat(
                (A.r >= 1990) & (A.r < 6000)).by(A.r)
            assert [o.r for o in span] == list(range(1990, 2000)) + [5000]
            assert db.cluster(OverlayRow).count() == 2001
            assert _peeked(db) == before
        assert db.stats()["mvcc"]["index_overlay_rows"] == 0


class TestReporting:
    def test_counter_and_explain_say_the_overlay_ran(self, rows, db_path,
                                                     capsys):
        db = rows
        moved, release = threading.Event(), threading.Event()

        def writer():
            with db.transaction():
                row = forall(db.cluster(OverlayRow)).suchthat(
                    A.r == 107).first()
                row.k = 55
                assert forall(db.cluster(OverlayRow)).suchthat(
                    A.k == 55).count() == 21     # flushed: entry moved
                moved.set()
                assert release.wait(30)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert moved.wait(30)
            q = forall(db.cluster(OverlayRow)).suchthat(A.k == 7)
            before = _peeked(db)
            text = q.explain(analyze=True)
            assert "overlay: 1 dirty, 1 resolved" in text
            assert q.count() == 20
            assert _peeked(db) == before
            assert db.stats()["mvcc"]["index_overlay_rows"] == 2
            assert db.metrics.snapshot()["mvcc.index_overlay_rows"] == 2
        finally:
            release.set()
            thread.join(30)
        assert "overlay" not in q.explain(analyze=True)   # clean again
        db.close()
        assert main(["stats", db_path, "--format=prom"]) == 0
        prom = capsys.readouterr().out
        assert "ode_mvcc_index_overlay_rows_total" in prom
        with open(db_path + ".prom", "w") as out:
            out.write(prom)
        assert main(["promlint", db_path + ".prom"]) == 0

    def test_point_query_beside_a_pending_write_reads_matches_plus_dirty(
            self, db):
        """5 000 rows, 5 matches, one of them moved by another session's
        pending write. Compiled and interpreted, read-committed and in a
        snapshot transaction, ``count()`` + ``to_list()`` together peek,
        decode and visit at most 2 x (matches + 1) records and heap pages
        (0 today), and each query resolves the one dirty row."""
        rows, groups = 5000, 1000
        matches = rows // groups
        db.create(OverlayRow)
        db.create_index(OverlayRow, "k", kind="hash")
        with db.transaction():
            for i in range(rows):
                db.pnew(OverlayRow, k=i % groups)

        def point():
            return forall(db.cluster(OverlayRow)).suchthat(A.k == 7)

        def scan_work(stats):
            return (stats["scan"]["records_peeked"]
                    + stats["scan"]["records_decoded"]
                    + stats["page_cache"]["hits"]
                    + stats["page_cache"]["misses"])

        def read(q):
            before = db.stats()
            assert q.count() == matches and len(q.to_list()) == matches
            after = db.stats()
            return (scan_work(after) - scan_work(before),
                    after["mvcc"]["index_overlay_rows"]
                    - before["mvcc"]["index_overlay_rows"])

        moved, release = threading.Event(), threading.Event()

        def writer():
            with db.transaction():
                point().first().k = groups + 7    # one match leaves the key
                assert point().count() == matches - 1   # flushed
                moved.set()
                assert release.wait(30)

        thread = threading.Thread(target=writer)
        thread.start()
        got = {}
        try:
            assert moved.wait(30)
            for label, q in (("compiled", point()),
                             ("interpreted", point().codegen(False))):
                got["read-committed", label] = read(q)
                with db.transaction():
                    got["snapshot", label] = read(q)
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()
        for key, (work, dirty) in got.items():
            assert work <= 2 * (matches + 1) and dirty == 2, (key, work)

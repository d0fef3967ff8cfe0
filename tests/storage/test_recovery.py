"""Crash-recovery tests: committed data survives, uncommitted disappears."""

import os

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.journal import Journal
from repro.storage.objtable import LEAF_SERIALS, ObjectTable
from repro.storage.page import NO_PAGE
from repro.storage.pagefile import PageFile
from repro.storage.recovery import recover
from repro.storage.wal import WriteAheadLog


class Harness:
    """Reopenable storage stack with crash simulation."""

    def __init__(self, tmp_path):
        self.page_path = str(tmp_path / "pages")
        self.wal_path = str(tmp_path / "wal")
        self.open()

    def open(self, run_recovery=False):
        self.pagefile = PageFile(self.page_path)
        self.pool = BufferPool(self.pagefile, capacity=32)
        self.wal = WriteAheadLog(self.wal_path)
        report = None
        if run_recovery:
            report = recover(self.pool, self.wal)
        self.journal = Journal(self.pool, self.wal)
        return report

    def crash(self):
        """Close files without flushing the pool (lose volatile state)."""
        self.wal.close()
        self.pagefile.close()

    def crash_and_recover(self):
        self.crash()
        return self.open(run_recovery=True)

    def close(self):
        self.wal.close()
        self.pagefile.close()


@pytest.fixture
def h(tmp_path):
    harness = Harness(tmp_path)
    yield harness
    try:
        harness.close()
    except Exception:
        pass


class TestRecovery:
    def test_committed_survives_crash(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        rids = [heap.insert(txn, b"data-%d" % i) for i in range(50)]
        h.journal.commit(txn)

        report = h.crash_and_recover()
        assert report.winners
        heap2 = HeapFile(h.journal, first_page)
        for i, rid in enumerate(rids):
            assert heap2.read(rid) == b"data-%d" % i

    def test_uncommitted_rolled_back(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        keep = heap.insert(txn, b"keep")
        h.journal.commit(txn)

        txn2 = h.journal.begin()
        heap.insert(txn2, b"lose me")
        heap.update(txn2, keep, b"MUTATED")
        h.wal.flush()
        h.pool.flush_all()  # dirty pages hit disk — undo must still win

        report = h.crash_and_recover()
        assert txn2 in report.losers
        heap2 = HeapFile(h.journal, first_page)
        assert heap2.read(keep) == b"keep"
        assert heap2.count() == 1

    def test_unflushed_committed_redone(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        rid = heap.insert(txn, b"committed but only in WAL")
        h.journal.commit(txn)  # commit fsyncs the log, NOT the pages

        report = h.crash_and_recover()
        assert report.redone > 0
        heap2 = HeapFile(h.journal, first_page)
        assert heap2.read(rid) == b"committed but only in WAL"

    def test_mixed_winners_and_losers(self, h):
        t1 = h.journal.begin()
        heap = HeapFile.create(h.journal, t1)
        first_page = heap.first_page
        a = heap.insert(t1, b"A")
        h.journal.commit(t1)

        t2 = h.journal.begin()
        t3 = h.journal.begin()
        b = heap.insert(t2, b"B")
        heap.insert(t3, b"C")
        h.journal.commit(t2)
        # t3 never commits
        report = h.crash_and_recover()
        assert report.losers == {t3}
        heap2 = HeapFile(h.journal, first_page)
        payloads = sorted(p for _, p in heap2.scan())
        assert payloads == [b"A", b"B"]

    def test_crash_mid_abort_finishes_undo(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        keep = heap.insert(txn, b"keep")
        h.journal.commit(txn)

        txn2 = h.journal.begin()
        for i in range(20):
            heap.insert(txn2, b"x%d" % i)
        # Simulate a partial abort: undo a few operations via CLRs, then
        # crash.
        lsn = h.journal.active[txn2]
        for _ in range(3):
            lsn = h.journal.undo_step(txn2, lsn)
        h.wal.flush()

        report = h.crash_and_recover()
        assert txn2 in report.losers
        heap2 = HeapFile(h.journal, first_page)
        assert heap2.count() == 1
        assert heap2.read(keep) == b"keep"

    def test_recovery_idempotent(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        rid = heap.insert(txn, b"once")
        h.journal.commit(txn)

        h.crash_and_recover()
        # Crash again immediately (log now truncated) and recover again.
        h.crash()
        h.open(run_recovery=True)
        heap2 = HeapFile(h.journal, first_page)
        assert heap2.read(rid) == b"once"
        assert heap2.count() == 1

    def test_empty_log_recovery(self, h):
        report = h.crash_and_recover()
        assert report.records_scanned == 0

    def test_torn_tail_treated_as_never_written(self, h):
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        heap.insert(txn, b"committed")
        h.journal.commit(txn)
        h.crash()
        # Garbage after the last valid record = a write torn by the crash.
        with open(h.wal_path, "ab") as fh:
            fh.write(b"\xff" * 37)
        report = h.open(run_recovery=True)
        heap2 = HeapFile(h.journal, first_page)
        assert heap2.count() == 1


class TestRecoveryProperty:
    def test_random_workload_crash_points(self, tmp_path):
        """Commit/crash at many points; committed state must always match
        an in-Python model."""
        import random
        rng = random.Random(1234)
        h = Harness(tmp_path)
        txn = h.journal.begin()
        heap = HeapFile.create(h.journal, txn)
        first_page = heap.first_page
        h.journal.commit(txn)
        committed_model = {}

        for round_no in range(12):
            txn = h.journal.begin()
            working = dict(committed_model)
            for _ in range(rng.randint(1, 15)):
                action = rng.choice(["insert", "update", "delete"])
                if action == "insert" or not working:
                    payload = bytes([rng.randint(65, 90)]) * rng.randint(1, 300)
                    rid = heap.insert(txn, payload)
                    working[rid] = payload
                elif action == "update":
                    rid = rng.choice(sorted(working))
                    payload = bytes([rng.randint(97, 122)]) * rng.randint(1, 2000)
                    heap.update(txn, rid, payload)
                    working[rid] = payload
                else:
                    rid = rng.choice(sorted(working))
                    heap.delete(txn, rid)
                    del working[rid]
            outcome = rng.choice(["commit", "crash", "abort"])
            if outcome == "commit":
                h.journal.commit(txn)
                committed_model = working
                if rng.random() < 0.3:
                    h.crash_and_recover()
                    heap = HeapFile(h.journal, first_page)
            elif outcome == "abort":
                h.journal.abort(txn)
            else:
                if rng.random() < 0.5:
                    h.pool.flush_all()
                h.crash_and_recover()
                heap = HeapFile(h.journal, first_page)
            assert dict(heap.scan()) == (
                committed_model if outcome != "commit" else committed_model)
        h.close()


class TestRecycledPages:
    def test_redo_does_not_resurrect_a_recycled_pages_old_life(self, h):
        """A page freed and reallocated inside one log generation: redo
        replays its old life first, so the new life's first edit must
        carry the whole image — including what the format zeroed. Found
        by the crash harness once its workload had an ordered index
        (EXP-25): a heap record's leading zero byte came back as a byte
        of the page's earlier tenant."""
        txn = h.journal.begin()
        old = HeapFile.create(h.journal, txn)
        for _ in range(6):
            old.insert(txn, b"\xff" * 500)
        h.journal.commit(txn)
        txn = h.journal.begin()
        h.journal.free_page_deferred(txn, old.first_page)
        h.journal.commit(txn)                      # freed at commit
        txn = h.journal.begin()
        new = HeapFile.create(h.journal, txn)
        assert new.first_page == old.first_page    # recycled
        payload = b"\x00" * 3000
        rid = new.insert(txn, payload)
        h.journal.commit(txn)
        h.crash_and_recover()
        heap = HeapFile(h.journal, new.first_page)
        assert heap.read(rid) == payload
        assert [raw for _rid, raw in heap.scan()] == [payload]

    def test_redo_does_not_overwrite_free_list_links(self, h):
        """The free list threads through the freed pages themselves. Redo
        must not replay a freed page's old life (here: a heap page whose
        chain pointer names a page that has since been reallocated) over
        its link — the allocator would hand out a page in use. Found by
        the B+tree model's crash rule (EXP-25)."""
        txn = h.journal.begin()
        old = HeapFile.create(h.journal, txn)
        first = second = old.first_page
        while second == first:                     # grow to a second page
            second = old.insert(txn, b"\xee" * 900).page_no
        h.journal.commit(txn)
        txn = h.journal.begin()
        h.journal.free_page_deferred(txn, first)
        h.journal.free_page_deferred(txn, second)
        h.journal.commit(txn)                      # free list: second, first
        txn = h.journal.begin()
        kept = HeapFile.create(h.journal, txn)
        assert kept.first_page == second
        rid = kept.insert(txn, b"kept")
        h.journal.commit(txn)
        h.crash_and_recover()
        txn = h.journal.begin()
        taken = [HeapFile.create(h.journal, txn).first_page
                 for _ in range(2)]
        assert taken[0] == first
        assert second not in taken
        assert HeapFile(h.journal, second).read(rid) == b"kept"


class _Killed(Exception):
    """Stands for the process dying at the point it is raised."""


class TestTableDetach:
    """A delete that empties an object-table leaf detaches it in a
    nested top action; a crash inside or after that action recovers to a
    table where every committed entry is found."""

    def setup_table(self, h):
        txn = h.journal.begin()
        table = ObjectTable.create(h.journal, txn)
        table.insert(txn, (1, 0), (7, 1))
        keys = [(LEAF_SERIALS + i, 0) for i in range(3)]
        for key in keys:
            table.insert(txn, key, (7, key[0]))
        h.journal.commit(txn)
        return table.root_page, keys

    def check(self, h, root_page, keys):
        table = ObjectTable(h.journal, root_page)
        for key in keys + [(1, 0)]:
            assert table.search(key) == (7, key[0])
        table.check_invariants()
        return table

    def test_kill_inside_the_detach_rolls_it_back(self, h, monkeypatch):
        """Killed after the mid pointer was cleared, before the action's
        closing record: recovery re-links the leaf, then undoes the
        deletes into it."""
        root_page, keys = self.setup_table(h)
        table = ObjectTable(h.journal, root_page)
        leaf = table._leaf(keys[0][0])
        log_clr = h.wal.log_clr

        def die_on_closing_record(txn, prev_lsn, page_no, ranges,
                                  undo_next):
            if page_no == NO_PAGE and not ranges:
                h.wal.flush()
                raise _Killed
            return log_clr(txn, prev_lsn, page_no, ranges, undo_next)

        txn = h.journal.begin()
        monkeypatch.setattr(h.wal, "log_clr", die_on_closing_record)
        for key in keys[:-1]:
            table.delete(txn, key)
        with pytest.raises(_Killed):
            table.delete(txn, keys[-1])
        assert table._leaf(keys[0][0]) == NO_PAGE   # the pointer is cleared
        report = h.crash_and_recover()
        assert txn in report.losers
        table = self.check(h, root_page, keys)
        assert table._leaf(keys[0][0]) == leaf
        assert table.stats()["leaf_pages"] == 2

    def test_kill_after_the_detach_re_grows_the_leaf(self, h):
        """Killed with the detach complete and its transaction open:
        recovery keeps the leaf unlinked and re-inserts the deleted
        entries through a fresh leaf."""
        root_page, keys = self.setup_table(h)
        table = ObjectTable(h.journal, root_page)
        txn = h.journal.begin()
        for key in keys:
            table.delete(txn, key)
        assert table._leaf(keys[0][0]) == NO_PAGE
        h.wal.flush()
        report = h.crash_and_recover()
        assert txn in report.losers
        table = self.check(h, root_page, keys)
        assert table.stats() == {"leaf_pages": 2, "live_entries": 4,
                                 "dead_entries": 0}

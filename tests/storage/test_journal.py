"""Unit tests for the journal (logged page edits, abort, checkpoint)."""

import pytest

from repro.errors import TransactionError
from repro.storage.journal import Journal
from repro.storage.page import PageType
from repro.storage.wal import LogRecordType


class TestTransactions:
    def test_begin_ids_unique(self, stack):
        _, _, journal = stack
        a = journal.begin()
        b = journal.begin()
        assert a != b
        journal.commit(a)
        journal.commit(b)

    def test_commit_unknown_txn(self, stack):
        _, _, journal = stack
        with pytest.raises(TransactionError):
            journal.commit(999)

    def test_edit_logs_and_stamps_lsn(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no) as page:
            page.insert(b"logged")
        with pool.page(page_no) as page:
            assert page.page_lsn > 0
        journal.commit(txn)
        types = [rec["type"] for _, rec in wal.records()]
        assert "update" in types and "commit" in types

    def test_noop_edit_logs_nothing(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no):
            pass  # a fresh page's first edit logs its (unlogged) format
        appends = wal.appends
        with journal.edit(txn, page_no):
            pass  # a true no-op edit logs nothing
        assert wal.appends == appends
        journal.commit(txn)

    def test_fresh_page_format_is_logged(self, stack):
        # The format applied by new_page happens outside any edit; the
        # first logged edit must diff against zeros so redo can rebuild
        # the page on a file that never saw it (crash-harness find).
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        assert page_no in pool.fresh_pages
        appends = wal.appends
        with journal.edit(txn, page_no):
            pass
        assert wal.appends > appends
        assert page_no not in pool.fresh_pages
        # The logged before-image is the zero page: undo restores zeros.
        records = [r for _, r in wal.records()
                   if r["type"] == LogRecordType.UPDATE
                   and r["page_no"] == page_no]
        assert records, "format edit produced no UPDATE records"
        assert all(set(r["before"]) == {0} for r in records)
        journal.commit(txn)

    def test_edit_exception_restores_page(self, stack):
        pool, _, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no) as page:
            page.insert(b"keep")
        with pytest.raises(RuntimeError):
            with journal.edit(txn, page_no) as page:
                page.insert(b"discard")
                raise RuntimeError("boom")
        with pool.page(page_no) as page:
            assert page.live_count() == 1
            assert page.read(0) == b"keep"
        journal.commit(txn)

    def test_abort_undoes_edits(self, stack):
        pool, _, journal = stack
        setup = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(setup, page_no) as page:
            slot = page.insert(b"original")
        journal.commit(setup)

        txn = journal.begin()
        with journal.edit(txn, page_no) as page:
            page.update(slot, b"mutated!")
        with journal.edit(txn, page_no) as page:
            page.insert(b"extra")
        journal.abort(txn)
        with pool.page(page_no) as page:
            assert page.read(slot) == b"original"
            assert page.live_count() == 1

    def test_abort_writes_clrs_and_end(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no) as page:
            page.insert(b"x")
        journal.abort(txn)
        types = [rec["type"] for _, rec in wal.records()]
        assert "clr" in types
        assert types[-1] == "end"
        assert types[-2] == "abort"

    def test_interleaved_transactions(self, stack):
        pool, _, journal = stack
        t1 = journal.begin()
        t2 = journal.begin()
        p1 = pool.new_page(PageType.HEAP)
        p2 = pool.new_page(PageType.HEAP)
        with journal.edit(t1, p1) as page:
            page.insert(b"one")
        with journal.edit(t2, p2) as page:
            page.insert(b"two")
        journal.abort(t1)
        journal.commit(t2)
        with pool.page(p1) as page:
            assert page.live_count() == 0
        with pool.page(p2) as page:
            assert page.read(0) == b"two"


class TestCheckpoint:
    def test_quiescent_checkpoint_truncates(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no) as page:
            page.insert(b"x")
        journal.commit(txn)
        journal.checkpoint()
        assert list(wal.records()) == []
        with pool.page(page_no) as page:
            assert page.read(0) == b"x"

    def test_active_txn_blocks_truncation(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        page_no = pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no) as page:
            page.insert(b"x")
        journal.checkpoint()
        types = [rec["type"] for _, rec in wal.records()]
        assert types
        assert "checkpoint" in types
        journal.commit(txn)


class TestOpRecords:
    """A slot operation appends exactly one record, and that record
    carries what the page primitive wrote — no before-image, no diff."""

    #: Everything in a heap insert's record besides the payload: the
    #: record frame (8) and header (17 + 10), three range descriptors
    #: (12), the header words (8) and the slot entry (4).
    FRAMING = 64

    def test_one_record_per_heap_operation(self, stack):
        from repro.storage.heap import HeapFile
        _pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        rids = [heap.insert(txn, b"seed%d" % i) for i in range(20)]
        for payload in (b"", b"x" * 100, b"y" * 1500):
            appends, start = wal.appends, wal.end_lsn
            rid = heap.insert(txn, payload)
            assert wal.appends - appends == 1
            # payload + the heap's 5-byte record header, padded to 15
            stored = max(len(payload) + 5, 15)
            assert wal.end_lsn - start <= stored + self.FRAMING
            (record,) = [r for _lsn, r in wal.records(start)]
            assert record["type"] == LogRecordType.OP
            assert "before" not in record
        for op in (lambda: heap.update(txn, rids[3], b"grown" * 30),
                   lambda: heap.update(txn, rids[4], b"s"),
                   lambda: heap.delete(txn, rids[5])):
            appends = wal.appends
            op()
            assert wal.appends - appends == 1
        journal.commit(txn)

    def test_one_record_per_entry_operation(self, stack):
        from repro.storage.btree import BTree
        _pool, wal, journal = stack
        txn = journal.begin()
        tree = BTree.create(journal, txn)
        for key in range(0, 100, 2):
            tree.insert(txn, key, key)
        for op in (lambda: tree.insert(txn, 51, 51),
                   lambda: tree.insert(txn, 200, 200),
                   lambda: tree.delete(txn, 10, 10),
                   lambda: tree.delete(txn, 0)):
            appends, start = wal.appends, wal.end_lsn
            op()
            assert wal.appends - appends == 1
            (record,) = [r for _lsn, r in wal.records(start)]
            assert record["type"] == LogRecordType.OP
        journal.commit(txn)

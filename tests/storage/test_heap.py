"""Unit tests for heap files: RID stability, forwarding, overflow."""

import pytest

from repro.storage.heap import (MAX_INLINE_PAYLOAD, MIN_RECORD_SIZE, RID,
                                HeapFile, overflow_head)
from repro.storage.page import NO_PAGE, PAGE_SIZE, SLOT_SIZE


@pytest.fixture
def heap_txn(stack):
    pool, wal, journal = stack
    txn = journal.begin()
    heap = HeapFile.create(journal, txn)
    return heap, journal, txn


class TestInsertRead:
    def test_round_trip(self, heap_txn):
        heap, journal, txn = heap_txn
        rid = heap.insert(txn, b"hello heap")
        assert heap.read(rid) == b"hello heap"

    def test_many_records_span_pages(self, heap_txn):
        heap, journal, txn = heap_txn
        rids = [heap.insert(txn, b"record %04d" % i * 10)
                for i in range(200)]
        pages = {rid.page_no for rid in rids}
        assert len(pages) > 1
        for i, rid in enumerate(rids):
            assert heap.read(rid) == b"record %04d" % i * 10

    def test_empty_payload(self, heap_txn):
        heap, journal, txn = heap_txn
        rid = heap.insert(txn, b"")
        assert heap.read(rid) == b""

    def test_count(self, heap_txn):
        heap, journal, txn = heap_txn
        for i in range(25):
            heap.insert(txn, b"x%d" % i)
        assert heap.count() == 25


class TestOverflow:
    def test_large_record(self, heap_txn):
        heap, journal, txn = heap_txn
        payload = b"L" * (PAGE_SIZE * 3 + 17)
        rid = heap.insert(txn, payload)
        assert heap.read(rid) == payload

    def test_boundary_payload(self, heap_txn):
        heap, journal, txn = heap_txn
        exact = heap.insert(txn, b"x" * MAX_INLINE_PAYLOAD)
        over = heap.insert(txn, b"y" * (MAX_INLINE_PAYLOAD + 1))
        assert len(heap.read(exact)) == MAX_INLINE_PAYLOAD
        assert len(heap.read(over)) == MAX_INLINE_PAYLOAD + 1

    def test_overflow_update_and_shrink(self, heap_txn):
        heap, journal, txn = heap_txn
        rid = heap.insert(txn, b"big" * 5000)
        heap.update(txn, rid, b"small now")
        assert heap.read(rid) == b"small now"

    def test_overflow_delete_frees_chain(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        pages_before = pool._pagefile.page_count
        rid = heap.insert(txn, b"B" * (PAGE_SIZE * 4))
        heap.delete(txn, rid)
        journal.commit(txn)
        # Freed overflow pages are recyclable.
        txn2 = journal.begin()
        rid2 = heap.insert(txn2, b"C" * (PAGE_SIZE * 4))
        journal.commit(txn2)
        assert pool._pagefile.page_count <= pages_before + 6


class TestUpdate:
    def test_in_place(self, heap_txn):
        heap, journal, txn = heap_txn
        rid = heap.insert(txn, b"aaaa")
        heap.update(txn, rid, b"bbbb")
        assert heap.read(rid) == b"bbbb"

    def test_grow_with_forwarding(self, heap_txn):
        heap, journal, txn = heap_txn
        # Fill a page with records so growth forces relocation.
        rids = [heap.insert(txn, b"r" * 300) for _ in range(12)]
        target = rids[0]
        heap.update(txn, target, b"G" * 3000)
        assert heap.read(target) == b"G" * 3000  # same RID still works
        for rid in rids[1:]:
            assert heap.read(rid) == b"r" * 300

    def test_forwarded_record_updates_again(self, heap_txn):
        heap, journal, txn = heap_txn
        rids = [heap.insert(txn, b"r" * 300) for _ in range(12)]
        target = rids[0]
        heap.update(txn, target, b"G" * 3000)   # relocates
        heap.update(txn, target, b"H" * 3500)   # relocates again
        heap.update(txn, target, b"i" * 10)     # shrinks back
        assert heap.read(target) == b"i" * 10

    def test_scan_reports_home_rid_for_forwarded(self, heap_txn):
        heap, journal, txn = heap_txn
        rids = [heap.insert(txn, b"r" * 300) for _ in range(12)]
        heap.update(txn, rids[0], b"G" * 3000)
        scanned = dict(heap.scan())
        assert scanned[rids[0]] == b"G" * 3000
        assert len(scanned) == 12


def _fill(heap, txn, page_no, leave):
    """Insert one filler record so *page_no* has *leave* bytes free."""
    with heap._pool.page(page_no) as page:
        size = page.total_free - leave - SLOT_SIZE
    assert MIN_RECORD_SIZE <= size <= MAX_INLINE_PAYLOAD
    rid = heap.insert(txn, b"f" * (size - 5))     # 5-byte record header
    assert rid.page_no == page_no
    with heap._pool.page(page_no) as page:
        assert page.total_free == leave


class TestFullHomePage:
    """An overflow stub is 17 bytes, two more than the smallest record:
    on a full home page it is relocated behind a forwarding stub."""

    BIG = b"O" * (MAX_INLINE_PAYLOAD + 100)

    def test_forwarded_record_grows_into_overflow(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        target = heap.insert(txn, b"t")
        _fill(heap, txn, target.page_no, 1)
        heap.update(txn, target, b"G" * 3000)        # forwarded
        heap.update(txn, target, self.BIG)           # stub cannot fit
        assert heap.read(target) == self.BIG
        assert dict(heap.scan())[target] == self.BIG
        # The relocated stub still owns the chain (vacuum and drop walk
        # raw records for the pages to free).
        heads = []
        page_no = heap.first_page
        while page_no != NO_PAGE:
            with pool.page(page_no) as page:
                heads += [overflow_head(raw) for _slot, raw in page.slots()]
                page_no = page.next_page
        assert len([h for h in heads if h != NO_PAGE]) == 1
        journal.commit(txn)
        txn = journal.begin()
        heap.update(txn, target, b"small again")
        assert heap.read(target) == b"small again"
        heap.delete(txn, target)
        journal.commit(txn)
        assert target not in dict(heap.scan())

    def test_smallest_record_grows_into_overflow_and_aborts(self, stack):
        pool, wal, journal = stack
        setup = journal.begin()
        heap = HeapFile.create(journal, setup)
        target = heap.insert(setup, b"t")
        _fill(heap, setup, target.page_no, 1)
        journal.commit(setup)
        count = heap.count()

        txn = journal.begin()
        heap.update(txn, target, self.BIG)
        assert heap.read(target) == self.BIG
        assert heap.count() == count
        journal.abort(txn)
        assert heap.read(target) == b"t"
        assert heap.count() == count

    def test_another_transactions_reservation_is_not_taken(self, stack):
        pool, wal, journal = stack
        setup = journal.begin()
        heap = HeapFile.create(journal, setup)
        target = heap.insert(setup, b"t")
        victim = heap.insert(setup, b"v" * 100)
        _fill(heap, setup, target.page_no, 0)
        journal.commit(setup)

        a, b = journal.begin(), journal.begin()
        heap.delete(b, victim)             # reserves its slot and bytes
        heap.update(a, target, self.BIG)
        assert heap.read(target) == self.BIG
        journal.abort(b)
        assert heap.read(victim) == b"v" * 100
        journal.commit(a)
        assert heap.read(target) == self.BIG
        assert dict(heap.scan())[victim] == b"v" * 100


class TestDelete:
    def test_delete_removes(self, heap_txn):
        heap, journal, txn = heap_txn
        rid = heap.insert(txn, b"bye")
        heap.delete(txn, rid)
        assert heap.count() == 0

    def test_delete_forwarded(self, heap_txn):
        heap, journal, txn = heap_txn
        rids = [heap.insert(txn, b"r" * 300) for _ in range(12)]
        heap.update(txn, rids[0], b"G" * 3000)
        heap.delete(txn, rids[0])
        assert heap.count() == 11

    def test_space_reuse(self, heap_txn):
        heap, journal, txn = heap_txn
        rids = [heap.insert(txn, b"x" * 100) for _ in range(30)]
        for rid in rids:
            heap.delete(txn, rid)
        # Space from deletions is reused: new inserts should not grow far.
        before = heap._pool._pagefile.page_count
        for _ in range(30):
            heap.insert(txn, b"y" * 100)
        assert heap._pool._pagefile.page_count <= before + 1


class TestScan:
    def test_scan_order_and_content(self, heap_txn):
        heap, journal, txn = heap_txn
        expected = {}
        for i in range(60):
            payload = b"item-%03d" % i
            expected[heap.insert(txn, payload)] = payload
        assert dict(heap.scan()) == expected

    def test_scan_sees_inserts_behind_cursor(self, heap_txn):
        """The fixpoint property: records appended during a scan are
        visited by the same scan."""
        heap, journal, txn = heap_txn
        heap.insert(txn, b"seed")
        seen = []
        added = [False]
        for rid, payload in heap.scan():
            seen.append(payload)
            if not added[0]:
                heap.insert(txn, b"added-during-scan")
                added[0] = True
        assert b"added-during-scan" in seen

    def test_transactional_rollback(self, stack):
        pool, wal, journal = stack
        setup = journal.begin()
        heap = HeapFile.create(journal, setup)
        keep = heap.insert(setup, b"keep")
        journal.commit(setup)

        txn = journal.begin()
        heap.insert(txn, b"rollback me")
        heap.update(txn, keep, b"KEEP-MUTATED")
        journal.abort(txn)
        assert heap.read(keep) == b"keep"
        assert heap.count() == 1

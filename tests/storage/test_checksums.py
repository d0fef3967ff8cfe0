"""Page checksums end to end: stamping, admit-time verification,
quarantine, degraded mode, scrub and in-place repair."""

import struct

import pytest

from repro.core.database import Database
from repro.errors import CorruptPageError, DegradedModeError
from repro.storage.page import (CHECKSUM_OFFSET, PAGE_SIZE, PageType,
                                compute_checksum, stamp_checksum,
                                verify_checksum)
from repro.storage.store import Store
from repro import IntField, OdeObject, StringField


class Part(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)


def _corrupt_page(path, page_no):
    """Flip eight payload bytes of on-disk page *page_no*."""
    with open(path, "r+b") as f:
        f.seek(page_no * PAGE_SIZE + 100)
        raw = f.read(8)
        f.seek(page_no * PAGE_SIZE + 100)
        f.write(bytes(b ^ 0xFF for b in raw))


def _heap_chain(path, first_page):
    """Walk a heap chain's ``next_page`` pointers in the closed file."""
    with open(path, "rb") as f:
        raw = f.read()
    pages = []
    page_no = first_page
    while page_no:
        pages.append(page_no)
        page_no = struct.unpack_from("<Q", raw, page_no * PAGE_SIZE + 24)[0]
    return pages


class TestChecksumPrimitives:
    def test_stamp_then_verify(self):
        buf = bytearray(PAGE_SIZE)
        buf[200:205] = b"hello"
        stamp_checksum(buf)
        assert verify_checksum(buf)

    def test_zero_page_is_valid_by_convention(self):
        # Freshly extended file regions are zero-filled and unstamped.
        assert verify_checksum(bytes(PAGE_SIZE))

    def test_flipped_bit_detected(self):
        buf = bytearray(PAGE_SIZE)
        buf[300] = 7
        stamp_checksum(buf)
        buf[301] ^= 0x01
        assert not verify_checksum(buf)

    def test_checksum_field_excluded_from_itself(self):
        buf = bytearray(PAGE_SIZE)
        buf[64] = 9
        before = compute_checksum(buf)
        struct.pack_into("<I", buf, CHECKSUM_OFFSET, 0xDEADBEEF)
        assert compute_checksum(buf) == before

    def test_pages_reach_disk_stamped(self, tmp_path, db_path):
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"x": 1})
        store.commit(txn)
        store.close()
        with open(db_path, "rb") as f:
            raw = f.read()
        for page_no in range(1, len(raw) // PAGE_SIZE):
            page = raw[page_no * PAGE_SIZE:(page_no + 1) * PAGE_SIZE]
            assert verify_checksum(page), "page %d unstamped" % page_no


class TestQuarantineAndDegraded:
    N = 60

    def _store_with_data(self, db_path):
        """Create cluster ``c`` with enough data to span several heap
        pages; return the heap chain's page numbers."""
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        for i in range(self.N):
            store.put(txn, "c", (i, 0), {"n": i, "pad": "x" * 200})
        store.commit(txn)
        first = store.catalog.get_cluster("c").heap_page
        store.close()
        pages = _heap_chain(db_path, first)
        assert len(pages) >= 2
        return pages

    def test_corrupt_pin_quarantines_and_degrades(self, db_path):
        page_no = self._store_with_data(db_path)[0]
        _corrupt_page(db_path, page_no)
        store = Store(db_path)
        with pytest.raises(CorruptPageError):
            for i in range(self.N):
                store.get("c", (i, 0))
        assert page_no in store._pool.quarantined
        assert store._pool.checksum_failures == 1
        assert store.degraded is not None
        # re-pinning the quarantined page fails fast, no latch leaked
        with pytest.raises(CorruptPageError):
            with store._pool.page(page_no):
                pass
        events = store.events.snapshot(kind="page_corrupt")
        assert events and events[0]["data"]["page_no"] == page_no
        store.close()

    def test_degraded_mode_blocks_writes_allows_reads(self, db_path):
        pages = self._store_with_data(db_path)
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "d")
        store.put(txn, "d", (1, 0), {"ok": True})
        store.commit(txn)
        store.close()
        _corrupt_page(db_path, pages[1])
        store = Store(db_path)
        with pytest.raises(CorruptPageError):
            for i in range(self.N):
                store.get("c", (i, 0))
        assert store.degraded is not None
        txn = store.begin()
        with pytest.raises(DegradedModeError):
            store.put(txn, "d", (99, 0), {"n": 99})
        store.abort(txn)
        # clusters that never touch the bad page still serve reads
        assert store.get("d", (1, 0)) == {"ok": True}
        store.close()

    def test_corrupt_directory_root_opens_degraded(self, db_path):
        """Every open looks at each directory root for a retired layout;
        a root that fails its checksum must not stop the store opening
        (degraded) and being repaired."""
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        for i in range(self.N):               # the heap knows its keys
            store.put(txn, "c", (i, 0), {"__key": [i, 0], "n": i})
        store.commit(txn)
        root = store.cluster_info("c").directory_page
        store.close()
        _corrupt_page(db_path, root)
        store = Store(db_path)
        assert root in store._pool.quarantined
        assert store.degraded is not None
        report = store.repair_quarantined()
        assert report["clusters"]["c"]["objects"] == self.N
        assert store.degraded is None
        assert store.get("c", (7, 0))["n"] == 7
        assert store.verify_integrity() == []
        store.close()

    def test_metrics_expose_corruption(self, db_path):
        page_no = self._store_with_data(db_path)[0]
        _corrupt_page(db_path, page_no)
        store = Store(db_path)
        with pytest.raises(CorruptPageError):
            for i in range(self.N):
                store.get("c", (i, 0))
        assert store.metrics.get("storage.corrupt_pages") == 1
        assert store.metrics.get("storage.quarantined_pages") == 1
        assert store.metrics.get("storage.degraded") == 1
        store.close()


class TestScrub:
    def test_clean_store_scrubs_clean(self, db_path):
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"x": 1})
        store.commit(txn)
        store.checkpoint()
        report = store.scrub()
        assert report["bad_pages"] == []
        assert report["pages_checked"] > 0
        assert report["degraded"] is None
        store.close()

    def test_scrub_finds_quiet_corruption(self, db_path):
        store = Store(db_path)
        txn = store.begin()
        store.create_cluster(txn, "c")
        for i in range(50):
            store.put(txn, "c", (i, 0), {"n": i})
        store.commit(txn)
        page_no = store.catalog.get_cluster("c").heap_page
        store.close()
        _corrupt_page(db_path, page_no)
        store = Store(db_path)
        # Nothing read the bad page yet — scrub must still find it.
        report = store.scrub()
        assert report["bad_pages"] == [page_no]
        assert store.degraded is not None
        assert store.events.snapshot(kind="scrub")
        store.close()


class TestRepair:
    def test_repair_restores_writability(self, db_path):
        db = Database(db_path)
        db.create(Part)
        with db.transaction():
            for i in range(60):
                db.pnew(Part, name="p%d-" % i + "x" * 120, qty=i)
        first = db.store.catalog.get_cluster("Part").heap_page
        db.close()
        pages = _heap_chain(db_path, first)
        assert len(pages) >= 2
        _corrupt_page(db_path, pages[1])

        db = Database(db_path)
        report = db.scrub()
        assert report["bad_pages"]
        assert db.degraded is not None
        repair = db.repair()
        assert db.degraded is None
        assert "Part" in repair["clusters"]
        # Survivors are intact, indexes answer, and writes work again.
        survivors = {p.name for p in db.cluster(Part)}
        assert survivors  # most objects live on other pages
        with db.transaction():
            db.pnew(Part, name="post-repair", qty=1)
        assert db.verify() == []
        db.close()

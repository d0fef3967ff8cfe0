"""Unit tests for the buffer pool."""

import pytest

from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.page import PAGE_SIZE, PageType
from repro.storage.pagefile import PageFile


@pytest.fixture
def pf(tmp_path):
    f = PageFile(str(tmp_path / "pages"))
    yield f
    f.close()


@pytest.fixture
def pool(pf):
    return BufferPool(pf, capacity=4)


class TestBasics:
    def test_new_page_formatted(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        with pool.page(page_no) as page:
            assert page.page_no == page_no
            assert page.page_type == PageType.HEAP
            assert page.slot_count == 0

    def test_write_visible_through_pool(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        with pool.page(page_no, write=True) as page:
            slot = page.insert(b"cached")
        with pool.page(page_no) as page:
            assert page.read(slot) == b"cached"

    def test_capacity_validation(self, pf):
        with pytest.raises(BufferPoolError):
            BufferPool(pf, capacity=0)

    def test_unpin_without_pin_fails(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        with pytest.raises(BufferPoolError):
            pool.unpin(page_no)


class TestEviction:
    def test_dirty_page_written_back_on_eviction(self, pool, pf):
        first = pool.new_page(PageType.HEAP)
        with pool.page(first, write=True) as page:
            slot = page.insert(b"must survive")
        # Flood the pool to force eviction of `first`.
        for _ in range(6):
            pool.new_page(PageType.HEAP)
        assert pool.evictions > 0
        buf = bytearray(PAGE_SIZE)
        pf.read_page(first, buf)
        from repro.storage.page import SlottedPage
        assert SlottedPage(buf).read(slot) == b"must survive"

    def test_pinned_pages_not_evicted(self, pool):
        first = pool.new_page(PageType.HEAP)
        view = pool.pin(first)
        view.insert(b"pinned data")
        for _ in range(5):
            pool.new_page(PageType.HEAP)
        # still readable through the same buffer
        assert view.read(0) == b"pinned data"
        pool.unpin(first, dirty=True)

    def test_all_pinned_exhausts_pool(self, pool):
        pages = [pool.new_page(PageType.HEAP) for _ in range(4)]
        for p in pages:
            pool.pin(p)
        with pytest.raises(BufferPoolError):
            pool.new_page(PageType.HEAP)
        for p in pages:
            pool.unpin(p)

    def test_lru_order(self, pool):
        pages = [pool.new_page(PageType.HEAP) for _ in range(4)]
        pool.flush_all()
        # touch page[0] so page[1] becomes LRU
        with pool.page(pages[0]):
            pass
        extra = pool.new_page(PageType.HEAP)  # evicts pages[1]
        stats = pool.stats()
        assert stats["cached"] == 4
        with pool.page(pages[1]):  # must fault back in
            pass
        assert pool.misses >= 1


class TestFlush:
    def test_flush_all_cleans(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        with pool.page(page_no, write=True) as page:
            page.insert(b"x")
        assert pool.dirty_page_numbers()
        pool.flush_all()
        assert not pool.dirty_page_numbers()

    def test_invalidate_loses_unflushed(self, pool, pf):
        page_no = pool.new_page(PageType.HEAP)
        pool.flush_all()
        with pool.page(page_no, write=True) as page:
            page.insert(b"volatile")
        pool.invalidate_all()
        with pool.page(page_no) as page:
            assert page.slot_count == 0  # change was never written

    def test_invalidate_refuses_pinned(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        pool.pin(page_no)
        with pytest.raises(BufferPoolError):
            pool.invalidate_all()
        pool.unpin(page_no)

    def test_stats_counters(self, pool):
        page_no = pool.new_page(PageType.HEAP)
        with pool.page(page_no):
            pass
        stats = pool.stats()
        assert stats["hits"] >= 1
        assert stats["capacity"] == 4

    def test_object_table_pages_are_accounted_apart(self, pool):
        """hits/misses are data pages; a resident directory must not
        mask how cold the data is."""
        heap = pool.new_page(PageType.HEAP)
        tables = [pool.new_page(PageType.TABLE_NODE),
                  pool.new_page(PageType.TABLE_LEAF)]
        pool.flush_all()
        pool.invalidate_all()
        for _ in range(2):
            for page_no in [heap] + tables:
                with pool.page(page_no):
                    pass
        stats = pool.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert (stats["directory_hits"], stats["directory_misses"]) == (2, 2)
        assert stats["hit_ratio"] == 0.5

    def test_free_page_returns_to_file(self, pool, pf):
        page_no = pool.new_page(PageType.HEAP)
        pool.flush_all()
        pool.free_page(page_no, 0)
        assert pf.allocate_page() == page_no


class TestReadahead:
    def test_prefetch_loads_span_in_one_call(self, pf):
        pool = BufferPool(pf, capacity=8)
        pages = [pool.new_page(PageType.HEAP) for _ in range(5)]
        pool.flush_all()
        pool.invalidate_all()
        assert pool.prefetch(pages[0], 5) == 5
        stats = pool.stats()
        assert stats["prefetches"] == 1
        assert stats["readahead_pages"] == 5
        misses_before = pool.misses
        for p in pages:
            with pool.page(p, cold=True):
                pass
        assert pool.misses == misses_before  # the whole span was resident

    def test_prefetch_skips_resident_span(self, pf):
        pool = BufferPool(pf, capacity=8)
        pages = [pool.new_page(PageType.HEAP) for _ in range(4)]
        assert pool.prefetch(pages[0], 4) == 0  # all already in the pool

    def test_prefetch_clamped_to_file_end(self, pf):
        pool = BufferPool(pf, capacity=16)
        pages = [pool.new_page(PageType.HEAP) for _ in range(3)]
        pool.flush_all()
        pool.invalidate_all()
        # Ask for 8 pages starting at the first one; only what exists loads.
        loaded = pool.prefetch(pages[0], 8)
        assert 0 < loaded <= pages[-1] + 1

    def test_prefetch_never_admits_stale_bytes_for_evicted_dirty_mate(self, pf):
        """A dirty span-mate evicted *during* the admit loop must not be
        re-admitted from the span bytes: they were read before the
        eviction's write-back and would resurrect the stale page."""
        pool = BufferPool(pf, capacity=4)
        span = [pool.new_page(PageType.HEAP) for _ in range(4)]
        others = [pool.new_page(PageType.HEAP) for _ in range(3)]
        pool.flush_all()
        pool.invalidate_all()
        # Dirty a mid-span page: its only current bytes are in the pool.
        with pool.page(span[2], write=True) as page:
            slot = page.insert(b"only in memory")
        # Fill the pool so the batch admissions must evict, with the dirty
        # span page sitting at the LRU front — the first victim.
        for p in others:
            with pool.page(p):
                pass
        pool.prefetch(span[0], 4)
        with pool.page(span[2]) as page:
            assert page.read(slot) == b"only in memory"

    def test_prefetch_preserves_dirty_resident_frames(self, pf):
        pool = BufferPool(pf, capacity=8)
        pages = [pool.new_page(PageType.HEAP) for _ in range(3)]
        with pool.page(pages[1], write=True) as page:
            slot = page.insert(b"unflushed")
        pool.prefetch(pages[0], 3)
        with pool.page(pages[1]) as page:
            assert page.read(slot) == b"unflushed"


class TestScanResistance:
    def test_cold_scan_does_not_evict_hot_page(self, pf):
        pool = BufferPool(pf, capacity=4)
        hot = pool.new_page(PageType.HEAP)
        scan = [pool.new_page(PageType.HEAP) for _ in range(8)]
        pool.flush_all()
        pool.invalidate_all()
        with pool.page(hot):          # hot: lives at the MRU end
            pass
        for p in scan:                # a scan twice the pool size
            pool.prefetch(p, 1)
            with pool.page(p, cold=True):
                pass
        misses_before = pool.misses
        with pool.page(hot):
            pass
        assert pool.misses == misses_before  # hot page survived the scan

    def test_cold_hit_does_not_promote(self, pf):
        pool = BufferPool(pf, capacity=4)
        pages = [pool.new_page(PageType.HEAP) for _ in range(6)]
        pool.flush_all()
        pool.invalidate_all()
        pool.prefetch(pages[0], 1)
        with pool.page(pages[0], cold=True):  # cold re-touch: stays cold
            pass
        # Fill the pool; the untouched-but-cold page goes first.
        for p in pages[1:5]:
            with pool.page(p):
                pass
        misses_before = pool.misses
        with pool.page(pages[0]):
            pass
        assert pool.misses == misses_before + 1  # it was evicted

    def test_non_cold_pin_rehabilitates_frame(self, pf):
        pool = BufferPool(pf, capacity=4)
        target = pool.new_page(PageType.HEAP)
        scan = [pool.new_page(PageType.HEAP) for _ in range(6)]
        pool.flush_all()
        pool.invalidate_all()
        pool.prefetch(target, 1)
        with pool.page(target):       # non-cold pin: promoted to hot
            pass
        for p in scan:
            pool.prefetch(p, 1)
            with pool.page(p, cold=True):
                pass
        misses_before = pool.misses
        with pool.page(target):
            pass
        assert pool.misses == misses_before  # rehabilitated frame survived

"""The scan page cache's looping-scan eviction rule, counted exactly.

Every cluster here holds one record per page, so a cluster of N
records is a scan of N pages, and the cache is cut to ``C`` pages. A
miss with the cache full evicts the least recently used entry when a
scan of another cluster cached it, and otherwise the scanned cluster's
own most recently used one.
"""

import contextlib
import threading

import pytest

from repro.__main__ import _print_stats
from repro.core.database import Database
from repro.obs.metrics import parse_prometheus
from repro.storage.codec import decode_value
from repro.storage.heap import RID
from repro.storage.store import Store

C = 16

#: One record per 4 KiB page.
PAD = "x" * 3000


def fill(store, cluster, pages):
    txn = store.begin()
    store.create_cluster(txn, cluster)
    for i in range(pages):
        store.put(txn, cluster, (i, 0), {"__key": [i, 0], "n": i, "pad": PAD},
                  new=True)
    store.commit(txn)


def scan_pass(store, cluster):
    """Scan *cluster* once: ``(pages, hits, misses, evictions)`` of the
    pass."""
    hits, misses = store.page_cache_hits, store.page_cache_misses
    evictions = store.page_cache_evictions
    pages = sum(1 for _ in store.scan_batches(cluster))
    return (pages, store.page_cache_hits - hits,
            store.page_cache_misses - misses,
            store.page_cache_evictions - evictions)


@pytest.fixture
def small(store):
    store.PAGE_CACHE_PAGES = C
    return store


class TestLoopingScan:
    @pytest.mark.parametrize("pages", [18, 10 * C])
    def test_a_heap_longer_than_the_cache_keeps_all_but_one(
            self, small, pages):
        fill(small, "big", pages)
        assert scan_pass(small, "big") == (pages, 0, pages, pages - C)
        for _ in range(3):
            seen, hits, misses, evictions = scan_pass(small, "big")
            assert seen == pages and hits + misses == pages
            assert hits >= C - 1
            assert evictions == misses
        assert len(small._page_cache) == C

    def test_a_heap_that_fits_stays_fully_cached(self, small):
        fill(small, "fits", C)
        assert scan_pass(small, "fits") == (C, 0, C, 0)
        for _ in range(3):
            assert scan_pass(small, "fits") == (C, C, 0, 0)

    @pytest.mark.parametrize("pages_b", [C // 2, C])
    def test_switching_to_a_heap_that_fits_ages_the_old_one_out(
            self, small, pages_b):
        fill(small, "a", 3 * C)
        fill(small, "b", pages_b)
        for _ in range(3):
            scan_pass(small, "a")
        # B's misses evict A's entries (least recently used, another
        # cluster's) and never B's own: one pass brings all of B in.
        assert scan_pass(small, "b") == (pages_b, 0, pages_b, pages_b)
        for _ in range(2):
            assert scan_pass(small, "b") == (pages_b, pages_b, 0, 0)

    def test_a_small_heap_between_passes_of_a_big_one_is_cached(
            self, small):
        small_pages = 5
        fill(small, "big", 10 * C)
        fill(small, "small", small_pages)
        for _ in range(2):
            scan_pass(small, "big")
        for _ in range(3):
            scan_pass(small, "small")
            owner = small._heap("small").first_page
            owned = {page_no for page_no, entry in small._page_cache.items()
                     if entry[3] == owner}
            assert len(owned) == small_pages
            assert scan_pass(small, "small") == (small_pages, small_pages,
                                                 0, 0)
            # The big heap lost only the pages the small one took.
            _pages, hits, _misses, _evictions = scan_pass(small, "big")
            assert hits >= C - 1 - small_pages

    def test_a_page_written_between_passes_is_re_read(self, small):
        pages = 2 * C
        fill(small, "big", pages)
        for _ in range(2):
            scan_pass(small, "big")
        heap = small._heap("big")
        cached = list(small._page_cache)
        target = cached[len(cached) // 2]
        (key,) = small._page_cache[target][2].keys
        txn = small.begin()
        small.put(txn, "big", key, {"__key": list(key), "n": -1, "pad": PAD})
        small.commit(txn)
        hits, misses = small.page_cache_hits, small.page_cache_misses
        batches = {batch.page_no: batch
                   for batch in small.scan_batches("big")}
        # Every page cached before the write but the written one is hit.
        assert small.page_cache_hits - hits == C - 1
        assert small.page_cache_misses - misses == pages - (C - 1)
        slots, payloads, *_ = heap.read_page_records(target, 0)
        assert list(batches[target]) == [
            (RID(target, slot), decode_value(payload))
            for slot, payload in zip(slots, payloads)]
        assert [record["n"] for _rid, record in batches[target]] == [-1]


class TestObservability:
    def test_evictions_and_hit_ratio(self, small):
        pages = 10 * C
        fill(small, "big", pages)
        for _ in range(3):
            scan_pass(small, "big")
        stats = small.stats()["page_cache"]
        hits, misses = small.page_cache_hits, small.page_cache_misses
        assert hits >= 2 * (C - 1) and hits + misses == 3 * pages
        assert stats["hits"] == hits and stats["misses"] == misses
        assert stats["evictions"] == misses - C
        assert stats["hit_ratio"] == hits / (hits + misses)
        assert stats["cached_pages"] == C
        text = small.metrics.render_prometheus()
        assert "ode_page_cache_evictions_total %d" % (misses - C) in text
        assert "ode_page_cache_hit_ratio " in text
        parse_prometheus(text)

    def test_an_unused_cache_reports_a_zero_ratio(self, store):
        stats = store.stats()["page_cache"]
        assert stats["evictions"] == 0 and stats["hit_ratio"] == 0.0

    def test_database_and_cli_stats_carry_the_page_cache(self, db_path,
                                                          capsys):
        db = Database(db_path)
        try:
            db.store.PAGE_CACHE_PAGES = C
            fill(db.store, "big", 2 * C)
            for _ in range(2):
                scan_pass(db.store, "big")
            stats = db.stats()["page_cache"]
            assert stats == db.store.stats()["page_cache"]
            # Pass two hits pages 0-14 and the chain's last page.
            assert stats["hits"] == C
            assert stats["evictions"] == 4 * C - C - C
            assert stats["hit_ratio"] == 0.25
            _print_stats(db)
            assert ("page cache:   16 hits, 48 misses (25.0% hit rate), "
                    "32 evictions, 16/16 pages cached"
                    in capsys.readouterr().out)
        finally:
            db.close()


class _SharedExclusive:
    """Scanners share, the writer excludes (and goes first when it
    waits): a batch is compared with its page before the writer can
    change that page again."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextlib.contextmanager
    def shared(self):
        with self._cond:
            self._cond.wait_for(lambda: not self._writing)
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def exclusive(self):
        with self._cond:
            self._writing = True
            self._cond.wait_for(lambda: self._readers == 0)
            try:
                yield
            finally:
                self._writing = False
                self._cond.notify_all()


PASSES = 12


@pytest.mark.concurrency
def test_two_scans_beside_a_writer_serve_current_bytes(small):
    heaps = {"left": C // 2, "right": 2 * C}
    for cluster, pages in heaps.items():
        fill(small, cluster, pages)
    gate = _SharedExclusive()
    stop = threading.Event()
    errors = []
    checked = []
    writes = [0]

    def writer():
        try:
            while not stop.is_set():
                n = writes[0] = writes[0] + 1
                cluster = ("left", "right")[n % 2]
                serial = (7 * n) % heaps[cluster]
                with gate.exclusive():
                    txn = small.begin()
                    small.put(txn, cluster, (serial, 0),
                              {"__key": [serial, 0], "n": n, "pad": PAD})
                    small.commit(txn)
        except Exception as exc:
            errors.append(exc)

    def scanner(cluster):
        heap = small._heap(cluster)
        try:
            for _ in range(PASSES):
                with contextlib.closing(small.scan_batches(cluster)) as walk:
                    while True:
                        with gate.shared():
                            batch = next(walk, None)
                            if batch is None:
                                break
                            slots, payloads, *_ = heap.read_page_records(
                                batch.page_no, 0)
                        assert batch._slots == slots
                        assert batch.payloads() == payloads
                        checked.append(batch.page_no)
        except Exception as exc:
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=scanner, args=(cluster,))
               for cluster in heaps]
    write = threading.Thread(target=writer)
    write.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    stop.set()
    write.join(timeout=60)
    assert not errors, errors
    assert len(checked) == PASSES * sum(heaps.values())
    assert writes[0] > 0
    assert small.page_cache_hits > 0
    assert len(small._page_cache) <= C

"""Buffer pool — an LRU cache of page frames with pin/unpin discipline.

Higher layers never touch the :class:`~repro.storage.pagefile.PageFile`
directly; they *fetch* pages from the pool, which faults them in from disk
on a miss and evicts clean-or-flushed unpinned frames when full. A fetched
page is pinned until released; pinned pages are never evicted.

The idiomatic way to use the pool is the :meth:`BufferPool.page` context
manager::

    with pool.page(page_no) as page:          # read access
        payload = page.read(slot)

    with pool.page(page_no, write=True) as page:   # marks frame dirty
        page.insert(b"...")

Dirty frames are written back on eviction, on :meth:`flush_page`, and on
:meth:`flush_all` (used by checkpoints and close). When a
:class:`~repro.storage.wal.WriteAheadLog` is attached, the pool enforces
the WAL rule: before a dirty page goes to disk, the log is flushed up to
that page's LSN.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..errors import BufferPoolError, CorruptPageError
from .page import PAGE_SIZE, SlottedPage, PageType, verify_checksum
from .pagefile import PageFile

DEFAULT_POOL_SIZE = 256

#: Offset of the page-type byte in the page header, and the types the
#: pool accounts as object-directory pages.
_TYPE_AT = 4
_TABLE_TYPES = (PageType.TABLE_NODE, PageType.TABLE_LEAF)


class _Frame:
    __slots__ = ("page_no", "buf", "pin_count", "dirty", "cold")

    def __init__(self, page_no: int):
        self.page_no = page_no
        self.buf = bytearray(PAGE_SIZE)
        self.pin_count = 0
        self.dirty = False
        #: Scan-resistance flag: cold frames (readahead, scan touches) sit
        #: at the LRU end and are evicted first; a frame only becomes hot
        #: — and earns a trip to the MRU end — on a non-cold pin.
        self.cold = False


class BufferPool:
    """LRU buffer pool over a :class:`PageFile`."""

    def __init__(self, pagefile: PageFile, capacity: int = DEFAULT_POOL_SIZE):
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self._pagefile = pagefile
        self._capacity = capacity
        # OrderedDict as LRU: most recently used at the end.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self._wal = None
        #: The storage latch. One reentrant lock guards *physical* state —
        #: frames, the page file, the WAL tail, catalog caches — across the
        #: whole storage layer. :meth:`pin` acquires it and the matching
        #: :meth:`unpin` releases it, so a pinned page is never mutated or
        #: evicted under a concurrent thread. Logical isolation between
        #: transactions is the LockManager's job, not the latch's; callers
        #: must never block on the lock manager while holding the latch.
        self.latch = threading.RLock()
        #: Pages that failed their checksum: pinning one raises
        #: :class:`CorruptPageError` until it is repaired or reformatted.
        #: The empty-set truthiness check keeps the healthy path at one
        #: attribute load.
        self.quarantined: set = set()
        #: Called (under the latch) with ``(page_no, exc)`` when a page
        #: fails verification; the store quarantines/degrades here.
        self.on_corrupt_page = None
        #: Pages formatted by :meth:`new_page`/:meth:`new_extent` whose
        #: format has not been WAL-logged yet, mapped to whether the page
        #: number came off the free list. The journal diffs such a
        #: page's first edit against a *zero* page, so the format itself
        #: lands in the log — otherwise a crash before the frame's
        #: writeback leaves a page the log cannot rebuild (and, for pages
        #: whose only edit was empty, not even extend the file for). A
        #: *recycled* page's earlier life may still be in the log, so its
        #: first edit is logged as the whole image (see ``_PageEdit``).
        self.fresh_pages: dict = {}
        # statistics. Requests are accounted by what the page is, the
        # way pg_statio splits heap from index blocks: ``hits``/``misses``
        # are data pages (heap, overflow, index, catalog), the
        # ``directory_*`` pair object-table pages — a directory that fits
        # the pool is all hits by design and would otherwise mask how
        # cold the data itself is.
        self.hits = 0
        self.misses = 0
        self.directory_hits = 0
        self.directory_misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.prefetches = 0
        self.readahead_pages = 0
        self.checksum_failures = 0

    def attach_wal(self, wal) -> None:
        """Attach a write-ahead log; enforces flush-log-before-page."""
        self._wal = wal

    def all_latches(self):
        """The pool's latch as a context manager: what the journal's
        abort holds across a multi-page rollback."""
        return self.latch

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def has_free_pages(self) -> bool:
        """Whether the underlying page file has recyclable freed pages."""
        return self._pagefile.has_free_pages

    # -- pinning ---------------------------------------------------------------

    def pin(self, page_no: int, cold: bool = False,
            unchecked: bool = False) -> SlottedPage:
        """Pin *page_no*, faulting it in if needed, and return a page view.

        Acquires the storage latch; the matching :meth:`unpin` releases it.
        The latch is reentrant, so nested pins from one thread are fine.

        *cold* pins (sequential scans) are scan-resistant: a cold fault
        enters the frame at the LRU end instead of the MRU end, and a cold
        hit on a cold frame does not promote it — so one large scan churns
        through at most the cold end of the pool and cannot evict the hot
        working set. Any non-cold pin rehabilitates the frame.

        A faulted-in page is checksum-verified before it is served; a
        mismatch raises :class:`CorruptPageError` (after notifying
        :attr:`on_corrupt_page`) and nothing is admitted. *unchecked*
        skips both the verification and the quarantine gate — crash
        recovery uses it to pin a torn page it is about to rebuild from
        the log.
        """
        self.latch.acquire()
        try:
            if self.quarantined and not unchecked \
                    and page_no in self.quarantined:
                raise CorruptPageError(
                    "page %d is quarantined (failed checksum)" % page_no,
                    page_no=page_no)
            frame = self._frames.get(page_no)
            if frame is not None:
                if frame.buf[_TYPE_AT] in _TABLE_TYPES:
                    self.directory_hits += 1
                else:
                    self.hits += 1
                if cold and frame.cold:
                    pass  # scan re-touch: leave it where it is
                else:
                    frame.cold = False
                    self._frames.move_to_end(page_no)
            else:
                frame = self._admit(page_no)
                try:
                    self._pagefile.read_page(page_no, frame.buf)
                    if not unchecked and not verify_checksum(frame.buf):
                        self.checksum_failures += 1
                        exc = CorruptPageError(
                            "page %d failed its checksum" % page_no,
                            page_no=page_no)
                        if self.on_corrupt_page is not None:
                            self.on_corrupt_page(page_no, exc)
                        raise exc
                except BaseException:
                    # Never leave a half-faulted frame behind.
                    self.misses += 1
                    self._frames.pop(page_no, None)
                    raise
                if frame.buf[_TYPE_AT] in _TABLE_TYPES:
                    self.directory_misses += 1
                else:
                    self.misses += 1
                if cold:
                    frame.cold = True
                    self._frames.move_to_end(page_no, last=False)
            frame.pin_count += 1
        except BaseException:
            self.latch.release()
            raise
        return SlottedPage(frame.buf)

    def prefetch(self, page_no: int, count: int) -> int:
        """Fault pages ``[page_no, page_no+count)`` in with one read.

        Heap readahead: the span is read from the file in a single I/O and
        the pages not already resident are admitted as *cold* frames (see
        :meth:`pin`), so the readahead itself cannot evict the working
        set. Pages already in the pool keep their (possibly dirty) frames.
        Returns the number of pages actually admitted.
        """
        with self.latch:
            count = min(count, max(self._capacity - 1, 1))
            # Pages resident when the span is read. For these, `raw` may be
            # STALE: a resident frame can be dirty, with the only current
            # bytes in memory. They are never admitted from the span — not
            # even if an eviction below drops them mid-loop (the eviction's
            # write-back makes disk fresher than `raw`; a later pin must
            # re-fault them from disk). For never-resident pages `raw` is
            # current: no dirty frame existed at read time, and mid-loop
            # write-backs only touch pages that *were* resident.
            resident = {page_no + i for i in range(count)
                        if page_no + i in self._frames}
            if len(resident) == count:
                return 0
            raw = self._pagefile.read_span(page_no, count)
            batch = []
            for i in range(len(raw) // PAGE_SIZE):
                no = page_no + i
                if no in resident:
                    continue
                span_page = raw[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
                if not verify_checksum(span_page):
                    # Never admit corrupt bytes, and never quarantine on
                    # speculation: the span may cover pages no structure
                    # reaches (one whose free-list write tore, say). A
                    # reader that does pin this page faults it in itself
                    # and meets the typed error on its own stack.
                    continue
                # Admit at the MRU end first so evictions triggered by the
                # batch itself pick older frames, never batch-mates ...
                try:
                    frame = self._admit(no)
                except BufferPoolError:
                    break  # everything pinned — readahead is best-effort
                frame.buf[:] = span_page
                frame.cold = True
                batch.append(no)
            # ... then rotate the whole batch to the LRU end (reversed, so
            # forward page order is preserved there): by the time the next
            # prefetch needs victims, these pages have been consumed.
            for no in reversed(batch):
                self._frames.move_to_end(no, last=False)
            self.prefetches += 1
            self.readahead_pages += len(batch)
            return len(batch)

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        """Release one pin on *page_no*, optionally marking it dirty."""
        frame = self._frames.get(page_no)
        if frame is None or frame.pin_count == 0:
            # The caller never pinned, so it does not hold this pin's latch.
            raise BufferPoolError("unpin of page %d that is not pinned" % page_no)
        if dirty:
            frame.dirty = True
        frame.pin_count -= 1
        self.latch.release()

    def page(self, page_no: int, write: bool = False,
             cold: bool = False) -> "_PinnedPage":
        """Context manager combining :meth:`pin` and :meth:`unpin`."""
        return _PinnedPage(self, page_no, write, cold)

    def new_page(self, page_type: int) -> int:
        """Allocate a page, format it in the pool, and return its number.

        The new page enters the pool already formatted and dirty; it is not
        left pinned.
        """
        with self.latch:
            recycled = self._pagefile.has_free_pages
            page_no = self._pagefile.allocate_page()
            self.quarantined.discard(page_no)  # a reformat heals the page
            frame = self._frames.get(page_no)
            if frame is None:
                frame = self._admit(page_no)
            SlottedPage.format(frame.buf, page_no, page_type)
            frame.cold = False
            frame.dirty = True
            self.fresh_pages[page_no] = recycled
            return page_no

    def new_extent(self, page_type: int, count: int) -> list:
        """Allocate *count* physically contiguous pages, formatted.

        Like :meth:`new_page` but the pages come from one end-of-file
        extent (bypassing the free list), so a later sequential scan over
        them is a single contiguous read.
        """
        with self.latch:
            page_nos = self._pagefile.allocate_extent(count)
            for page_no in page_nos:
                self.quarantined.discard(page_no)
                frame = self._frames.get(page_no)
                if frame is None:
                    frame = self._admit(page_no)
                SlottedPage.format(frame.buf, page_no, page_type)
                frame.cold = False
                frame.dirty = True
                self.fresh_pages[page_no] = False  # extents are end-of-file
            return page_nos

    def ensure_allocated(self, page_no: int) -> None:
        """Extend the page file so *page_no* exists (crash recovery only)."""
        with self.latch:
            self._pagefile.ensure_allocated(page_no)

    def free_page(self, page_no: int, lsn: int) -> None:
        """Drop *page_no* from the pool and return it to the file free list.

        *lsn* is the freeing transaction's commit LSN. It is stamped on
        the free image (see :meth:`PageFile.free_page`), and — the WAL
        rule — the log is durable up to it before the page's last life
        is overwritten.
        """
        with self.latch:
            frame = self._frames.pop(page_no, None)
            if frame is not None and frame.pin_count > 0:
                raise BufferPoolError("cannot free pinned page %d" % page_no)
            self.quarantined.discard(page_no)  # free_page rewrites it
            self.fresh_pages.pop(page_no, None)
            if self._wal is not None:
                self._wal.flush(lsn)
            self._pagefile.free_page(page_no, lsn)

    # -- write-back ---------------------------------------------------------------

    def flush_page(self, page_no: int) -> None:
        """Write *page_no* back to disk if dirty (stays cached)."""
        with self.latch:
            if self._wal_failed():
                return  # see flush_all: the WAL rule cannot be honoured
            frame = self._frames.get(page_no)
            if frame is not None and frame.dirty:
                self._write_back(frame)

    def flush_all(self) -> None:
        """Write every dirty frame back to disk (checkpoint/close path)."""
        with self.latch:
            if self._wal_failed():
                # The WAL rule cannot be honoured (the log will not fsync);
                # writing these pages could persist changes whose log
                # records are not durable. Leave disk at the durable
                # prefix; reopening recovers to it.
                return
            for frame in self._frames.values():
                if frame.dirty:
                    self._write_back(frame)

    def sync(self) -> None:
        """fsync the underlying page file (checkpoint durability point)."""
        self._pagefile.sync()

    def dirty_page_numbers(self):
        """Page numbers of currently dirty frames (for checkpointing)."""
        with self.latch:
            return [f.page_no for f in self._frames.values() if f.dirty]

    def invalidate_all(self) -> None:
        """Drop every frame without writing back (crash simulation)."""
        with self.latch:
            for frame in self._frames.values():
                if frame.pin_count > 0:
                    raise BufferPoolError(
                        "cannot invalidate: page %d is pinned" % frame.page_no)
            self._frames.clear()

    def close(self) -> None:
        with self.latch:
            self.flush_all()
            self._frames.clear()

    # -- internals --------------------------------------------------------------

    def _admit(self, page_no: int) -> _Frame:
        while len(self._frames) >= self._capacity:
            self._evict_one()
        frame = _Frame(page_no)
        self._frames[page_no] = frame
        return frame

    def _evict_one(self) -> None:
        # With a failed WAL dirty frames must stay resident (their log
        # records will never be durable; writing them back would break
        # the WAL rule) — evict clean frames only.
        wal_dead = self._wal_failed()
        for victim_no, frame in self._frames.items():
            if frame.pin_count == 0 and not (frame.dirty and wal_dead):
                if frame.dirty:
                    self._write_back(frame)
                del self._frames[victim_no]
                self.evictions += 1
                return
        raise BufferPoolError(
            "buffer pool exhausted: all %d frames pinned" % self._capacity)

    def _wal_failed(self) -> bool:
        return self._wal is not None and self._wal.failed is not None

    def _write_back(self, frame: _Frame) -> None:
        if self._wal is not None:
            page_lsn = SlottedPage(frame.buf).page_lsn
            self._wal.flush(page_lsn)
        self._pagefile.write_page(frame.page_no, frame.buf)
        frame.dirty = False
        self.writebacks += 1

    def stats(self) -> Dict[str, int]:
        """Counters for benchmarks and tests."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": (self.hits / lookups) if lookups else 0.0,
            "directory_hits": self.directory_hits,
            "directory_misses": self.directory_misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "prefetches": self.prefetches,
            "readahead_pages": self.readahead_pages,
            "checksum_failures": self.checksum_failures,
            "quarantined": len(self.quarantined),
            "cached": len(self._frames),
            "capacity": self._capacity,
        }


class _PinnedPage:
    """Hand-rolled pin/unpin context manager (see :meth:`BufferPool.page`).

    A plain class instead of ``@contextmanager``: page fetches happen on
    every record read in the engine, where the generator machinery is
    measurable overhead.
    """

    __slots__ = ("_pool", "_page_no", "_write", "_cold")

    def __init__(self, pool: BufferPool, page_no: int, write: bool,
                 cold: bool = False):
        self._pool = pool
        self._page_no = page_no
        self._write = write
        self._cold = cold

    def __enter__(self) -> SlottedPage:
        return self._pool.pin(self._page_no, cold=self._cold)

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._pool.unpin(self._page_no, dirty=self._write)
        return False

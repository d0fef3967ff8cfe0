"""Heap files — unordered record storage with stable record ids.

A heap file is a chain of slotted pages. Records are addressed by a
:class:`RID` (page number, slot). RIDs are stable for the life of the
record:

* An update that no longer fits on the record's home page relocates the
  payload and leaves a 15-byte *forwarding stub* in the home slot, so the
  RID keeps working.
* A record bigger than a page spills into a chain of *overflow pages*; the
  home slot stores an overflow stub. A stub that does not fit at home
  (it is 17 bytes, two more than the smallest record) is relocated like
  a payload, behind a forwarding stub.

Record wire format: ``kind:u8 | length:u32 | payload``, zero-padded to at
least :data:`MIN_RECORD_SIZE` bytes. The padding guarantees a forwarding
stub always fits in place of any record, so forwarding can never fail.

All mutations go through the :class:`~repro.storage.journal.Journal` and
are therefore atomic and durable under the enclosing transaction. A
record insert, delete or update is one logged slot operation whose undo
is logical — tombstone the RID, or put the old record back at it — so
an abort never disturbs other transactions' records on the same page.
Chain growth (a new page, then the link to it) and overflow pages are
logged redo-only: another transaction may fill a page this one added.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, NamedTuple, Optional, Tuple

from ..errors import PageError, StorageError
from .journal import Journal
from .page import (HEADER_SIZE, MAX_RECORD_SIZE, NO_PAGE, PAGE_SIZE,
                   PageType, SlottedPage)

_REC_HDR = struct.Struct("<BI")
_FORWARD = struct.Struct("<QH")
_OVERFLOW = struct.Struct("<QI")
_OVF_USED = struct.Struct("<H")

#: Every record is padded to this size so a forwarding stub always fits.
MIN_RECORD_SIZE = _REC_HDR.size + _FORWARD.size  # 15 bytes

#: Payload capacity of one overflow page.
OVERFLOW_CAPACITY = PAGE_SIZE - HEADER_SIZE - _OVF_USED.size

#: Largest payload stored inline on the home page.
MAX_INLINE_PAYLOAD = MAX_RECORD_SIZE - _REC_HDR.size

KIND_DATA = 0        # payload follows inline
KIND_FORWARD = 1     # payload lives at another RID (a KIND_MOVED(_OVERFLOW))
KIND_MOVED = 2       # relocated payload; skipped by scans, found via stubs
KIND_OVERFLOW = 3    # payload lives in an overflow page chain
KIND_MOVED_OVERFLOW = 4  # relocated overflow stub; skipped like KIND_MOVED


class RID(NamedTuple):
    """Stable record id: (page_no, slot)."""

    page_no: int
    slot: int

    def __repr__(self) -> str:
        return "RID(%d:%d)" % (self.page_no, self.slot)


def _pack_record(kind: int, payload: bytes) -> bytes:
    raw = _REC_HDR.pack(kind, len(payload)) + payload
    if len(raw) < MIN_RECORD_SIZE:
        raw += b"\x00" * (MIN_RECORD_SIZE - len(raw))
    return raw


def _unpack_record(raw: bytes) -> Tuple[int, bytes]:
    kind, length = _REC_HDR.unpack_from(raw, 0)
    return kind, raw[_REC_HDR.size:_REC_HDR.size + length]


def overflow_head(raw: bytes) -> int:
    """First overflow page the stored record *raw* owns, or ``NO_PAGE``."""
    kind, body = _unpack_record(raw)
    if kind in (KIND_OVERFLOW, KIND_MOVED_OVERFLOW):
        return _OVERFLOW.unpack(body)[0]
    return NO_PAGE


class HeapFile:
    """A chain of heap pages storing variable-length records."""

    def __init__(self, journal: Journal, first_page: int,
                 extent: int = 1, find_tail: bool = True):
        self._journal = journal
        self._pool = journal._pool
        self._first_page = first_page
        #: Pages added per :meth:`_grow`. With ``extent > 1`` growth
        #: allocates physically contiguous end-of-file runs, so a cluster's
        #: records land together and sequential scans read whole spans.
        self._extent = max(1, extent)
        # Session-local cache of pages believed to have free room. Not
        # persisted: correctness never depends on it, only insert locality.
        self._free_candidates: list = []
        # ``find_tail=False`` is the read-only salvage mode: locating the
        # tail walks the whole chain, which is exactly what a corrupt
        # mid-chain page makes impossible. Such a heap must never insert.
        self._tail_page = self._find_tail() if find_tail else first_page

    @classmethod
    def create(cls, journal: Journal, txn: int,
               extent: int = 1) -> "HeapFile":
        """Allocate a fresh single-page heap file."""
        page_no = journal._pool.new_page(PageType.HEAP)
        with journal.edit(txn, page_no, redo_only=True):
            pass  # logs the format new_page applied
        return cls(journal, page_no, extent=extent)

    @property
    def first_page(self) -> int:
        return self._first_page

    def _find_tail(self) -> int:
        page_no = self._first_page
        while True:
            with self._pool.page(page_no) as page:
                nxt = page.next_page
            if nxt == NO_PAGE:
                return page_no
            page_no = nxt

    # -- public operations --------------------------------------------------

    def insert(self, txn: int, payload: bytes) -> RID:
        """Store *payload*; return its stable RID."""
        if len(payload) > MAX_INLINE_PAYLOAD:
            first_ovf = self._write_overflow_chain(txn, payload)
            record = _pack_record(KIND_OVERFLOW,
                                  _OVERFLOW.pack(first_ovf, len(payload)))
        else:
            record = _pack_record(KIND_DATA, payload)
        return self._place(txn, record)

    def read(self, rid: RID) -> bytes:
        """Return the payload stored at *rid*, following indirections."""
        return self._resolve(rid, *self._read_raw(rid))

    def _resolve(self, rid: RID, kind: int, body: bytes) -> bytes:
        """The payload of the record *kind*/*body* read at *rid*."""
        if kind == KIND_FORWARD:
            kind, body = self._read_raw(RID(*_FORWARD.unpack(body)))
            if kind not in (KIND_MOVED, KIND_MOVED_OVERFLOW):
                raise StorageError("dangling forward stub at %r" % (rid,))
        if kind in (KIND_DATA, KIND_MOVED):
            return body
        if kind in (KIND_OVERFLOW, KIND_MOVED_OVERFLOW):
            first_ovf, total = _OVERFLOW.unpack(body)
            return self._read_overflow_chain(first_ovf, total)
        raise StorageError("unknown record kind %d at %r" % (kind, rid))

    def page_lsn(self, page_no: int) -> int:
        """Current LSN of *page_no* (token semantics of read_with_lsn)."""
        with self._pool.page(page_no) as page:
            return page.page_lsn

    def read_with_lsn(self, rid: RID) -> Tuple[bytes, int]:
        """Like :meth:`read`, also returning the *home* page's LSN.

        The home-page LSN is a physical version token for the record:
        every mutation of the record — in-place update, relocation,
        overflow rewrite, delete — edits the home page (that is where the
        slot or stub lives), so a later LSN mismatch is exactly "this
        record may have changed".
        """
        with self._pool.page(rid.page_no) as page:
            raw = page.read(rid.slot)
            lsn = page.page_lsn
        return self._resolve(rid, *_unpack_record(raw)), lsn

    def update(self, txn: int, rid: RID, payload: bytes) -> None:
        """Replace the payload at *rid*; the RID remains valid."""
        self._release(txn, *self._read_raw(rid))
        if len(payload) > MAX_INLINE_PAYLOAD:
            first_ovf = self._write_overflow_chain(txn, payload)
            stub = _OVERFLOW.pack(first_ovf, len(payload))
            if self._journal.heap_update(
                    txn, rid.page_no, rid.slot,
                    _pack_record(KIND_OVERFLOW, stub)):
                return
            moved = _pack_record(KIND_MOVED_OVERFLOW, stub)
        else:
            if self._journal.heap_update(txn, rid.page_no, rid.slot,
                                         _pack_record(KIND_DATA, payload)):
                self._free_candidates.append(rid.page_no)
                return
            moved = _pack_record(KIND_MOVED, payload)
        # Doesn't fit at home: relocate and leave a forwarding stub. The
        # stub is MIN_RECORD_SIZE bytes, never larger than the old record,
        # so it always fits.
        moved_rid = self._place(txn, moved)
        stub = _pack_record(KIND_FORWARD, _FORWARD.pack(*moved_rid))
        if not self._journal.heap_update(txn, rid.page_no, rid.slot, stub):
            raise StorageError("forwarding stub does not fit at %r" % (rid,))

    def delete(self, txn: int, rid: RID) -> None:
        """Delete the record at *rid*, releasing indirect storage."""
        self._release(txn, *self._read_raw(rid))
        self._delete_slot(txn, rid)

    def _release(self, txn: int, kind: int, body: bytes) -> None:
        """Release the indirect storage of a record about to be replaced
        or deleted: its relocated body, its overflow chain, or both."""
        if kind == KIND_FORWARD:
            target = RID(*_FORWARD.unpack(body))
            kind, body = self._read_raw(target)
            self._delete_slot(txn, target)
        if kind in (KIND_OVERFLOW, KIND_MOVED_OVERFLOW):
            self._free_overflow_chain(txn, _OVERFLOW.unpack(body)[0])

    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """Yield ``(rid, payload)`` for every record, in physical order.

        Relocated bodies (KIND_MOVED) are reported at their *home* RID via
        the forwarding stub, not at their physical location. The scan
        tolerates records inserted behind the cursor during iteration (the
        fixpoint-query requirement flows down to this property).
        """
        page_no = self._first_page
        while page_no != NO_PAGE:
            slot = 0
            while True:
                with self._pool.page(page_no) as page:
                    if slot >= page.slot_count:
                        next_page = page.next_page
                        break
                    try:
                        raw = page.read(slot)
                    except PageError:
                        slot += 1
                        continue
                kind, body = _unpack_record(raw)
                rid = RID(page_no, slot)
                slot += 1
                if kind == KIND_DATA:
                    yield rid, body
                elif kind == KIND_FORWARD:
                    yield rid, self.read(rid)
                elif kind == KIND_OVERFLOW:
                    first_ovf, total = _OVERFLOW.unpack(body)
                    yield rid, self._read_overflow_chain(first_ovf, total)
                # KIND_MOVED(_OVERFLOW): skipped, reached via its stub
            page_no = next_page

    #: Pages fetched per readahead request during batched scans.
    READAHEAD = 8

    def read_page_records(self, page_no: int, start_slot: int = 0):
        """Decode-free bulk read of one page under a single pin.

        Returns ``(slots, payloads, slot_count, next_page, page_lsn)``:
        two parallel lists — slot number and payload — for the live
        records in slots ``[start_slot, slot_count)``. The slot directory
        is read in one pass. Forwarding stubs and overflow stubs are
        resolved *after* the home pin is released (their chains take
        their own short pins), so no pin spans the whole batch.
        ``page_lsn`` is the page's physical version — any later mutation
        of any record homed here bumps it, which is what makes the LSN a
        safe cache-validity token for every payload returned.
        """
        slots = []
        payloads = []
        indirect = []
        header = _REC_HDR.unpack_from
        body_at = _REC_HDR.size
        with self._pool.page(page_no, cold=True) as page:
            slot_count = page.slot_count
            next_page = page.next_page
            page_lsn = page.page_lsn
            buf = page.buf
            for slot, offset, _length in page.live_entries(start_slot):
                kind, length = header(buf, offset)
                if kind in (KIND_FORWARD, KIND_OVERFLOW):
                    indirect.append((len(slots), kind))
                elif kind != KIND_DATA:
                    continue  # KIND_MOVED(_OVERFLOW): reached via its stub
                start = offset + body_at
                slots.append(slot)
                payloads.append(bytes(buf[start:start + length]))
        for i, kind in indirect:
            if kind == KIND_FORWARD:
                payloads[i] = self.read(RID(page_no, slots[i]))
            else:
                first_ovf, total = _OVERFLOW.unpack(payloads[i])
                payloads[i] = self._read_overflow_chain(first_ovf, total)
        return slots, payloads, slot_count, next_page, page_lsn

    def count(self) -> int:
        """Number of live records (scans the file)."""
        return sum(1 for _ in self.scan())

    def pages(self) -> List[int]:
        """Every page the heap occupies: its chain, in chain order, then
        the overflow chains hanging off its records."""
        pages = []
        page_no = self._first_page
        while page_no != NO_PAGE:
            pages.append(page_no)
            with self._pool.page(page_no) as page:
                page_no = page.next_page
        for home in list(pages):
            with self._pool.page(home) as page:
                records = list(page.slots())
            for _slot, raw in records:
                chain = overflow_head(raw)
                while chain != NO_PAGE:
                    pages.append(chain)
                    with self._pool.page(chain) as page:
                        chain = page.next_page
        return pages

    # -- placement ----------------------------------------------------------

    def _place(self, txn: int, record: bytes) -> RID:
        """Find a page with room for *record* and insert it."""
        insert = self._journal.heap_insert
        candidates = self._free_candidates
        # 1. recently-seen pages with space
        while candidates:
            page_no = candidates[-1]
            slot = insert(txn, page_no, record)
            if slot is not None:
                return RID(page_no, slot)
            while candidates and candidates[-1] == page_no:
                candidates.pop()
        # 2. the tail, 3. a new page
        page_no = self._tail_page
        slot = insert(txn, page_no, record)
        if slot is None:
            page_no = self._grow(txn)
            slot = insert(txn, page_no, record)
        return RID(page_no, slot)

    def _grow(self, txn: int, force_extent: bool = False) -> int:
        """Append fresh page(s) to the chain; return the first new number.

        With an extent size > 1 a whole contiguous run is allocated and
        linked at once; inserts fill it front to back (via the
        free-candidate stack), so the chain order matches the physical
        order and readahead stays effective. While the page file still
        has freed pages, growth recycles those one at a time instead
        (keeping the file bounded); *force_extent* overrides this for
        vacuum's reclustering rewrite, where contiguity is the point.

        Redo-only, new pages first and the link to them last: every
        prefix of the records is a valid chain, and an abort keeps the
        pages — other transactions may already have records on them.
        """
        journal = self._journal
        if self._extent <= 1 or \
                (self._pool.has_free_pages and not force_extent):
            pages = [self._pool.new_page(PageType.HEAP)]
        else:
            pages = self._pool.new_extent(PageType.HEAP, self._extent)
        for i, page_no in enumerate(pages):
            with journal.edit(txn, page_no, redo_only=True) as page:
                if i + 1 < len(pages):
                    page.next_page = pages[i + 1]
        with journal.edit(txn, self._tail_page, redo_only=True) as tail:
            tail.next_page = pages[0]
        self._tail_page = pages[-1]
        # LIFO stack peeks at [-1]: reversed() makes pages[1] the first
        # candidate tried, so the run fills in physical order.
        self._free_candidates.extend(reversed(pages[1:]))
        return pages[0]

    def preallocate(self, txn: int, pages: int) -> None:
        """Grow the chain by one contiguous *pages*-page extent now.

        Used by vacuum to reserve the rewrite target up front so the
        copied records land in one physical run instead of interleaving
        with the pages of other structures grown during the same pass.
        """
        if pages < 1:
            return
        saved = self._extent
        self._extent = pages
        try:
            first = self._grow(txn, force_extent=True)
        finally:
            self._extent = saved
        self._free_candidates.append(first)

    def _delete_slot(self, txn: int, rid: RID) -> None:
        self._journal.heap_delete(txn, rid.page_no, rid.slot)
        self._free_candidates.append(rid.page_no)

    def _read_raw(self, rid: RID) -> Tuple[int, bytes]:
        with self._pool.page(rid.page_no) as page:
            raw = page.read(rid.slot)
        return _unpack_record(raw)

    # -- overflow chains --------------------------------------------------------

    def _write_overflow_chain(self, txn: int, payload: bytes) -> int:
        """Write *payload* across fresh overflow pages; return the first."""
        chunks = [payload[i:i + OVERFLOW_CAPACITY]
                  for i in range(0, len(payload), OVERFLOW_CAPACITY)]
        page_nos = [self._pool.new_page(PageType.OVERFLOW) for _ in chunks]
        for i, (page_no, chunk) in enumerate(zip(page_nos, chunks)):
            nxt = page_nos[i + 1] if i + 1 < len(page_nos) else NO_PAGE
            with self._journal.edit(txn, page_no, redo_only=True) as page:
                page.next_page = nxt
                page.write(HEADER_SIZE, _OVF_USED.pack(len(chunk)) + chunk)
        return page_nos[0]

    def _read_overflow_chain(self, first_page: int, total: int) -> bytes:
        parts = []
        page_no = first_page
        remaining = total
        while page_no != NO_PAGE and remaining > 0:
            with self._pool.page(page_no) as page:
                used = _OVF_USED.unpack_from(page.buf, HEADER_SIZE)[0]
                start = HEADER_SIZE + _OVF_USED.size
                parts.append(bytes(page.buf[start:start + used]))
                page_no = page.next_page
            remaining -= used
        data = b"".join(parts)
        if len(data) != total:
            raise StorageError("overflow chain truncated: %d of %d bytes"
                               % (len(data), total))
        return data

    def _free_overflow_chain(self, txn: int, first_page: int) -> None:
        """Return overflow pages to the free list — at commit.

        The frees are deferred through the journal so that aborting the
        transaction (whose undo restores the overflow stub) can never
        leave the stub pointing at recycled pages.
        """
        page_no = first_page
        while page_no != NO_PAGE:
            with self._pool.page(page_no) as page:
                nxt = page.next_page
            self._journal.free_page_deferred(txn, page_no)
            page_no = nxt

"""Slotted pages — the unit of disk I/O and buffering.

Every page is ``PAGE_SIZE`` bytes. A page starts with a fixed header and
manages its payload with the classic *slotted page* layout: a slot directory
grows downward from the header while record payloads grow upward from the
end of the page. Deleting a record leaves a tombstone slot (so record ids
stay stable) and its space is reclaimed by :meth:`SlottedPage.compact`,
which is run automatically when an insert would otherwise fail.

Page header layout (little endian)::

    offset  size  field
    0       4     page_no        (redundancy check against file position)
    4       1     page_type      (PageType)
    8       8     page_lsn       (LSN of last WAL record applied, for ARIES)
    16      2     slot_count
    18      2     free_start     (first byte after the slot directory)
    20      2     free_end       (first byte used by record payloads)
    22      2     fragmented     (reclaimable bytes inside the payload area)
    24      8     next_page      (intrusive singly-linked page chains)
    32      4     checksum       (crc32c of the page, checksum field excluded)

The checksum is stamped by :meth:`PageFile.write_page` just before the
bytes hit the file and verified on every buffer-pool admit, so a torn
write, a lost write, or bit rot surfaces as a typed
:class:`~repro.errors.CorruptPageError` at the page boundary instead of
an arbitrary decode exception deep in an index or the codec. An all-zero
page is valid by convention: fresh allocations (and crash-recovery file
extensions) write raw zero pages without a stamp.

Slot directory entries are 4 bytes each: ``offset:u16, length:u16``. A slot
with ``offset == 0`` is a tombstone (payloads can never start at offset 0
because the header occupies it).

A page is used in one of two disciplines. *Stable-slot* pages (heaps,
the catalog) address records by slot number: :meth:`SlottedPage.insert`
/ :meth:`SlottedPage.delete` never move a live slot. *Ordered* pages
(B+tree nodes) keep the slot directory in the caller's sort order:
:meth:`SlottedPage.insert_at` / :meth:`SlottedPage.remove_at` shift the
4-byte slot entries and leave no tombstones, so slot *i* is always the
*i*-th record. Compaction preserves slot numbers, hence order, for both.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from ..errors import PageError, PageFullError

PAGE_SIZE = 4096

HEADER_SIZE = 36
_HDR = struct.Struct("<IBxxxQHHHHQ")
CHECKSUM_OFFSET = 32
_CKSUM = struct.Struct("<I")
_SLOT = struct.Struct("<HH")
SLOT_SIZE = _SLOT.size
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
# Header field offsets for the single-field accessors below (a full
# eight-field unpack per property read is measurable on index descents).
_TYPE_AT = 4
_LSN_AT = 8
_SLOT_COUNT_AT = 16
_NEXT_AT = 24

try:  # a hardware-accelerated crc32c if the platform ships one ...
    from crc32c import crc32c as _crc32c  # type: ignore
except ImportError:  # ... else zlib's crc32 (C speed, same guarantees here)
    _crc32c = None

_ZERO_PAGE = bytes(PAGE_SIZE)


def compute_checksum(buf) -> int:
    """Checksum of a page buffer with the checksum field itself excluded.

    A running CRC over two ``memoryview`` slices — no copies on a path
    that runs once per page write and once per buffer-pool admit.
    """
    mv = memoryview(buf)
    if _crc32c is not None:
        return _crc32c(mv[CHECKSUM_OFFSET + _CKSUM.size:],
                       _crc32c(mv[:CHECKSUM_OFFSET]))
    return zlib.crc32(mv[CHECKSUM_OFFSET + _CKSUM.size:],
                      zlib.crc32(mv[:CHECKSUM_OFFSET]))


def stamp_checksum(buf: bytearray) -> None:
    """Write the page checksum into its header field (before disk write)."""
    _CKSUM.pack_into(buf, CHECKSUM_OFFSET, compute_checksum(buf))


def verify_checksum(buf) -> bool:
    """Whether *buf* carries a valid checksum (or is a fresh zero page)."""
    stored = _CKSUM.unpack_from(buf, CHECKSUM_OFFSET)[0]
    if stored == compute_checksum(buf):
        return True
    return stored == 0 and bytes(buf) == _ZERO_PAGE

#: Maximum payload a single slot can hold on an empty page.
MAX_RECORD_SIZE = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE

NO_PAGE = 0  # "null" page number; page 0 is always the file header page.


class PageType:
    """On-disk page type tags."""

    FREE = 0
    FILE_HEADER = 1
    HEAP = 2
    BTREE_INTERNAL = 3
    BTREE_LEAF = 4
    HASH_BUCKET = 5      # retired: converted at open (storage.upgrade)
    HASH_DIRECTORY = 6   # retired: converted at open (storage.upgrade)
    CATALOG = 7
    OVERFLOW = 8
    TABLE_NODE = 9   # object-table root / mid page (child page numbers)
    TABLE_LEAF = 10  # object-table leaf page (fixed-width entries)


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` buffer.

    The page object does not own its buffer; the buffer pool hands out
    ``SlottedPage`` views over frames it manages. All mutating operations
    update the header in place.
    """

    __slots__ = ("buf",)

    def __init__(self, buf: bytearray):
        if len(buf) != PAGE_SIZE:
            raise PageError("page buffer must be %d bytes, got %d"
                            % (PAGE_SIZE, len(buf)))
        self.buf = buf

    # -- header accessors ---------------------------------------------------

    def _read_header(self):
        return _HDR.unpack_from(self.buf, 0)

    def _write_header(self, page_no, page_type, lsn, slot_count,
                      free_start, free_end, fragmented, next_page):
        _HDR.pack_into(self.buf, 0, page_no, page_type, lsn, slot_count,
                       free_start, free_end, fragmented, next_page)

    @property
    def page_no(self) -> int:
        return self._read_header()[0]

    @property
    def page_type(self) -> int:
        return self.buf[_TYPE_AT]

    @page_type.setter
    def page_type(self, value: int) -> None:
        self.buf[_TYPE_AT] = value

    @property
    def page_lsn(self) -> int:
        return _U64.unpack_from(self.buf, _LSN_AT)[0]

    @page_lsn.setter
    def page_lsn(self, value: int) -> None:
        _U64.pack_into(self.buf, _LSN_AT, value)

    @property
    def slot_count(self) -> int:
        return _U16.unpack_from(self.buf, _SLOT_COUNT_AT)[0]

    @property
    def next_page(self) -> int:
        return _U64.unpack_from(self.buf, _NEXT_AT)[0]

    @next_page.setter
    def next_page(self, value: int) -> None:
        _U64.pack_into(self.buf, _NEXT_AT, value)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def format(cls, buf: bytearray, page_no: int, page_type: int) -> "SlottedPage":
        """Initialise *buf* as an empty page of *page_type*."""
        buf[:] = b"\x00" * PAGE_SIZE
        page = cls(buf)
        page._write_header(page_no, page_type, 0, 0,
                           HEADER_SIZE, PAGE_SIZE, 0, NO_PAGE)
        return page

    # -- space accounting ---------------------------------------------------

    @property
    def contiguous_free(self) -> int:
        """Bytes free between the slot directory and the payload area."""
        _, _, _, _, free_start, free_end, _, _ = self._read_header()
        return free_end - free_start

    @property
    def total_free(self) -> int:
        """Contiguous free space plus fragmented (reclaimable) space."""
        return self.contiguous_free + self._read_header()[6]

    def room_for(self, length: int) -> bool:
        """Whether a record of *length* bytes fits (possibly after compaction).

        A tombstone slot may be reusable, in which case no new slot entry is
        needed; we conservatively require space for a fresh slot.
        """
        return self.total_free >= length + SLOT_SIZE

    # -- record operations ----------------------------------------------------

    def insert(self, payload: bytes) -> int:
        """Insert *payload*, returning its slot number.

        Reuses the lowest tombstone slot if one exists; compacts the page
        first when fragmentation is blocking the insert. Raises
        :class:`PageFullError` when the record genuinely does not fit.
        """
        length = len(payload)
        if length > MAX_RECORD_SIZE:
            raise PageError("record of %d bytes exceeds max %d"
                            % (length, MAX_RECORD_SIZE))
        slot = self._find_tombstone()
        need = length if slot is not None else length + SLOT_SIZE
        if self.total_free < need:
            raise PageFullError("page %d: %d bytes needed, %d free"
                                % (self.page_no, need, self.total_free))
        if self.contiguous_free < need:
            self.compact()
        (page_no, page_type, lsn, slot_count,
         free_start, free_end, fragmented, next_page) = self._read_header()
        if slot is None:
            slot = slot_count
            slot_count += 1
            free_start += SLOT_SIZE
        offset = free_end - length
        self.buf[offset:offset + length] = payload
        _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE, offset, length)
        self._write_header(page_no, page_type, lsn, slot_count,
                           free_start, offset, fragmented, next_page)
        return slot

    def read(self, slot: int) -> bytes:
        """Return the payload stored in *slot*.

        Raises :class:`PageError` for out-of-range or deleted slots.
        """
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise PageError("page %d slot %d is deleted" % (self.page_no, slot))
        return bytes(self.buf[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone *slot*, making its space reclaimable."""
        offset, length = self._slot_entry(slot)
        if offset == 0:
            raise PageError("page %d slot %d already deleted"
                            % (self.page_no, slot))
        _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE, 0, 0)
        hdr = list(self._read_header())
        hdr[6] += length  # fragmented
        self._write_header(*hdr)

    def update(self, slot: int, payload: bytes) -> None:
        """Replace the payload in *slot*.

        Updates in place when the new payload is no longer than the old one;
        otherwise deletes and reinserts into the same slot (compacting if
        required). Raises :class:`PageFullError` if the larger payload does
        not fit on this page — the caller (heap file) then relocates the
        record with a forwarding stub.
        """
        offset, old_length = self._slot_entry(slot)
        if offset == 0:
            raise PageError("page %d slot %d is deleted" % (self.page_no, slot))
        new_length = len(payload)
        if new_length <= old_length:
            self.buf[offset:offset + new_length] = payload
            _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE,
                            offset, new_length)
            if new_length < old_length:
                hdr = list(self._read_header())
                hdr[6] += old_length - new_length
                self._write_header(*hdr)
            return
        grow = new_length - old_length
        if self.total_free < grow:
            raise PageFullError(
                "page %d: update needs %d more bytes, %d free"
                % (self.page_no, grow, self.total_free))
        # Tombstone the old copy, then place the new payload.
        _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE, 0, 0)
        hdr = list(self._read_header())
        hdr[6] += old_length
        self._write_header(*hdr)
        if self.contiguous_free < new_length:
            self.compact()
        (page_no, page_type, lsn, slot_count,
         free_start, free_end, fragmented, next_page) = self._read_header()
        new_offset = free_end - new_length
        self.buf[new_offset:new_offset + new_length] = payload
        _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE,
                        new_offset, new_length)
        self._write_header(page_no, page_type, lsn, slot_count,
                           free_start, new_offset, fragmented, next_page)

    # -- ordered pages ---------------------------------------------------------

    def insert_at(self, pos: int, payload: bytes) -> None:
        """Insert *payload* as slot *pos*, shifting slots ``pos..`` up one.

        For ordered pages (no tombstones). Writes the payload, the
        shifted tail of the slot directory and the header — nothing
        else; compacts first when fragmentation is blocking the insert.
        Raises :class:`PageFullError` when the record does not fit.
        """
        length = len(payload)
        (page_no, page_type, lsn, slot_count,
         free_start, free_end, fragmented, next_page) = self._read_header()
        if not 0 <= pos <= slot_count:
            raise PageError("page %d: insert position %d out of range "
                            "(count %d)" % (page_no, pos, slot_count))
        need = length + SLOT_SIZE
        if free_end - free_start < need:
            if free_end - free_start + fragmented < need:
                raise PageFullError("page %d: %d bytes needed, %d free"
                                    % (page_no, need, self.total_free))
            self.compact()
            free_end, fragmented = self._read_header()[5:7]
        buf = self.buf
        at = HEADER_SIZE + pos * SLOT_SIZE
        if pos < slot_count:
            buf[at + SLOT_SIZE:free_start + SLOT_SIZE] = buf[at:free_start]
        offset = free_end - length
        buf[offset:free_end] = payload
        _SLOT.pack_into(buf, at, offset, length)
        self._write_header(page_no, page_type, lsn, slot_count + 1,
                           free_start + SLOT_SIZE, offset, fragmented,
                           next_page)

    def remove_at(self, pos: int) -> None:
        """Remove slot *pos*, shifting slots ``pos+1..`` down one.

        For ordered pages: no tombstone is left. The payload's bytes
        become fragmentation (reclaimed at once when it is the lowest
        payload on the page).
        """
        (page_no, page_type, lsn, slot_count,
         free_start, free_end, fragmented, next_page) = self._read_header()
        if not 0 <= pos < slot_count:
            raise PageError("page %d has no slot %d (count %d)"
                            % (page_no, pos, slot_count))
        buf = self.buf
        at = HEADER_SIZE + pos * SLOT_SIZE
        offset, length = _SLOT.unpack_from(buf, at)
        buf[at:free_start - SLOT_SIZE] = buf[at + SLOT_SIZE:free_start]
        if offset == free_end:
            free_end += length
        else:
            fragmented += length
        self._write_header(page_no, page_type, lsn, slot_count - 1,
                           free_start - SLOT_SIZE, free_end, fragmented,
                           next_page)

    def copy_from(self, other: "SlottedPage") -> None:
        """Become a copy of *other* — type, records, slot order and chain
        pointer — keeping this page's own number and LSN."""
        self.buf[_TYPE_AT] = other.buf[_TYPE_AT]
        self.buf[_SLOT_COUNT_AT:] = other.buf[_SLOT_COUNT_AT:]

    def live_entries(self, start: int = 0) -> List[Tuple[int, int, int]]:
        """``(slot, offset, length)`` of every live slot from *start* on.

        One header parse and one pass over the slot directory, however
        many slots the page holds.
        """
        lo = HEADER_SIZE + start * SLOT_SIZE
        hi = HEADER_SIZE + self.slot_count * SLOT_SIZE
        return [(slot, offset, length)
                for slot, (offset, length)
                in enumerate(_SLOT.iter_unpack(self.buf[lo:hi]), start)
                if offset]

    def slots(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, payload)`` for every live slot, in slot order."""
        for slot, offset, length in self.live_entries():
            yield slot, bytes(self.buf[offset:offset + length])

    def live_count(self) -> int:
        """Number of non-tombstone slots."""
        return sum(1 for _ in self.slots())

    def compact(self) -> None:
        """Slide live payloads to the end of the page, erasing fragmentation.

        Slot numbers are preserved (record ids remain valid).
        """
        (page_no, page_type, lsn, slot_count,
         free_start, _free_end, _fragmented, next_page) = self._read_header()
        records: List[Tuple[int, bytes]] = []
        for slot in range(slot_count):
            offset, length = self._slot_entry(slot)
            if offset != 0:
                records.append((slot, bytes(self.buf[offset:offset + length])))
        write_end = PAGE_SIZE
        # Rewrite highest-offset first is unnecessary since we buffered copies.
        for slot, payload in records:
            write_end -= len(payload)
            self.buf[write_end:write_end + len(payload)] = payload
            _SLOT.pack_into(self.buf, HEADER_SIZE + slot * SLOT_SIZE,
                            write_end, len(payload))
        self._write_header(page_no, page_type, lsn, slot_count,
                           free_start, write_end, 0, next_page)

    # -- internals ------------------------------------------------------------

    def _slot_entry(self, slot: int) -> Tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise PageError("page %d has no slot %d (count %d)"
                            % (self.page_no, slot, self.slot_count))
        return _SLOT.unpack_from(self.buf, HEADER_SIZE + slot * SLOT_SIZE)

    def _find_tombstone(self) -> Optional[int]:
        for slot in range(self.slot_count):
            offset, _ = _SLOT.unpack_from(self.buf, HEADER_SIZE + slot * SLOT_SIZE)
            if offset == 0:
                return slot
        return None

    def __repr__(self) -> str:
        return ("SlottedPage(no=%d, type=%d, slots=%d, free=%d)"
                % (self.page_no, self.page_type, self.slot_count,
                   self.total_free))

"""Page file — a flat file of fixed-size pages with a free list.

The page file is the lowest layer of the storage engine: it knows how to
read and write whole pages at page-aligned offsets, how to grow the file,
and how to recycle freed pages. It knows nothing about page contents beyond
the shared header.

Page 0 is the *file header page* and is never handed out. It stores::

    magic           8 bytes   b"ODEREPRO"
    format_version  u32
    page_count      u64       pages allocated (including page 0)
    free_head       u64       head of the freed-page chain (NO_PAGE if empty)
    bootstrap       dict      named root pointers (catalog roots etc.)

The bootstrap dict maps names to integers and lets higher layers find their
root pages after reopening the file; it is small and codec-encoded in the
header page payload area.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Optional

from ..errors import PageError, StorageError, TransientIOError
from .codec import decode_value, encode_value
from .page import NO_PAGE, PAGE_SIZE, PageType, stamp_checksum

_MAGIC = b"ODEREPRO"
# v2: page headers grew a crc32c checksum field (see repro.storage.page).
# v3: cluster object directories are serial-indexed tables
#     (repro.storage.objtable), no longer extendible hashes.
# v4: a B+tree node is an ordered slotted page, one record per entry
#     (repro.storage.btree).
# v5: an object's version head carries its current state; a
#     ``(serial, v)`` record exists only for a non-current version
#     (repro.core.database).
# v6: an object record is a fixed header plus the field values of one of
#     its cluster's layouts, which the catalog keeps
#     (repro.storage.records).
# An older file opens as is and keeps its stamp until the store has
# converted every retired structure in it (repro.storage.upgrade), which
# then stamps 6 — so an older binary refuses a file that holds
# structures it cannot read.
_FORMAT_VERSION = 6
_READABLE_VERSIONS = (2, 3, 4, 5, 6)
_FILE_HDR = struct.Struct("<8sIxxxxQQ")

#: Test hook: True skips checksum stamping on write — an intentionally
#: broken build the crash harness must catch (and does). Read when a
#: page file opens.
SKIP_CHECKSUM = False


class PageFile:
    """Fixed-size-page file with allocation, free list, and named roots."""

    def __init__(self, path: str, create: Optional[bool] = None,
                 faults=None):
        """Open (or create) the page file at *path*.

        ``create=None`` (default) creates the file if it does not exist.
        ``create=True`` requires creating a fresh file; ``create=False``
        requires an existing one. *faults* is an optional
        :class:`~repro.storage.faults.FaultInjector` shared with the rest
        of the store.
        """
        self.path = path
        self._faults = faults
        self._stamp = not SKIP_CHECKSUM
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if create is True and exists:
            raise StorageError("page file already exists: %s" % path)
        if create is False and not exists:
            raise StorageError("page file does not exist: %s" % path)
        mode = "r+b" if exists else "w+b"
        self._file = open(path, mode)
        self._closed = False
        #: The version stamped in the file header.
        self.format_version = _FORMAT_VERSION
        if exists:
            self._load_header()
        else:
            self._page_count = 1
            self._free_head = NO_PAGE
            self._bootstrap: Dict[str, int] = {}
            self._write_header()
            self.sync()

    # -- header ---------------------------------------------------------------

    def _load_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(PAGE_SIZE)
        if len(raw) < PAGE_SIZE:
            raise StorageError("page file %s: truncated header page" % self.path)
        magic, version, page_count, free_head = _FILE_HDR.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise StorageError("page file %s: bad magic %r" % (self.path, magic))
        if version not in _READABLE_VERSIONS:
            raise StorageError("page file %s: unsupported format version %d"
                               % (self.path, version))
        self.format_version = version
        self._page_count = page_count
        self._free_head = free_head
        payload_len = struct.unpack_from("<I", raw, _FILE_HDR.size)[0]
        start = _FILE_HDR.size + 4
        self._bootstrap = decode_value(raw[start:start + payload_len])

    def _write_header(self) -> None:
        buf = bytearray(PAGE_SIZE)
        _FILE_HDR.pack_into(buf, 0, _MAGIC, self.format_version,
                            self._page_count, self._free_head)
        payload = encode_value(self._bootstrap)
        if _FILE_HDR.size + 4 + len(payload) > PAGE_SIZE:
            raise StorageError("bootstrap dict too large for header page")
        struct.pack_into("<I", buf, _FILE_HDR.size, len(payload))
        buf[_FILE_HDR.size + 4:_FILE_HDR.size + 4 + len(payload)] = payload
        self._file.seek(0)
        self._file.write(buf)

    def stamp_current_format(self) -> None:
        """Mark the file as holding only current-format structures."""
        if self.format_version != _FORMAT_VERSION:
            self.format_version = _FORMAT_VERSION
            self._write_header()
            self.sync()

    # -- named root pointers ----------------------------------------------------

    def get_root(self, name: str, default: int = NO_PAGE) -> int:
        """Look up a named root pointer recorded in the file header."""
        return self._bootstrap.get(name, default)

    def set_root(self, name: str, page_no: int) -> None:
        """Record a named root pointer; flushed with the header."""
        self._bootstrap[name] = page_no
        self._write_header()

    # -- page I/O -----------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return self._page_count

    def read_page(self, page_no: int, buf: bytearray) -> None:
        """Read page *page_no* into *buf* (must be PAGE_SIZE bytes).

        OS-level read failures (``EIO``) surface as
        :class:`~repro.errors.TransientIOError` — they may succeed on
        retry and ``db.run_transaction`` treats them that way.
        """
        self._check_page_no(page_no)
        f = self._faults
        try:
            if f is not None and f.enabled:
                f.fire("pagefile.read.pre", page_no=page_no)
            self._file.seek(page_no * PAGE_SIZE)
            raw = self._file.read(PAGE_SIZE)
        except OSError as exc:
            raise TransientIOError("read of page %d in %s failed: %s"
                                   % (page_no, self.path, exc)) from exc
        if f is not None and f.enabled \
                and f.fire("pagefile.read.short", page_no=page_no):
            raw = raw[:len(raw) // 2]
        if len(raw) != PAGE_SIZE:
            raise TransientIOError("short read of page %d in %s (%d bytes)"
                                   % (page_no, self.path, len(raw)))
        buf[:] = raw

    def write_page(self, page_no: int, buf) -> None:
        """Write *buf* (PAGE_SIZE bytes) to page *page_no*.

        The page checksum is stamped here — every page that reaches disk
        through this method carries one (raw zero fills elsewhere are
        valid unstamped by convention).
        """
        self._check_page_no(page_no)
        if len(buf) != PAGE_SIZE:
            raise PageError("page buffer must be %d bytes" % PAGE_SIZE)
        if self._stamp:
            if not isinstance(buf, bytearray):
                buf = bytearray(buf)
            stamp_checksum(buf)
        f = self._faults
        if f is not None and f.enabled:
            f.fire("pagefile.write.pre", page_no=page_no)
            if f.fire("pagefile.write.lost", page_no=page_no):
                return  # the write vanishes; the caller believes it landed
            torn = f.fire("pagefile.write.torn", page_no=page_no)
            if torn is not None:
                keep = (torn.param if torn.param is not None
                        else f.rng.randrange(1, PAGE_SIZE))
                self._file.seek(page_no * PAGE_SIZE)
                self._file.write(bytes(buf[:keep]))
                self._file.flush()
                f.die()  # a torn write is only observable across a crash
        self._file.seek(page_no * PAGE_SIZE)
        self._file.write(buf)
        if f is not None and f.enabled:
            f.fire("pagefile.write.post", page_no=page_no)

    def allocate_page(self) -> int:
        """Return a fresh page number, recycling freed pages first.

        The returned page's on-disk contents are unspecified; callers must
        format it before use.
        """
        if self._free_head != NO_PAGE:
            page_no = self._free_head
            buf = bytearray(PAGE_SIZE)
            self.read_page(page_no, buf)
            # next pointer of a freed page lives in the shared page header.
            self._free_head = struct.unpack_from("<Q", buf, 24)[0]
            self._write_header()
            return page_no
        page_no = self._page_count
        self._page_count += 1
        self._file.seek(page_no * PAGE_SIZE)
        self._file.write(b"\x00" * PAGE_SIZE)
        self._write_header()
        return page_no

    @property
    def has_free_pages(self) -> bool:
        """Whether the freed-page chain is non-empty."""
        return self._free_head != NO_PAGE

    def allocate_extent(self, count: int) -> list:
        """Allocate *count* physically contiguous pages at end-of-file.

        Extents deliberately bypass the free list: recycled pages are
        scattered, and the whole point of an extent is that a sequential
        scan over it turns into one large read. Returned pages are
        unformatted, like :meth:`allocate_page`.
        """
        if count < 1:
            raise PageError("extent size must be >= 1")
        start = self._page_count
        self._page_count += count
        self._file.seek(start * PAGE_SIZE)
        self._file.write(b"\x00" * (PAGE_SIZE * count))
        self._write_header()
        return list(range(start, start + count))

    def read_span(self, page_no: int, count: int) -> bytes:
        """Read up to *count* consecutive pages in one I/O.

        The span is clamped to the end of the file; the result's length
        tells the caller how many pages actually came back. Used by the
        buffer pool's readahead.
        """
        self._check_page_no(page_no)
        end = min(page_no + count, self._page_count)
        self._file.seek(page_no * PAGE_SIZE)
        return self._file.read((end - page_no) * PAGE_SIZE)

    def ensure_allocated(self, page_no: int) -> None:
        """Extend the file so *page_no* is addressable (crash recovery).

        A crash can leave the fsynced WAL ahead of the page file: a page
        was allocated and its edits logged, but the buffered file
        extension never reached disk. Redo rebuilds such pages from
        after-images; this makes them readable first. Zero fill is fine —
        every record since the page's birth is still in the log (the log
        only truncates at quiescent checkpoints, which flush all pages).
        """
        if page_no < self._page_count:
            return
        self._file.seek(self._page_count * PAGE_SIZE)
        self._file.write(b"\x00" * (PAGE_SIZE * (page_no + 1 - self._page_count)))
        self._page_count = page_no + 1
        self._write_header()

    def free_page(self, page_no: int, lsn: int) -> None:
        """Return *page_no* to the free list.

        The free-list link lives in the freed page itself. *lsn* (the
        log's end when the page is freed) is stamped as the page LSN, so
        crash recovery's redo — which applies a record only to a page
        older than it — cannot replay the page's earlier life over the
        link.
        """
        self._check_page_no(page_no)
        buf = bytearray(PAGE_SIZE)
        struct.pack_into("<I", buf, 0, page_no)
        buf[4] = PageType.FREE
        struct.pack_into("<Q", buf, 8, lsn)
        struct.pack_into("<Q", buf, 24, self._free_head)
        self.write_page(page_no, buf)
        self._free_head = page_no
        self._write_header()

    def sync(self) -> None:
        """Flush OS buffers to stable storage (fsync)."""
        f = self._faults
        if f is not None and f.enabled:
            f.fire("pagefile.sync.pre")
            if f.fire("pagefile.sync.lie"):
                return  # claimed durable, actually still in the OS cache
        self._file.flush()
        os.fsync(self._file.fileno())
        if f is not None and f.enabled:
            f.fire("pagefile.sync.post")

    def close(self) -> None:
        if not self._closed:
            self._write_header()
            self._file.flush()
            self._file.close()
            self._closed = True

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_page_no(self, page_no: int) -> None:
        if self._closed:
            raise StorageError("page file %s is closed" % self.path)
        if not 1 <= page_no < self._page_count:
            raise PageError("page %d out of range [1, %d) in %s"
                            % (page_no, self._page_count, self.path))

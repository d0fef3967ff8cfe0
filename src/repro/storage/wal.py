"""Write-ahead log.

The engine logs in the ARIES style — page-oriented redo, logical undo.
Every record that changes a page carries its *redo ranges*: the page
number and ``(offset, after-image)`` pairs for exactly the bytes the
change wrote (the page primitive reports them; see
:mod:`repro.storage.page`). What it carries for *undo* depends on the
record:

* an **OP** record is one slot operation — a heap insert, delete or
  update, a B+tree entry insert or delete, or an object-table entry
  insert or delete (its ``op`` field says which; the kinds are
  ``journal.OP_*``) — and names its inverse (the slot, the old payload,
  the tree or table and the entry) instead of before-images, so undo
  applies that inverse where the record is *now*
  (:mod:`repro.storage.journal`);
* an **UPDATE** record is a physical byte range with its before-image:
  one range of a structure change inside a nested top action (a split,
  a detach);
* a **CLR** (compensation log record) is redo-only: undo writes one per
  step, structure growth that must outlive an abort is logged as one,
  and a range-less CLR closes a nested top action. Its ``undo_next``
  says where a backward undo walk continues.

Log file format: a 16-byte header (magic + a u64 *LSN base*) followed by a
sequence of length-prefixed, CRC-protected records::

    u32 payload_length | u32 crc32(payload) | payload

The payload of the standard record types is struct-packed (a type code,
txn, prev_lsn, then type-specific fields) — log appends sit on the commit
path of every transaction, where the generic codec's per-field tagging is
measurable overhead. Records of any other shape fall back to a
codec-encoded dict behind a zero type code, so the log remains a generic
dict journal at the API level. An LSN is the base plus the byte
offset of the record within the log — strictly increasing and directly
seekable. The base advances every time the log is truncated (at quiescent
checkpoints), so LSNs are monotone for the lifetime of the database; this
is essential for redo, which compares page LSNs against record LSNs and
would otherwise skip committed work after a checkpoint reset the offsets.
A torn tail (short read or CRC mismatch) terminates the scan silently,
which is exactly the crash-atomicity the WAL needs.

**Durability modes.** Committing durably costs one fsync; at high commit
rates the fsync *is* the bottleneck. The log therefore supports three
modes (the ``durability=`` knob threaded down from
:class:`~repro.core.database.Database`):

``"full"`` (default)
    fsync on every commit — a committed transaction survives any crash.

``"group"``
    Group commit: commit records are appended immediately (so ordering
    and atomicity are unchanged) but the fsync is deferred until either
    :data:`GROUP_SIZE` commits are pending or :data:`GROUP_WINDOW`
    seconds have passed since the first pending commit — one fsync pays
    for the whole batch. A crash may lose the last window's commits
    (they disappear atomically; recovery sees no COMMIT record), never
    corrupt anything. Reads are unaffected: pages are in memory.

``"none"``
    No fsync at commit at all; only checkpoints/page-writeback flush.
    For bulk loads and tests.

The WAL rule is enforced in every mode: before a dirty page reaches disk
the log is flushed past that page's LSN, so redo/undo information is
always durable first.

Record types and their fields (beyond ``type``, ``txn``, ``prev_lsn``):

=========== ==============================================================
BEGIN       --
OP          page_no, op, pos, ranges, undo (the inverse's arguments)
UPDATE      page_no, offset, before, after, ranges (= [(offset, after)])
COMMIT      --
ABORT       --
END         -- (transaction fully undone / fully committed)
CLR         page_no, ranges, undo_next (LSN to continue undo from)
CHECKPOINT  active (dict txn -> last_lsn at checkpoint time)
=========== ==============================================================

``ranges`` is a list of ``(offset, after-image)``; redo writes each. A
CLR of the single-range layout older logs carry (type code 6) reads as
one with a one-element ``ranges``.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from typing import Dict, Iterator, Optional, Tuple

from ..errors import WalError, WalFlushError
from .codec import decode_value, encode_value

_REC_HDR = struct.Struct("<II")
_FILE_HDR = struct.Struct("<8sQ")
_WAL_MAGIC = b"ODEWAL01"

NULL_LSN = -1


class _FsyncLied(Exception):
    """Internal control flow for the ``wal.flush.lie`` failpoint."""

#: The recognised durability modes (see the module docs).
DURABILITY_MODES = ("full", "group", "none")

#: Group commit: flush after this many pending commits ...
GROUP_SIZE = 64
#: ... or once this many seconds have passed since the first pending
#: commit, whichever comes first. The window bounds how stale the log can
#: be, not how long a commit waits (commits never block on it) — so it is
#: sized like a checkpoint interval, generously enough that the size
#: threshold does the batching under load.
GROUP_WINDOW = 0.05


class LogRecordType:
    BEGIN = "begin"
    UPDATE = "update"
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"
    CLR = "clr"
    CHECKPOINT = "checkpoint"
    OP = "op"


# -- record payload packing ----------------------------------------------------
#
# Code 0 is the escape hatch: the whole record codec-encoded as a dict.

_TYPE_CODE = {
    LogRecordType.BEGIN: 1,
    LogRecordType.UPDATE: 2,
    LogRecordType.COMMIT: 3,
    LogRecordType.ABORT: 4,
    LogRecordType.END: 5,
    LogRecordType.CHECKPOINT: 7,
    LogRecordType.OP: 8,
    LogRecordType.CLR: 9,
}
_CODE_TYPE = {code: rtype for rtype, code in _TYPE_CODE.items()}
#: The single-range CLR layout of older logs: read, never written.
_CODE_CLR_V1 = 6
_CODE_TYPE[_CODE_CLR_V1] = LogRecordType.CLR

_COMMON = struct.Struct("<Bqq")       # type code, txn, prev_lsn
_UPDATE_EXT = struct.Struct("<IHH")   # page_no, offset, len(before)
_CLR_V1_EXT = struct.Struct("<IHq")   # page_no, offset, undo_next
_OP_EXT = struct.Struct("<IBHBH")     # page_no, op, pos, n ranges, len(undo)
_OP_HEAD = struct.Struct("<BqqIBHBH")  # _COMMON + _OP_EXT, packed at once
_CLR_EXT = struct.Struct("<IqB")      # page_no, undo_next, n ranges
_RANGE = struct.Struct("<HH")         # offset, length

_CODE_UPDATE = _TYPE_CODE[LogRecordType.UPDATE]
_CODE_OP = _TYPE_CODE[LogRecordType.OP]
_CODE_CLR = _TYPE_CODE[LogRecordType.CLR]
_CODE_CHECKPOINT = _TYPE_CODE[LogRecordType.CHECKPOINT]


def _pack_update(txn: int, prev_lsn: int, page_no: int, offset: int,
                 before: bytes, after: bytes) -> bytes:
    return b"".join((_COMMON.pack(_CODE_UPDATE, txn, prev_lsn),
                     _UPDATE_EXT.pack(page_no, offset, len(before)),
                     before, after))


def _pack_ranges(parts: list, ranges) -> None:
    """Append the range table, then the images, to *parts*."""
    pack = _RANGE.pack
    parts.extend([pack(offset, len(image)) for offset, image in ranges])
    parts.extend([image for _offset, image in ranges])


def _pack_op(txn: int, prev_lsn: int, page_no: int, op: int, pos: int,
             ranges, undo: bytes) -> bytes:
    parts = [_OP_HEAD.pack(_CODE_OP, txn, prev_lsn, page_no, op, pos,
                           len(ranges), len(undo))]
    _pack_ranges(parts, ranges)
    parts.append(undo)
    return b"".join(parts)


def _pack_clr(txn: int, prev_lsn: int, page_no: int, ranges,
              undo_next: int) -> bytes:
    parts = [_COMMON.pack(_CODE_CLR, txn, prev_lsn),
             _CLR_EXT.pack(page_no, undo_next, len(ranges))]
    _pack_ranges(parts, ranges)
    return b"".join(parts)


def _unpack_ranges(payload: bytes, off: int, count: int):
    """``(ranges, offset past the images)`` of a range table at *off*."""
    table = [_RANGE.unpack_from(payload, off + i * _RANGE.size)
             for i in range(count)]
    at = off + count * _RANGE.size
    ranges = []
    for offset, length in table:
        ranges.append((offset, payload[at:at + length]))
        at += length
    return ranges, at


def _pack_payload(record: Dict) -> bytes:
    code = _TYPE_CODE.get(record.get("type"))
    if code is None:
        return b"\x00" + encode_value(record)
    if code == _CODE_UPDATE:
        return _pack_update(record["txn"], record["prev_lsn"],
                            record["page_no"], record["offset"],
                            record["before"], record["after"])
    if code == _CODE_OP:
        return _pack_op(record["txn"], record["prev_lsn"],
                        record["page_no"], record["op"], record["pos"],
                        record["ranges"], record["undo"])
    if code == _CODE_CLR:
        return _pack_clr(record["txn"], record["prev_lsn"],
                         record["page_no"], record["ranges"],
                         record["undo_next"])
    head = _COMMON.pack(code, record["txn"], record["prev_lsn"])
    if code == _CODE_CHECKPOINT:
        return head + encode_value(record["active"])
    return head


def _unpack_payload(payload: bytes) -> Dict:
    if payload[0] == 0:
        return decode_value(payload[1:])
    code, txn, prev_lsn = _COMMON.unpack_from(payload, 0)
    record = {"type": _CODE_TYPE[code], "txn": txn, "prev_lsn": prev_lsn}
    off = _COMMON.size
    if code == _CODE_OP:
        page_no, op, pos, count, ulen = _OP_EXT.unpack_from(payload, off)
        ranges, at = _unpack_ranges(payload, off + _OP_EXT.size, count)
        record["page_no"] = page_no
        record["op"] = op
        record["pos"] = pos
        record["ranges"] = ranges
        record["undo"] = payload[at:at + ulen]
    elif code == _CODE_UPDATE:
        page_no, offset, blen = _UPDATE_EXT.unpack_from(payload, off)
        off += _UPDATE_EXT.size
        record["page_no"] = page_no
        record["offset"] = offset
        record["before"] = payload[off:off + blen]
        record["after"] = payload[off + blen:]
        record["ranges"] = [(offset, record["after"])]
    elif code == _CODE_CLR:
        page_no, undo_next, count = _CLR_EXT.unpack_from(payload, off)
        record["page_no"] = page_no
        record["undo_next"] = undo_next
        record["ranges"] = _unpack_ranges(payload, off + _CLR_EXT.size,
                                          count)[0]
    elif code == _CODE_CLR_V1:
        page_no, offset, undo_next = _CLR_V1_EXT.unpack_from(payload, off)
        record["page_no"] = page_no
        record["undo_next"] = undo_next
        record["ranges"] = [(offset, payload[off + _CLR_V1_EXT.size:])]
    elif code == _CODE_CHECKPOINT:
        record["active"] = decode_value(payload[off:])
    return record


class WriteAheadLog:
    """Append-only log with CRC-framed records addressed by byte-offset LSN."""

    def __init__(self, path: str, durability: str = "full",
                 group_size: int = GROUP_SIZE,
                 group_window: float = GROUP_WINDOW, faults=None):
        self.path = path
        self._faults = faults
        #: Internal mutex: one log is shared by every shard, and appends /
        #: flushes / random-access reads arrive from threads holding
        #: *different* shard latches (the WAL is the innermost lock in the
        #: storage order — nothing is acquired while holding it). Reentrant
        #: because ``log_commit`` composes ``append`` + ``flush``.
        self._lock = threading.RLock()
        #: The exception of the first failed fsync, or None. Sticky: a
        #: failed log refuses all further appends/flushes (see
        #: :class:`~repro.errors.WalFlushError`). Reads keep working.
        self.failed = None
        #: Where the last full scan stopped short of the valid end
        #: (LSN), and why: ``"torn_tail"`` (a crash mid-append — normal)
        #: or ``"mid_log_corruption"`` (valid records exist beyond the
        #: bad one — the log itself was damaged).
        self.scan_stop = None
        self.scan_stop_kind = None
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._file = open(path, "r+b" if exists else "w+b")
        if exists:
            header = self._file.read(_FILE_HDR.size)
            if len(header) < _FILE_HDR.size:
                raise WalError("log %s: truncated header" % path)
            magic, base = _FILE_HDR.unpack(header)
            if magic != _WAL_MAGIC:
                raise WalError("log %s: bad magic %r" % (path, magic))
            self._base = base
        else:
            self._base = 0
            self._write_header()
        self._file.seek(0, os.SEEK_END)
        self._end = self._base + self._file.tell() - _FILE_HDR.size
        self._flushed = self._end if exists else self._base
        self._closed = False
        self._pending_commits = 0
        self._first_pending = 0.0
        # statistics
        self.appends = 0
        self.syncs = 0
        self.flush_calls = 0
        self.group_deferrals = 0
        # observability hooks (attach_observability wires the real ones)
        self._obs_hist = None
        self._obs_events = None
        self.set_durability(durability, group_size, group_window)

    #: flush-batch-size histogram buckets (commits per fsync)
    FLUSH_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

    def attach_observability(self, metrics, events) -> None:
        """Register this log's counters with a metrics registry and start
        emitting group-commit flush events. Keeps the constructor free of
        observability dependencies for standalone unit tests."""
        metrics.counter_fn("wal.appends", lambda: self.appends)
        metrics.counter_fn("wal.syncs", lambda: self.syncs)
        metrics.counter_fn("wal.flush_calls", lambda: self.flush_calls)
        metrics.counter_fn("wal.group_deferrals",
                           lambda: self.group_deferrals)
        metrics.gauge_fn("wal.durability", lambda: self.durability)
        metrics.gauge_fn("wal.end_lsn", lambda: self._end)
        self._obs_hist = metrics.histogram("wal.flush_batch_size",
                                           self.FLUSH_BATCH_BUCKETS)
        self._obs_events = events

    def set_durability(self, mode: str, group_size: Optional[int] = None,
                       group_window: Optional[float] = None) -> None:
        """Switch the commit durability mode (see module docs).

        Tightening the mode (e.g. ``group`` -> ``full``) flushes pending
        commits first so nothing already committed is left vulnerable.
        """
        if mode not in DURABILITY_MODES:
            raise WalError("unknown durability mode %r (expected one of %s)"
                           % (mode, ", ".join(DURABILITY_MODES)))
        if group_size is not None:
            self._group_size = group_size
        if group_window is not None:
            self._group_window = group_window
        self.durability = mode
        if mode == "full" and not self._closed \
                and getattr(self, "_pending_commits", 0):
            self.flush()

    def _write_header(self) -> None:
        self._file.seek(0)
        self._file.write(_FILE_HDR.pack(_WAL_MAGIC, self._base))

    @property
    def base_lsn(self) -> int:
        """LSN of the oldest record still in the log file."""
        return self._base

    # -- append side ------------------------------------------------------------

    def append(self, record: Dict) -> int:
        """Append *record* (a dict) and return its LSN. Does not fsync."""
        return self._append(_pack_payload(record), record.get("type"))

    def _append(self, payload: bytes, rtype) -> int:
        with self._lock:
            if self._closed:
                raise WalError("log %s is closed" % self.path)
            if self.failed is not None:
                raise WalFlushError(
                    "log %s failed earlier and accepts no "
                    "more records: %s" % (self.path, self.failed))
            f = self._faults
            if f is not None and f.enabled:
                f.fire("wal.append.pre", rtype=rtype)
            lsn = self._end
            self._file.seek(self._end - self._base + _FILE_HDR.size)
            self._file.write(
                _REC_HDR.pack(len(payload), zlib.crc32(payload)) + payload)
            self._end += _REC_HDR.size + len(payload)
            self.appends += 1
            if f is not None and f.enabled:
                f.fire("wal.append.post", rtype=rtype)
            return lsn

    def log_begin(self, txn: int) -> int:
        return self.append({"type": LogRecordType.BEGIN, "txn": txn,
                            "prev_lsn": NULL_LSN})

    def log_op(self, txn: int, prev_lsn: int, page_no: int, op: int,
               pos: int, ranges, undo: bytes) -> int:
        # Not through a record dict: every slot operation logs one.
        return self._append(
            _pack_op(txn, prev_lsn, page_no, op, pos, ranges, undo),
            LogRecordType.OP)

    def log_update(self, txn: int, prev_lsn: int, page_no: int, offset: int,
                   before: bytes, after: bytes) -> int:
        return self._append(
            _pack_update(txn, prev_lsn, page_no, offset, before, after),
            LogRecordType.UPDATE)

    def log_commit(self, txn: int, prev_lsn: int) -> int:
        with self._lock:
            return self._log_commit_locked(txn, prev_lsn)

    def _log_commit_locked(self, txn: int, prev_lsn: int) -> int:
        lsn = self.append({"type": LogRecordType.COMMIT, "txn": txn,
                           "prev_lsn": prev_lsn})
        if self.durability == "full":
            self._pending_commits += 1
            self.flush()
        elif self.durability == "group":
            now = time.monotonic()
            if self._pending_commits == 0:
                self._first_pending = now
            self._pending_commits += 1
            if (self._pending_commits >= self._group_size
                    or now - self._first_pending >= self._group_window):
                self.flush()
            else:
                self.group_deferrals += 1
        # "none": the checkpoint / page write-back flushes catch up.
        return lsn

    def log_abort(self, txn: int, prev_lsn: int) -> int:
        return self.append({"type": LogRecordType.ABORT, "txn": txn,
                            "prev_lsn": prev_lsn})

    def log_end(self, txn: int, prev_lsn: int) -> int:
        return self.append({"type": LogRecordType.END, "txn": txn,
                            "prev_lsn": prev_lsn})

    def log_clr(self, txn: int, prev_lsn: int, page_no: int, ranges,
                undo_next: int) -> int:
        return self._append(
            _pack_clr(txn, prev_lsn, page_no, ranges, undo_next),
            LogRecordType.CLR)

    def log_checkpoint(self, active: Dict[int, int]) -> int:
        lsn = self.append({"type": LogRecordType.CHECKPOINT,
                           "txn": -1, "prev_lsn": NULL_LSN,
                           "active": dict(active)})
        self.flush()
        return lsn

    def flush(self, up_to_lsn: Optional[int] = None) -> None:
        """fsync the log, at least up to *up_to_lsn* (whole tail by default).

        The buffer pool calls this with a page's LSN before writing the page
        (the WAL rule); the transaction manager calls it at commit.
        """
        with self._lock:
            self._flush_locked(up_to_lsn)

    def _flush_locked(self, up_to_lsn: Optional[int] = None) -> None:
        if self._closed:
            raise WalError("log %s is closed" % self.path)
        if self.failed is not None:
            raise WalFlushError("log %s failed earlier: %s"
                                % (self.path, self.failed))
        self.flush_calls += 1
        # ``_flushed`` is the end of the durable prefix, i.e. where the
        # first non-durable record starts: a record *at* it is not flushed.
        if up_to_lsn is not None and up_to_lsn < self._flushed:
            return
        batch = self._pending_commits
        f = self._faults
        try:
            if f is not None and f.enabled:
                f.fire("wal.flush.pre", end_lsn=self._end)
                f.fire("wal.flush.fsync", end_lsn=self._end)
                if f.fire("wal.flush.lie", end_lsn=self._end):
                    # fsync claimed success without persisting anything;
                    # fall through to the success bookkeeping below.
                    raise _FsyncLied
            self._file.flush()
            os.fsync(self._file.fileno())
        except _FsyncLied:
            pass
        except OSError as exc:
            # Sticky: never retry an fsync that reported failure — the
            # kernel may have dropped the dirty pages, so a "successful"
            # retry would silently lose the very records that failed.
            self.failed = exc
            self._pending_commits = 0
            if self._obs_events is not None:
                self._obs_events.emit("wal_flush_failed", error=str(exc),
                                      end_lsn=self._end,
                                      pending_commits=batch)
            raise WalFlushError(
                "fsync of log %s failed (%d commit(s) in the batch are "
                "not durable): %s" % (self.path, batch, exc)) from exc
        self._flushed = self._end
        self._pending_commits = 0
        self.syncs += 1
        if f is not None and f.enabled:
            f.fire("wal.flush.post", end_lsn=self._end)
        if batch:
            if self._obs_hist is not None:
                self._obs_hist.observe(batch)
            if self._obs_events is not None and batch > 1:
                self._obs_events.emit("group_commit_flush", commits=batch,
                                      end_lsn=self._end,
                                      durability=self.durability)

    # -- read side ------------------------------------------------------------

    def read_record(self, lsn: int) -> Dict:
        """Random-access read of the record at *lsn*."""
        record = self._read_at(lsn)
        if record is None:
            raise WalError("no valid log record at LSN %d" % lsn)
        return record[0]

    def records(self, start_lsn: Optional[int] = None) -> Iterator[Tuple[int, Dict]]:
        """Yield ``(lsn, record)`` from *start_lsn* (default: the oldest
        retained record) until the valid tail ends.

        A scan that stops before :attr:`end_lsn` records where and *why*
        in :attr:`scan_stop` / :attr:`scan_stop_kind`: a torn tail (the
        crash-atomicity the WAL relies on — nothing after the tear) is
        distinguished from mid-log corruption (valid records exist beyond
        the bad one) by probing forward for an intact framed record, and
        a ``wal.scan.stopped_early`` event is emitted.
        """
        lsn = self._base if start_lsn is None else max(start_lsn, self._base)
        while True:
            result = self._read_at(lsn)
            if result is None:
                if lsn < self._end:
                    self._note_scan_stop(lsn)
                return
            record, next_lsn = result
            yield lsn, record
            lsn = next_lsn

    #: How far past a bad record to probe for a valid one when deciding
    #: torn-tail vs mid-log corruption.
    PROBE_WINDOW = 65536

    def _note_scan_stop(self, lsn: int) -> None:
        if self.scan_stop == lsn:
            return  # analysis and redo both scan; report once per offset
        self.scan_stop = lsn
        self.scan_stop_kind = self._classify_tail(lsn)
        if self._obs_events is not None:
            self._obs_events.emit("wal.scan.stopped_early",
                                  offset=lsn - self._base, lsn=lsn,
                                  classification=self.scan_stop_kind,
                                  end_lsn=self._end)

    def _classify_tail(self, stop_lsn: int) -> str:
        limit = min(self._end, stop_lsn + self.PROBE_WINDOW)
        probe = stop_lsn + 1
        while probe < limit:
            if self._read_at(probe) is not None:
                return "mid_log_corruption"
            probe += 1
        return "torn_tail"

    def _read_at(self, lsn: int) -> Optional[Tuple[Dict, int]]:
        with self._lock:
            return self._read_at_locked(lsn)

    def _read_at_locked(self, lsn: int) -> Optional[Tuple[Dict, int]]:
        if lsn < self._base or lsn >= self._end:
            return None
        self._file.seek(lsn - self._base + _FILE_HDR.size)
        header = self._file.read(_REC_HDR.size)
        if len(header) < _REC_HDR.size:
            return None
        length, crc = _REC_HDR.unpack(header)
        if length == 0 or length > self._end - lsn - _REC_HDR.size:
            # Records are never empty; a run of zero bytes would otherwise
            # frame as length=0 crc=0 (crc32 of b"" is 0) when the
            # classifier probes misaligned offsets.
            return None
        payload = self._file.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None  # torn tail
        try:
            record = _unpack_payload(payload)
        except Exception:
            # A CRC collision on garbage bytes (seen only while probing
            # misaligned offsets) is not a record.
            return None
        return record, lsn + _REC_HDR.size + length

    # -- maintenance ------------------------------------------------------------

    @property
    def end_lsn(self) -> int:
        return self._end

    def truncate(self) -> None:
        """Discard the retained records (only safe after all pages are
        flushed). The LSN base advances so LSNs stay monotone forever."""
        with self._lock:
            self._truncate_locked()

    def _truncate_locked(self) -> None:
        if self.failed is not None:
            raise WalFlushError("log %s failed earlier: %s"
                                % (self.path, self.failed))
        f = self._faults
        if f is not None and f.enabled:
            f.fire("wal.truncate.pre", end_lsn=self._end)
        self._base = self._end
        self._file.truncate(_FILE_HDR.size)
        self._write_header()
        self._file.flush()
        os.fsync(self._file.fileno())
        self._flushed = self._end
        self._pending_commits = 0
        self.scan_stop = None
        self.scan_stop_kind = None
        if f is not None and f.enabled:
            f.fire("wal.truncate.post", end_lsn=self._end)

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                try:
                    self._file.flush()
                except OSError:
                    if self.failed is None:
                        raise  # only a known-failed log may close unflushed
                self._file.close()
                self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

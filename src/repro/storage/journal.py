"""Journal — transactional page editing glue between pool and WAL.

Heap files and indexes mutate pages exclusively through
:meth:`Journal.edit`, which snapshots the page, lets the caller mutate it,
then logs the changed byte range (before/after images) as an UPDATE record
of the current transaction and stamps the page's LSN. This single choke
point gives atomicity (undo via before-images) and durability (redo via
after-images) to every structure in the engine without any of them knowing
about logging.

The journal also owns the transaction table (txn id -> last LSN), commit,
abort (which undoes in place, writing CLRs), and fuzzy checkpoints.

Locking: the journal has its *own* latch (it used to share the buffer
pool's). The order is journal latch -> shard/pool latches -> WAL mutex;
abort and checkpoint acquire the pool's ``all_latches()`` *inside* the
journal latch, and no path acquires the journal latch while holding a
pool latch — which is why :meth:`Journal.free_page_deferred` and
:meth:`Journal._require_active` are lock-free (GIL-atomic dict operations
plus the invariant that a transaction is only ever driven by one thread):
they are called from structures that already hold their shard's latch.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..errors import (DegradedModeError, TransactionError, WalError,
                      WalFlushError)
from .buffer import BufferPool
from .page import PAGE_SIZE, SlottedPage

#: Base image for the first logged edit of a freshly formatted page: the
#: diff is taken against zeros, so the format itself lands in the log and
#: redo can rebuild the page on a file that never saw it (see
#: ``BufferPool.fresh_pages``).
_ZERO_PAGE = bytes(PAGE_SIZE)
from .wal import NULL_LSN, LogRecordType, WriteAheadLog


class Journal:
    """Transaction table + logged page edits over a pool/WAL pair."""

    def __init__(self, pool: BufferPool, wal: WriteAheadLog):
        self._pool = pool
        self._wal = wal
        pool.attach_wal(wal)
        #: The journal latch. Guards the txn table and transaction
        #: lifecycle transitions; ordered *before* the pool/shard latches
        #: (see the module docs).
        self.latch = threading.RLock()
        self._next_txn = 1
        #: Reason string when the store is in read-only degraded mode
        #: (corrupt page quarantined, or WAL flush failure); gates
        #: :meth:`edit`, the single choke point every page mutation goes
        #: through. Reads and aborts bypass edit and keep working.
        self.degraded = None
        #: txn id -> LSN of that transaction's most recent log record.
        self.active: Dict[int, int] = {}
        #: txn id -> pages to return to the free list at commit. Freeing is
        #: deferred so an abort can never resurrect a pointer to a page
        #: that was freed (and possibly recycled) mid-transaction.
        self._pending_frees: Dict[int, list] = {}

    # -- transaction lifecycle ---------------------------------------------------

    def begin(self) -> int:
        with self.latch:
            txn = self._next_txn
            self._next_txn += 1
            # A failed log takes no BEGIN record, but read-only
            # transactions must still be able to start (and commit
            # trivially) in degraded mode.
            lsn = (self._wal.log_begin(txn)
                   if self._wal.failed is None else NULL_LSN)
            self.active[txn] = lsn
            return txn

    def commit(self, txn: int):
        """Commit *txn*. Returns the commit record's LSN (the commit's
        position in the serial order, used as the MVCC visibility stamp),
        or ``None`` for the degraded trivial-commit path."""
        with self.latch:
            last = self._require_active(txn)
            if self._wal.failed is not None:
                self._commit_on_failed_wal(txn, last)
                return None
            try:
                # log_commit fsyncs per the durability mode (full/group/none)
                clsn = self._wal.log_commit(txn, last)
            except WalFlushError:
                # The fsync failed: this commit — and every earlier commit
                # in the same group-commit batch — is not durable, and the
                # error says so to each of their committers (the batch
                # members already past log_commit see it on their next
                # log call; recovery on reopen rolls them back). Runtime
                # state is rolled back in memory so no "committed" effects
                # linger visible.
                self.degraded = self.degraded or "WAL flush failed"
                with self._pool.all_latches():
                    self._undo_in_memory(txn, last)
                del self.active[txn]
                self._pending_frees.pop(txn, None)
                raise
            self._wal.log_end(txn, last)
            del self.active[txn]
            frees = self._pending_frees.pop(txn, ())
        # Outside the journal latch: freeing takes shard latches, which
        # are ordered after it but must not be interleaved with another
        # thread's in-latch lifecycle work longer than necessary. The
        # transaction is committed and gone from the table; nothing can
        # resurrect references to these pages.
        for page_no in frees:
            self._pool.free_page(page_no, clsn)
        return clsn

    def _commit_on_failed_wal(self, txn: int, last: int) -> None:
        """Commit called after the log already died.

        A read-only transaction (no log records beyond its BEGIN, or
        begun after the failure) commits trivially; a writer cannot be
        made durable — its effects are rolled back in memory and the
        typed error reaches the committer.
        """
        wrote = (last != NULL_LSN and
                 self._wal.read_record(last)["type"] != LogRecordType.BEGIN)
        if wrote:
            self.degraded = self.degraded or "WAL flush failed"
            with self._pool.all_latches():
                self._undo_in_memory(txn, last)
        del self.active[txn]
        self._pending_frees.pop(txn, None)
        if wrote:
            raise WalFlushError(
                "transaction %d cannot commit durably: the log failed "
                "(%s); its effects were rolled back in memory"
                % (txn, self._wal.failed))

    def abort(self, txn: int) -> None:
        """Roll back *txn* by applying before-images, logging CLRs."""
        with self.latch:
            last = self._require_active(txn)
            # Holding every pool latch for the undo preserves the old
            # single-latch atomicity: a lock-free (MVCC) reader can never
            # interleave with the middle of a multi-page rollback and see
            # a half-compensated record.
            with self._pool.all_latches():
                if self._wal.failed is not None:
                    # The log takes no CLRs; undo the effects in memory
                    # only. Disk still holds the durable prefix, which
                    # reopening recovers to — identical to what the CLRs
                    # would rebuild.
                    self._undo_in_memory(txn, last)
                else:
                    last = undo_transaction(self._pool, self._wal, txn, last)
                    self._wal.log_abort(txn, last)
                    self._wal.log_end(txn, last)
            del self.active[txn]
            self._pending_frees.pop(txn, None)

    def _undo_in_memory(self, txn: int, from_lsn: int) -> None:
        """Apply before-images of *txn* without logging (dead-WAL path).

        The log's read side still works after an fsync failure — the
        unflushed tail is readable through the same file object. Pages
        are stamped with the log end LSN (newer than any update of the
        chain) so decoded-cache tokens taken during the transaction can
        never validate against the rolled-back bytes; the stamp never
        reaches disk because a failed WAL blocks all page write-back.
        """
        pool, wal = self._pool, self._wal
        stamp = wal.end_lsn
        lsn = from_lsn
        while lsn != NULL_LSN:
            record = wal.read_record(lsn)
            rtype = record["type"]
            if rtype == LogRecordType.UPDATE:
                before = record["before"]
                offset = record["offset"]
                page = pool.pin(record["page_no"])
                page.buf[offset:offset + len(before)] = before
                page.page_lsn = stamp
                pool.unpin(record["page_no"], dirty=True)
                lsn = record["prev_lsn"]
            elif rtype == LogRecordType.CLR:
                lsn = record["undo_next"]
            elif rtype == LogRecordType.BEGIN:
                break
            else:
                lsn = record["prev_lsn"]

    def free_page_deferred(self, txn: int, page_no: int) -> None:
        """Schedule *page_no* for the free list when *txn* commits.

        Structures must use this (never ``pool.free_page``) for pages a
        transaction stops referencing: an in-flight transaction's undo
        images may still point at them.

        Lock-free: callers hold their shard latch and the journal latch
        is ordered before shard latches, so taking it here would invert
        the order. The dict operations are GIL-atomic and a transaction
        is only ever driven by one thread, so its list never races.
        """
        self._require_active(txn)
        self._pending_frees.setdefault(txn, []).append(page_no)

    def _require_active(self, txn: int) -> int:
        # Lock-free for the same reason as free_page_deferred: called
        # from _PageEdit while the page's shard latch is held.
        last = self.active.get(txn)
        if last is None:
            raise TransactionError("transaction %d is not active" % txn)
        return last

    # -- logged page edits ---------------------------------------------------

    def edit(self, txn: int, page_no: int,
             redo_only: bool = False) -> "_PageEdit":
        """Pin *page_no* for mutation under *txn*; log the diff on exit.

        Context manager. If the block raises, the page buffer is restored
        from the snapshot and nothing is logged — the failed edit leaves
        no trace.

        *redo_only* logs the diff as CLRs (after-image only) whose
        ``undo_next`` skips them: the edit is replayed by redo but never
        rolled back, whether *txn* commits or not — the ARIES nested top
        action. For structure growth that other transactions build on
        before *txn* ends (a freshly linked, still empty object-table
        page): undoing the link would orphan their entries.

        Every page mutation in the engine funnels through here, which is
        what makes the degraded-mode gate complete: one check blocks all
        writes while reads (plain pins) and aborts (before-image
        application) continue to work.
        """
        if self.degraded is not None or self._wal.failed is not None:
            raise DegradedModeError(
                "store is read-only (degraded mode): %s"
                % (self.degraded or "WAL flush failed"),
                reason=self.degraded)
        return _PageEdit(self, txn, page_no, redo_only)

    # -- checkpointing ----------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush everything; truncate the log if no transaction is active."""
        with self.latch:
            self._wal.flush()
            self._pool.flush_all()
            if self.active:
                self._wal.log_checkpoint(self.active)
            else:
                # The WAL rule, checkpoint edition: the log may only be
                # truncated once every page image it covers is *durable*.
                # flush_all leaves the writes in volatile file buffers; a
                # crash between an unsynced flush and the truncate would
                # lose committed data with no log left to replay it from
                # (found by the crash harness at pagefile.sync.pre).
                self._pool.sync()
                self._wal.truncate()


class _PageEdit:
    """Hand-rolled context manager for :meth:`Journal.edit`.

    A plain class, not ``@contextmanager``: the generator machinery costs
    more than the snapshot+diff it brackets, and this wraps every logged
    page mutation in the engine.
    """

    __slots__ = ("_journal", "_txn", "_page_no", "_redo_only", "_last",
                 "_page", "_snapshot")

    def __init__(self, journal: Journal, txn: int, page_no: int,
                 redo_only: bool = False):
        self._journal = journal
        self._txn = txn
        self._page_no = page_no
        self._redo_only = redo_only

    def __enter__(self) -> SlottedPage:
        journal = self._journal
        # Pin first: it takes the storage latch, so the txn-table check and
        # the snapshot happen atomically with respect to other threads.
        page = journal._pool.pin(self._page_no)
        try:
            self._last = journal._require_active(self._txn)
        except BaseException:
            journal._pool.unpin(self._page_no, dirty=False)
            raise
        self._snapshot = bytes(page.buf)
        self._page = page
        return page

    def __exit__(self, exc_type, exc, tb) -> bool:
        journal = self._journal
        page = self._page
        if exc_type is not None:
            page.buf[:] = self._snapshot
            journal._pool.unpin(self._page_no, dirty=False)
            return False
        snapshot = self._snapshot
        new = bytes(page.buf)
        pool = journal._pool
        # None: not fresh; else whether the page number was recycled.
        recycled = (pool.fresh_pages.get(self._page_no)
                    if pool.fresh_pages else None)
        fresh = recycled is not None
        # A fresh page's format was applied in-pool without logging; diff
        # its first edit against zeros so the whole image is replayable
        # (and undo of the creating transaction restores a zero page).
        base = _ZERO_PAGE if fresh else snapshot
        if fresh and (recycled or self._redo_only):
            # The whole image, zeros included. A recycled page's earlier
            # life may still be in the log: redo replays it first, and
            # whatever the new format zeroed without logging would come
            # back — a record's leading zero byte reads as the old
            # life's, a raw-array page (object table) reads stale bytes
            # as live entries. Redo-only growth is always logged whole.
            runs = [(0, PAGE_SIZE)]
        else:
            runs = _diff_runs(base, new)
        if not runs:
            journal._pool.unpin(self._page_no, dirty=False)
            return False
        wal = journal._wal
        lsn = self._last
        for lo, hi in runs:
            if self._redo_only:
                lsn = wal.log_clr(self._txn, lsn, self._page_no, lo,
                                  new[lo:hi], undo_next=lsn)
            else:
                lsn = wal.log_update(self._txn, lsn, self._page_no, lo,
                                     base[lo:hi], new[lo:hi])
        journal.active[self._txn] = lsn
        page.page_lsn = lsn
        if fresh:
            pool.fresh_pages.pop(self._page_no, None)
        journal._pool.unpin(self._page_no, dirty=True)
        return False


#: Granularity of the changed-run scan: unchanged chunks are skipped with
#: one C memcmp each; a short changed stretch is split at its unchanged
#: gaps, a long one (a compaction, a node split) is logged as it is.
_DIFF_CHUNK = 256
_DIFF_SPLIT_MAX = 4 * _DIFF_CHUNK

#: Unchanged bytes that end a run. Two changed regions closer than this
#: share one record: an UPDATE carries the gap twice (before and after
#: image), a second record ~33 bytes of framing and a second append.
_DIFF_GAP = bytes(49)

#: Beyond this many runs the per-record framing outweighs the image bytes
#: saved; the closest runs are merged until the count fits.
_MAX_DIFF_RUNS = 4


def _delta(old: bytes, new: bytes, lo: int, hi: int) -> bytes:
    """``old[lo:hi] XOR new[lo:hi]``: zero exactly where they agree."""
    return (int.from_bytes(old[lo:hi], "big")
            ^ int.from_bytes(new[lo:hi], "big")).to_bytes(hi - lo, "big")


def _diff_runs(old: bytes, new: bytes) -> list:
    """Changed byte ranges ``[lo, hi)`` between two equal-length buffers.

    A page edit touches a few distant regions (a slotted page insert
    dirties the header, a slot entry, and the payload near the end of the
    page; on an index page the slot entry can sit hundreds of bytes past
    the header). Logging each run separately keeps the UPDATE images
    proportional to what actually changed instead of spanning the
    untouched bytes between them. Runs start and end on a changed byte.
    """
    if old == new:
        return []
    runs = []
    size = len(old)
    i = 0
    while i < size:
        j = i + _DIFF_CHUNK
        if old[i:j] == new[i:j]:
            i = j
            continue
        while j < size and old[j:j + _DIFF_CHUNK] != new[j:j + _DIFF_CHUNK]:
            j += _DIFF_CHUNK
        j = min(j, size)
        if j - i > _DIFF_SPLIT_MAX:
            head = _delta(old, new, i, i + _DIFF_CHUNK)
            tail = _delta(old, new, j - _DIFF_CHUNK, j)
            runs.append([i + _DIFF_CHUNK - len(head.lstrip(b"\x00")),
                         j - _DIFF_CHUNK + len(tail.rstrip(b"\x00"))])
        else:
            delta = _delta(old, new, i, j)
            end = len(delta.rstrip(b"\x00"))
            at = end - len(delta[:end].lstrip(b"\x00"))
            while True:
                gap = delta.find(_DIFF_GAP, at, end)
                if gap < 0:
                    runs.append([i + at, i + end])
                    break
                runs.append([i + at, i + gap])
                at = end - len(delta[gap:end].lstrip(b"\x00"))
        i = j
    while len(runs) > _MAX_DIFF_RUNS:
        k = min(range(1, len(runs)),
                key=lambda k: runs[k][0] - runs[k - 1][1])
        runs[k - 1][1] = runs.pop(k)[1]
    return [(lo, hi) for lo, hi in runs]


def _diff_range(old: bytes, new) -> tuple:
    """Smallest ``[lo, hi)`` such that old[lo:hi] != new[lo:hi], or (None, None).

    Uses binary search over slice comparisons so the byte scanning runs in
    C (memcmp) instead of a Python loop. Page edits use :func:`_diff_runs`
    (which can report several disjoint ranges); this single-range variant
    remains for callers that need one bounding range.
    """
    if old == new:
        return None, None
    new = bytes(new)
    length = len(old)
    # First differing index: largest prefix length with equal slices.
    lo_lo, lo_hi = 0, length
    while lo_lo < lo_hi:
        mid = (lo_lo + lo_hi + 1) // 2
        if old[:mid] == new[:mid]:
            lo_lo = mid
        else:
            lo_hi = mid - 1
    lo = lo_lo
    # Last differing index: largest suffix length with equal slices.
    hi_lo, hi_hi = 0, length - lo
    while hi_lo < hi_hi:
        mid = (hi_lo + hi_hi + 1) // 2
        if old[length - mid:] == new[length - mid:]:
            hi_lo = mid
        else:
            hi_hi = mid - 1
    hi = length - hi_lo
    return lo, hi


def undo_transaction(pool: BufferPool, wal: WriteAheadLog, txn: int,
                     from_lsn: int) -> int:
    """Undo *txn* starting at *from_lsn*, writing CLRs. Returns the last LSN.

    Shared by runtime abort and crash recovery. Walks the transaction's
    backward chain; UPDATE records are compensated by applying their before
    image; CLRs are never undone — their ``undo_next`` pointer skips the
    already-compensated update.
    """
    lsn = from_lsn
    last = from_lsn
    while lsn != NULL_LSN:
        record = wal.read_record(lsn)
        rtype = record["type"]
        if rtype == LogRecordType.UPDATE:
            page_no = record["page_no"]
            offset = record["offset"]
            before = record["before"]
            page = pool.pin(page_no)
            page.buf[offset:offset + len(before)] = before
            clr_lsn = wal.log_clr(txn, last, page_no, offset, before,
                                  undo_next=record["prev_lsn"])
            page.page_lsn = clr_lsn
            pool.unpin(page_no, dirty=True)
            last = clr_lsn
            lsn = record["prev_lsn"]
        elif rtype == LogRecordType.CLR:
            lsn = record["undo_next"]
        elif rtype == LogRecordType.BEGIN:
            break
        else:  # ABORT marker mid-chain: keep walking
            lsn = record["prev_lsn"]
    return last

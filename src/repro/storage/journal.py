"""Journal — transactional page operations between the pool and the WAL.

Every page mutation in the engine goes through the journal, and every
one appends exactly the log it needs — page-oriented redo, logical undo,
in the ARIES style (Mohan et al., TODS 1992):

* **Slot operations log themselves.** A heap insert, delete or update
  (:meth:`Journal.heap_insert` / :meth:`~Journal.heap_delete` /
  :meth:`~Journal.heap_update`), a B+tree entry insert or delete and an
  object-table entry insert or delete (:meth:`Journal.op`, driven by
  :mod:`repro.storage.btree` and :mod:`repro.storage.objtable`) append
  one OP record: the byte ranges the page primitive reports it wrote
  (header words, slot-directory span, payload, entry, flag — the redo
  image) and the arguments of the operation's *inverse*. No snapshot is
  taken and no diff computed.
* **Undo is logical.** A heap insert is undone by tombstoning its RID, a
  heap delete or update by putting the old payload back at that RID, a
  B+tree or object-table entry insert or delete by removing or
  re-inserting the entry wherever it is *now* (a fresh descent from the
  root). Another transaction's records on the same page — shifted
  slots, moved payloads, split nodes — are never touched. One code path,
  :meth:`Journal.undo_step`, serves runtime abort, the dead-log
  in-memory rollback and recovery's loser undo; every step writes a CLR
  that carries its own redo ranges.
* **Reservations.** Until a transaction ends, other transactions cannot
  reuse the slot or the bytes of its uncommitted heap delete (nor the
  bytes an uncommitted shrinking update freed), so its undo always finds
  them; nor can they insert a key its uncommitted delete took out of a
  unique B+tree, so its undo never makes a duplicate. The reservation
  lives in memory and is dropped at commit or abort; recovery's undo
  runs before any new transaction and needs none.
* **Physical images remain for structure changes.** Splits,
  ``copy_from``, ``format``, detaches, heap and table growth and a fresh
  page's first image run under :meth:`Journal.edit`, the one place a
  page snapshot remains: the primitives still report their ranges, the
  snapshot supplies the before-images and restores the page if the
  block raises. A detach or a change that spans pages (a B+tree split)
  runs as a *nested top action* (:meth:`Journal.nested_top_action`):
  its records stay undoable until a range-less CLR closes it, so a crash
  half-way through rolls it back, and an abort after it never does —
  other transactions may already be using the new shape. Growth that is consistent after every single
  record (a new page, then the pointer to it) is logged redo-only
  directly.

The journal also owns the transaction table (txn id -> last LSN),
commit, abort and fuzzy checkpoints.

Locking: the journal has its *own* latch. The order is journal latch ->
shard/pool latches -> WAL mutex; abort and checkpoint acquire the pool's
``all_latches()`` *inside* the journal latch, and no path acquires the
journal latch while holding a pool latch — which is why the operation
entry points, :meth:`Journal.free_page_deferred` and
:meth:`Journal._require_active` are lock-free (GIL-atomic dict
operations plus the invariant that a transaction is only ever driven by
one thread): they are called from structures that already hold their
shard's latch. The reservation table has its own leaf lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from ..errors import (DegradedModeError, PageFullError, TransactionError,
                      WalFlushError)
from .buffer import BufferPool
from .page import HEADER_SIZE, NO_PAGE, PAGE_SIZE, SlottedPage
from .wal import NULL_LSN, LogRecordType, WriteAheadLog

#: OP record kinds (the ``op`` field): what the inverse is.
OP_HEAP_INSERT = 1   # undo: tombstone slot ``pos``
OP_HEAP_DELETE = 2   # undo: put ``undo`` (the old record) back at ``pos``
OP_HEAP_UPDATE = 3   # undo: the same
OP_ENTRY_INSERT = 4  # undo: remove the entry ``undo`` names from its tree
OP_ENTRY_DELETE = 5  # undo: re-insert it
OP_OBJ_INSERT = 6    # undo: mark the object-table entry ``undo`` names dead
OP_OBJ_DELETE = 7    # undo: re-insert it

#: Compensation mode of a transaction whose undo runs with the log dead:
#: inverses are applied, nothing is logged.
_IN_MEMORY = object()

#: Before-image of a fresh page's first logged image (the format itself
#: is applied in-pool without logging; see ``BufferPool.fresh_pages``).
_ZERO_PAGE = bytes(PAGE_SIZE)


def _coalesce(touched: list) -> list:
    """Sorted, merged ``[lo, hi)`` ranges: the primitives may report a
    header word twice (a compaction before an insert) or abut."""
    end = -1
    for lo, hi in touched:
        if lo <= end:
            break
        end = hi
    else:
        return touched  # already ascending and disjoint: the usual case
    merged = []
    for lo, hi in sorted(touched):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        elif hi > lo:
            merged.append([lo, hi])
    return merged


class Journal:
    """Transaction table + logged page operations over a pool/WAL pair."""

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
        #: (corrupt page quarantined, or WAL flush failure); gates every
        #: forward page mutation. Reads and aborts keep working.
        self.degraded = None
        #: txn id -> LSN of that transaction's most recent log record.
        self.active: Dict[int, int] = {}
        #: txn id -> pages to return to the free list at commit. Freeing is
        #: deferred so an abort can never resurrect a pointer to a page
        #: that was freed (and possibly recycled) mid-transaction.
        self._pending_frees: Dict[int, list] = {}
        #: txn id -> pages a completed structure change unlinked for good:
        #: freed when the transaction ends, however it ends.
        self._unlinked: Dict[int, list] = {}
        #: txn id -> where its CLRs point while it is undoing (the
        #: ``prev_lsn`` of the record being compensated), or _IN_MEMORY.
        self._undoing: Dict[int, object] = {}
        #: txn id -> depth of open nested top actions.
        self._nta: Dict[int, int] = {}
        #: heap page -> txn -> [reserved bytes, reserved slots]; and
        #: (tree root, key bytes) -> txn -> [0, set()] for a key an
        #: uncommitted delete took out of a unique B+tree.
        self._reserved: Dict[object, Dict[int, list]] = {}
        self._reserved_by: Dict[int, set] = {}
        self._reserved_lock = threading.Lock()
        #: Object-table root page -> {leaf index -> first page of its
        #: chain}: the leaf memo every table instance over that root
        #: shares (see :mod:`repro.storage.objtable`).
        self.table_leaves: Dict[int, Dict[int, int]] = {}

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
                    self.rollback(txn)
                self._end(txn)
                raise
            self._wal.log_end(txn, last)
            frees = self._pending_frees.pop(txn, [])
            frees += self._end(txn)
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
                self.rollback(txn)
        self._end(txn)
        if wrote:
            raise WalFlushError(
                "transaction %d cannot commit durably: the log failed "
                "(%s); its effects were rolled back in memory"
                % (txn, self._wal.failed))

    def abort(self, txn: int) -> None:
        """Roll back *txn* by undoing its operations, logging CLRs."""
        end = None
        with self.latch:
            self._require_active(txn)
            # Holding every pool latch for the undo preserves the old
            # single-latch atomicity: a lock-free (MVCC) reader can never
            # interleave with the middle of a multi-page rollback and see
            # a half-compensated record.
            with self._pool.all_latches():
                self.rollback(txn)
                if self._wal.failed is None:
                    last = self.active[txn]
                    self._wal.log_abort(txn, last)
                    end = self._wal.log_end(txn, last)
            unlinked = self._end(txn)
        if end is not None:
            for page_no in unlinked:
                self._pool.free_page(page_no, end)

    def _end(self, txn: int) -> list:
        """Drop *txn* from the tables and release its reservations;
        returns the pages its structure changes unlinked."""
        del self.active[txn]
        self._pending_frees.pop(txn, None)
        pages = self._reserved_by.pop(txn, None)
        if pages:
            with self._reserved_lock:
                for page_no in pages:
                    held = self._reserved.get(page_no)
                    if held is not None:
                        held.pop(txn, None)
                        if not held:
                            del self._reserved[page_no]
        return self._unlinked.pop(txn, [])

    def free_page_deferred(self, txn: int, page_no: int,
                           unlinked: bool = False) -> None:
        """Schedule *page_no* for the free list when *txn* ends.

        Structures must use this (never ``pool.free_page``) for pages a
        transaction stops referencing. By default the page is freed only
        if *txn* commits: an abort may put back a pointer to it (a heap
        overflow stub). *unlinked* pages were cut out by a completed
        nested top action, which no abort reverses, and are freed either
        way.

        Lock-free: callers hold their shard latch and the journal latch
        is ordered before shard latches, so taking it here would invert
        the order. The dict operations are GIL-atomic and a transaction
        is only ever driven by one thread, so its list never races.
        """
        self._require_active(txn)
        frees = self._unlinked if unlinked else self._pending_frees
        frees.setdefault(txn, []).append(page_no)

    def _require_active(self, txn: int) -> int:
        # Lock-free for the same reason as free_page_deferred: called
        # while the page's shard latch is held.
        last = self.active.get(txn)
        if last is None:
            raise TransactionError("transaction %d is not active" % txn)
        return last

    def _check_writable(self, txn: int) -> None:
        """The degraded-mode gate: every forward mutation passes here, so
        one check blocks all writes. Undo is exempt — reads and aborts
        keep working."""
        if (self.degraded is not None or self._wal.failed is not None) \
                and txn not in self._undoing:
            raise DegradedModeError(
                "store is read-only (degraded mode): %s"
                % (self.degraded or "WAL flush failed"),
                reason=self.degraded)

    # -- slot operations: one OP record each ----------------------------------

    def op(self, txn: int, page_no: int) -> "_PageOp":
        """Pin *page_no* for slot operations under *txn*.

        Context manager yielding a :class:`_PageOp`: mutate
        ``op.page`` with one primitive, then ``op.log(kind, pos, undo)``
        appends the OP record — the primitive's reported ranges and the
        inverse's arguments. Several operations may share one pin; each
        logs its own record. Nothing is snapshotted: a primitive raises
        before it writes, so a failed operation leaves no trace.
        """
        self._check_writable(txn)
        return _PageOp(self, txn, page_no)

    def heap_insert(self, txn: int, page_no: int,
                    record: bytes) -> Optional[int]:
        """Insert *record* on heap page *page_no*; its slot, or None when
        it does not fit beside the other transactions' reservations."""
        with self.op(txn, page_no) as op:
            avoid, held = self._held(txn, page_no)
            try:
                slot = op.page.insert(record, avoid, held)
            except PageFullError:
                return None
            op.log(OP_HEAP_INSERT, slot)
        return slot

    def heap_delete(self, txn: int, page_no: int, slot: int) -> None:
        """Tombstone *slot*, reserving it and its bytes for the undo."""
        with self.op(txn, page_no) as op:
            old = op.page.read(slot)
            op.page.delete(slot)
            self._reserve(txn, page_no, len(old), slot)
            op.log(OP_HEAP_DELETE, slot, old)

    def heap_update(self, txn: int, page_no: int, slot: int,
                    record: bytes) -> bool:
        """Replace *slot*'s record; False when the larger record does not
        fit the page (the caller relocates it)."""
        with self.op(txn, page_no) as op:
            old = op.page.read(slot)
            try:
                op.page.update(slot, record, self._held(txn, page_no)[1])
            except PageFullError:
                return False
            if len(old) > len(record):
                self._reserve(txn, page_no, len(old) - len(record))
            op.log(OP_HEAP_UPDATE, slot, old)
        return True

    def _held(self, txn: int, page_no: int):
        """``(slots, bytes)`` other transactions reserve on *page_no*."""
        reserved = self._reserved.get(page_no)
        if not reserved:
            return (), 0
        slots, held = set(), 0
        with self._reserved_lock:
            for owner, (nbytes, owned) in reserved.items():
                if owner != txn:
                    held += nbytes
                    slots |= owned
        return slots, held

    def reserve_key(self, txn: int, root_page: int, kb: bytes) -> None:
        """Hold *kb*, which *txn* is deleting from the unique tree at
        *root_page*, so no other transaction inserts it before *txn*
        ends — the undo re-inserts it without a uniqueness check."""
        self._reserve(txn, (root_page, kb), 0)

    def key_held(self, txn: int, root_page: int, kb: bytes) -> bool:
        """Whether another transaction's uncommitted delete holds *kb*
        in the unique tree at *root_page*."""
        if not self._reserved.get((root_page, kb)):
            return False
        with self._reserved_lock:
            return any(owner != txn
                       for owner in self._reserved.get((root_page, kb), ()))

    def _reserve(self, txn: int, page_no: int, nbytes: int,
                 slot: Optional[int] = None) -> None:
        with self._reserved_lock:
            entry = self._reserved.setdefault(page_no, {}).setdefault(
                txn, [0, set()])
            entry[0] += nbytes
            if slot is not None:
                entry[1].add(slot)
        self._reserved_by.setdefault(txn, set()).add(page_no)

    def _with_format(self, page_no: int, touched: list):
        """``(ranges, fresh)``: *touched*, plus a fresh page's unlogged
        format — the header, or the whole page when it came off the free
        list (its earlier life may still be in the log, and redo replays
        that first). *fresh* is None for a page that is not fresh."""
        fresh_pages = self._pool.fresh_pages
        fresh = fresh_pages.pop(page_no, None) if fresh_pages else None
        if fresh is not None:
            touched = ([(0, PAGE_SIZE)] if fresh
                       else [(0, HEADER_SIZE)] + touched)
        return touched, fresh

    def _log_op(self, txn: int, page_no: int, page: SlottedPage, op: int,
                pos: int, undo: bytes) -> None:
        touched = self._with_format(page_no, page.touched)[0]
        target = self._undoing.get(txn)
        if target is _IN_MEMORY:
            page.page_lsn = self._wal.end_lsn
            return
        buf = page.buf
        ranges = [(lo, buf[lo:hi]) for lo, hi in _coalesce(touched)]
        prev = self.active[txn]
        if target is None:
            lsn = self._wal.log_op(txn, prev, page_no, op, pos, ranges, undo)
        else:
            lsn = self._wal.log_clr(txn, prev, page_no, ranges, target)
        self.active[txn] = lsn
        page.page_lsn = lsn

    def log_intent(self, txn: int, page_no: int, op: int, pos: int,
                   undo: bytes) -> None:
        """An OP record with no redo ranges: the operation's page change
        follows inside a nested top action (an entry a split places), so
        only its inverse is logged here — first, so that a crash at any
        point after it still undoes the operation."""
        if txn not in self._undoing:
            self.active[txn] = self._wal.log_op(
                txn, self._require_active(txn), page_no, op, pos, [], undo)

    # -- structure changes: physical ranges ----------------------------------

    def edit(self, txn: int, page_no: int,
             redo_only: bool = False) -> "_PageEdit":
        """Pin *page_no* for a structure change under *txn*.

        Context manager: the block mutates the page through its
        primitives (which report their ranges), and on exit those ranges
        are logged with before-images from a snapshot taken on entry —
        the one snapshot left in the engine. If the block raises, the
        page buffer is restored from the snapshot and nothing is logged.

        *redo_only* logs the ranges as a CLR (after-images only) whose
        ``undo_next`` skips it: the change is replayed by redo but never
        rolled back, whether *txn* commits or not — for growth that is
        consistent on its own (a new page; then the pointer to it) and
        that other transactions may build on before *txn* ends.
        """
        self._check_writable(txn)
        return _PageEdit(self, txn, page_no, redo_only)

    def _log_images(self, txn: int, page_no: int, page: SlottedPage,
                    images: list, redo_only: bool) -> None:
        """Log ``(offset, before, after)`` images of *page*: UPDATE
        records, or one CLR when redo-only or compensating outside a
        nested top action."""
        target = self._undoing.get(txn)
        if target is _IN_MEMORY:
            page.page_lsn = self._wal.end_lsn
            return
        wal = self._wal
        lsn = self.active[txn]
        if redo_only or (target is not None and txn not in self._nta):
            lsn = wal.log_clr(txn, lsn, page_no,
                              [(lo, after) for lo, _b, after in images],
                              lsn if redo_only else target)
        else:
            for lo, before, after in images:
                lsn = wal.log_update(txn, lsn, page_no, lo, before, after)
        self.active[txn] = lsn
        page.page_lsn = lsn

    def nested_top_action(self, txn: int) -> "_NestedTopAction":
        """Run a multi-page structure change atomically (ARIES nested top
        action).

        Context manager. The :meth:`edit` records inside it stay undoable
        until it exits, then a range-less CLR whose ``undo_next`` is the
        transaction's last LSN before it makes them redo-only: a crash
        in the middle rolls the change back, an abort after it keeps it.
        If the block raises, the records it wrote are rolled back at
        once, while the caller still holds the latches that kept other
        transactions away from the half-done change.
        """
        return _NestedTopAction(self, txn)

    # -- undo ------------------------------------------------------------------

    def rollback(self, txn: int, to_lsn: int = NULL_LSN) -> None:
        """Undo *txn*'s records newer than *to_lsn*, newest first.

        With the log dead (an fsync failed) the inverses are applied in
        memory only, no CLR logged: disk still holds the durable prefix,
        which reopening recovers to — what the CLRs would rebuild. The
        log's read side still works, and the rolled-back pages are
        stamped with the log's end LSN (newer than any record of the
        chain), so decoded-cache tokens taken during the transaction
        never validate against them; the stamp never reaches disk, as a
        failed log blocks all page write-back.
        """
        failed = self._wal.failed is not None
        if failed:
            self._undoing[txn] = _IN_MEMORY
        try:
            lsn = self.active[txn]
            while lsn != NULL_LSN and lsn > to_lsn:
                lsn = self.undo_step(txn, lsn)
        finally:
            if failed:
                del self._undoing[txn]

    def undo_step(self, txn: int, lsn: int) -> int:
        """Undo the record at *lsn* of *txn*; returns the next LSN of the
        backward walk (``NULL_LSN`` at the transaction's BEGIN).

        Shared by runtime abort, the in-memory rollback and recovery's
        loser undo. A CLR is never undone: its ``undo_next`` skips what it
        compensated (or the structure change it closed). An UPDATE's
        before-image (a structure change cut short) is written back; an
        OP's inverse is applied where its record is now. Either writes
        CLRs pointing past the record.
        """
        record = self._wal.read_record(lsn)
        rtype = record["type"]
        if rtype == LogRecordType.CLR:
            return record["undo_next"]
        if rtype == LogRecordType.BEGIN:
            return NULL_LSN
        prev = record["prev_lsn"]
        if rtype not in (LogRecordType.OP, LogRecordType.UPDATE):
            return prev  # an ABORT marker mid-chain: keep walking
        mode = self._undoing.get(txn)
        nta = self._nta.pop(txn, None)
        if mode is not _IN_MEMORY:
            self._undoing[txn] = prev
        try:
            if rtype == LogRecordType.UPDATE:
                with self.edit(txn, record["page_no"]) as page:
                    page.write(record["offset"], record["before"])
            else:
                _UNDO[record["op"]](self, txn, record)
        finally:
            if mode is None:
                del self._undoing[txn]
            else:
                self._undoing[txn] = mode
            if nta is not None:
                self._nta[txn] = nta
        return prev

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


class _PageOp:
    """Pinned page for :meth:`Journal.op`; ``log`` appends one record."""

    __slots__ = ("_journal", "_txn", "_page_no", "page", "_logged")

    def __init__(self, journal: Journal, txn: int, page_no: int):
        self._journal = journal
        self._txn = txn
        self._page_no = page_no

    def __enter__(self) -> "_PageOp":
        journal = self._journal
        # Pin first: it takes the storage latch, so the txn-table check
        # happens atomically with respect to other threads.
        page = journal._pool.pin(self._page_no)
        if self._txn not in journal.active:
            journal._pool.unpin(self._page_no)
            raise TransactionError("transaction %d is not active" % self._txn)
        page.touched = []
        self.page = page
        self._logged = False
        return self

    def log(self, op: int, pos: int, undo: bytes = b"") -> None:
        """Append the record for the primitive just applied."""
        self._journal._log_op(self._txn, self._page_no, self.page, op, pos,
                              undo)
        self.page.touched = []
        self._logged = True

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.page.touched = None
        self._journal._pool.unpin(self._page_no, dirty=self._logged)
        return False


class _PageEdit:
    """Hand-rolled context manager for :meth:`Journal.edit` (a plain
    class: the generator machinery of ``@contextmanager`` costs more than
    what it brackets)."""

    __slots__ = ("_journal", "_txn", "_page_no", "_redo_only", "_page",
                 "_snapshot")

    def __init__(self, journal: Journal, txn: int, page_no: int,
                 redo_only: bool = False):
        self._journal = journal
        self._txn = txn
        self._page_no = page_no
        self._redo_only = redo_only

    def __enter__(self) -> SlottedPage:
        journal = self._journal
        page = journal._pool.pin(self._page_no)
        try:
            journal._require_active(self._txn)
        except BaseException:
            journal._pool.unpin(self._page_no, dirty=False)
            raise
        self._snapshot = bytes(page.buf)
        page.touched = []
        self._page = page
        return page

    def __exit__(self, exc_type, exc, tb) -> bool:
        journal = self._journal
        pool = journal._pool
        page = self._page
        touched, page.touched = page.touched, None
        if exc_type is not None:
            page.buf[:] = self._snapshot
            pool.unpin(self._page_no, dirty=False)
            return False
        touched, fresh = journal._with_format(self._page_no, touched)
        base = self._snapshot if fresh is None else _ZERO_PAGE
        if not touched:
            pool.unpin(self._page_no, dirty=False)
            return False
        buf = page.buf
        try:
            journal._log_images(
                self._txn, self._page_no, page,
                [(lo, base[lo:hi], bytes(buf[lo:hi]))
                 for lo, hi in _coalesce(touched)], self._redo_only)
        finally:
            pool.unpin(self._page_no, dirty=True)
        return False


class _NestedTopAction:
    """Context manager for :meth:`Journal.nested_top_action`."""

    __slots__ = ("_journal", "_txn", "_save", "_undo_next")

    def __init__(self, journal: Journal, txn: int):
        self._journal = journal
        self._txn = txn

    def __enter__(self) -> "_NestedTopAction":
        journal = self._journal
        self._save = self._undo_next = journal._require_active(self._txn)
        journal._nta[self._txn] = journal._nta.get(self._txn, 0) + 1
        return self

    def completes_undo(self) -> None:
        """Inside an undo step: this action finishes the step, so the
        closing CLR points past the record being compensated rather than
        back at it (a crash after it must not apply the inverse twice)."""
        target = self._journal._undoing.get(self._txn)
        if target is not None and target is not _IN_MEMORY:
            self._undo_next = target

    def __exit__(self, exc_type, exc, tb) -> bool:
        journal, txn = self._journal, self._txn
        depth = journal._nta.pop(txn) - 1
        if depth:
            journal._nta[txn] = depth
        if exc_type is not None:
            journal.rollback(txn, self._save)
        elif (journal.active[txn] != self._save
              and journal._undoing.get(txn) is not _IN_MEMORY):
            journal.active[txn] = journal._wal.log_clr(
                txn, journal.active[txn], NO_PAGE, [], self._undo_next)
        return False


# -- inverses ---------------------------------------------------------------


def _undo_heap_insert(journal: Journal, txn: int, record: Dict) -> None:
    with journal.op(txn, record["page_no"]) as op:
        if op.page.is_live(record["pos"]):
            op.page.delete(record["pos"])
            op.log(OP_HEAP_DELETE, record["pos"])


def _undo_heap_change(journal: Journal, txn: int, record: Dict) -> None:
    with journal.op(txn, record["page_no"]) as op:
        op.page.restore(record["pos"], record["undo"])
        op.log(OP_HEAP_UPDATE, record["pos"])


def _undo_entry(journal: Journal, txn: int, record: Dict) -> None:
    from .btree import undo_entry  # the tree module imports this one
    undo_entry(journal, txn, record)


def _undo_obj_entry(journal: Journal, txn: int, record: Dict) -> None:
    from .objtable import undo_entry  # the table module imports this one
    undo_entry(journal, txn, record)


_UNDO = {
    OP_HEAP_INSERT: _undo_heap_insert,
    OP_HEAP_DELETE: _undo_heap_change,
    OP_HEAP_UPDATE: _undo_heap_change,
    OP_ENTRY_INSERT: _undo_entry,
    OP_ENTRY_DELETE: _undo_entry,
    OP_OBJ_INSERT: _undo_obj_entry,
    OP_OBJ_DELETE: _undo_obj_entry,
}

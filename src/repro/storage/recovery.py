"""Crash recovery — ARIES-style analysis / redo / undo over the WAL.

:func:`recover` restores the database to the state reflecting exactly the
committed transactions:

1. **Analysis** scans the whole log (our logs are truncated at quiescent
   checkpoints, so a full scan is bounded by work since the last one) and
   classifies transactions into winners (COMMIT seen) and losers.
2. **Redo** repeats history: the redo ranges of every OP, UPDATE and CLR
   record whose LSN is newer than the target page's on-disk LSN are
   re-applied, committed or not.
3. **Undo** rolls the losers back in one backward pass over all of them
   in LSN order, with the step runtime abort uses
   (:meth:`repro.storage.journal.Journal.undo_step`): an unfinished
   nested top action (a B+tree split cut short) is rolled back
   physically before any earlier record of another loser is undone
   logically on the pages it touched, and a loser that crashed mid-abort
   resumes where its last CLR points.

Recovery finishes with a quiescent checkpoint, flushing all pages and
truncating the log.
"""

from __future__ import annotations

import heapq
from typing import Dict, Set

from ..errors import CorruptPageError
from .buffer import BufferPool
from .journal import Journal
from .wal import NULL_LSN, LogRecordType, WriteAheadLog


class RecoveryReport:
    """What recovery did — returned for tests, logs, and curiosity."""

    def __init__(self):
        self.records_scanned = 0
        self.redone = 0
        self.skipped_redo = 0
        self.winners: Set[int] = set()
        self.losers: Set[int] = set()
        #: Pages that failed their checksum during redo (torn/lost
        #: writes) and were rebuilt from the log by unconditional redo.
        self.repaired_pages: Set[int] = set()
        #: Where and why the log scan stopped before its physical end
        #: (``None`` for a clean tail; see ``WriteAheadLog.scan_stop``).
        self.wal_stop = None
        self.wal_stop_kind = None

    def __repr__(self):
        return ("RecoveryReport(scanned=%d, redone=%d, skipped=%d, "
                "winners=%d, losers=%d, repaired=%d)"
                % (self.records_scanned, self.redone, self.skipped_redo,
                   len(self.winners), len(self.losers),
                   len(self.repaired_pages)))


def recover(pool: BufferPool, wal: WriteAheadLog) -> RecoveryReport:
    """Run analysis/redo/undo; leave the store consistent and the log empty.

    Pages that fail their checksum during redo are rebuilt in place by
    *unconditional* redo: a torn page's on-disk LSN is meaningless (the
    tear may or may not include the stamped header), but the log retains
    every change to every page since the last quiescent checkpoint —
    which flushed all pages — so replaying all of the page's records over
    the torn image reconstructs its exact pre-crash state. Bytes the tear
    reverted are rewritten by some record; bytes no record touches were
    identical on both sides of the tear.
    """
    report = RecoveryReport()

    # ---- analysis ----
    last_lsn: Dict[int, int] = {}
    committed: Set[int] = set()
    ended: Set[int] = set()
    began: Set[int] = set()
    for lsn, record in wal.records():
        report.records_scanned += 1
        rtype = record["type"]
        txn = record["txn"]
        if rtype == LogRecordType.CHECKPOINT:
            continue
        if rtype == LogRecordType.BEGIN:
            began.add(txn)
        if rtype == LogRecordType.COMMIT:
            committed.add(txn)
        if rtype == LogRecordType.END:
            ended.add(txn)
        last_lsn[txn] = lsn

    report.winners = committed
    report.losers = began - committed - ended

    # ---- redo: repeat history ----
    suspect: Set[int] = set()
    for lsn, record in wal.records():
        ranges = record.get("ranges")
        if not ranges:
            continue  # no page change (an undo-only OP, a closing CLR)
        page_no = record["page_no"]
        # The fsynced log can reference pages whose (buffered) file
        # extension never reached disk; materialize them before pinning.
        pool.ensure_allocated(page_no)
        try:
            page = pool.pin(page_no)
        except CorruptPageError:
            # Torn/lost write. Admit the damaged bytes anyway and switch
            # this page to unconditional redo (its LSN is untrustworthy).
            page = pool.pin(page_no, unchecked=True)
            suspect.add(page_no)
            report.repaired_pages.add(page_no)
        if page_no in suspect or page.page_lsn < lsn:
            buf = page.buf
            for offset, after in ranges:
                buf[offset:offset + len(after)] = after
            page.page_lsn = lsn
            pool.unpin(page_no, dirty=True)
            report.redone += 1
        else:
            pool.unpin(page_no, dirty=False)
            report.skipped_redo += 1

    # ---- undo losers: one backward pass, newest record first ----
    journal = Journal(pool, wal)
    walk = []
    for txn in report.losers:
        journal.active[txn] = last_lsn[txn]
        walk.append((-last_lsn[txn], txn))
    heapq.heapify(walk)
    while walk:
        lsn, txn = heapq.heappop(walk)
        lsn = journal.undo_step(txn, -lsn)
        if lsn != NULL_LSN:
            heapq.heappush(walk, (-lsn, txn))
    # Pages the undo unlinked stay allocated: the free list is not
    # logged, so a page the crashed run took off it may still be on it
    # in the file, and freeing it here would list it twice.
    for txn in sorted(report.losers):
        wal.log_end(txn, journal.active[txn])

    report.wal_stop = wal.scan_stop
    report.wal_stop_kind = wal.scan_stop_kind

    # ---- quiescent checkpoint ----
    # flush_all rewrites every repaired page with a fresh checksum; the
    # page file must be durable *before* the log is truncated (WAL rule).
    wal.flush()
    pool.flush_all()
    pool.sync()
    wal.truncate()
    return report


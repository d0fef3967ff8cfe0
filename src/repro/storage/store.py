"""Store — the storage engine facade used by the object layer.

A :class:`Store` bundles the page file, buffer pool, WAL, journal, lock
manager and catalog behind an API of *clusters* holding *objects*:

* A cluster is a named extent with its own heap file and an object
  table (:mod:`repro.storage.objtable`) mapping object keys to heap RIDs.
* An object is a record addressed by a ``(serial, version)`` key of
  unsigned 32-bit integers: either an object record the object layer
  encoded (:mod:`repro.storage.records`: a fixed header plus the field
  values of one of the cluster's layouts, which the catalog keeps) or
  any codec-encodable dict.
* Secondary indexes (B+trees) may be created per cluster; the *caller*
  maintains their entries (the store does not know which fields of the
  payload are indexed).

A store is one page file (``<path>``) plus its log (``<path>.wal``).
Opening a store whose WAL is non-empty runs crash recovery first, so a
process killed mid-transaction leaves exactly the committed state.

Lock order (see also ``journal.py``): lock-manager locks (blocking,
outermost, never requested under a latch) -> the store's metadata
``latch`` -> catalog lock -> journal latch -> pool latch -> WAL mutex
-> leaf locks (scan page cache, scan gate, metrics).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import (CatalogError, CorruptPageError, DuplicateKeyError,
                      StorageError)
from ..obs import EventLog, MetricsRegistry
from ..obs.metrics import _count_value
from .btree import BTree
from .codec import decode_value, encode_value
from .buffer import DEFAULT_POOL_SIZE, BufferPool
from .catalog import Catalog, ClusterInfo, IndexInfo
from .faults import FaultInjector
from .heap import RID, HeapFile, overflow_head
from .journal import Journal
from .locks import LockManager
from .objtable import ObjectTable
from .page import NO_PAGE
from .pagefile import PageFile
from .records import decode_record, record_key
from .recovery import RecoveryReport, recover
from .scanbatch import ScanBatch
from .upgrade import convert, merge_files
from .wal import WriteAheadLog


class Store:
    """Object store with WAL durability and 2PL locking."""

    def __init__(self, path: str, pool_size: int = DEFAULT_POOL_SIZE,
                 durability: str = "full"):
        """Open (or create) the store rooted at *path*.

        Files: ``<path>`` for the pages, ``<path>.wal`` for the log. If
        the log holds records from a previous crash, recovery runs before
        the store becomes usable; the report is kept at
        :attr:`last_recovery`. *durability* selects the commit fsync
        policy — ``"full"``, ``"group"`` or ``"none"`` (see
        :mod:`repro.storage.wal`). Layouts older files hold are converted
        before the store becomes usable (:mod:`repro.storage.upgrade`).
        """
        self.path = path
        # Observability first: one registry + event ring per store, shared
        # with the Database layer, attached before recovery so recovery
        # events (stopped-early scans, fault injections) are captured.
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        #: Shared fault injector (see :mod:`repro.storage.faults`); armed
        #: from the environment so a harness subprocess injects before it
        #: finishes opening, or programmatically via ``db.faults``.
        self.faults = FaultInjector.from_env()
        self.faults.attach_observability(self.events)
        self._pagefile = PageFile(path, faults=self.faults)
        # A store older binaries split over several page files becomes
        # one file first, recovering through the conversion's own router.
        self.last_recovery: Optional[RecoveryReport] = merge_files(
            self, pool_size)
        self._pool = BufferPool(self._pagefile, capacity=pool_size)
        self._wal = WriteAheadLog(path + ".wal", durability=durability,
                                  faults=self.faults)
        self._wal.attach_observability(self.metrics, self.events)
        if self.last_recovery is None and self._wal.end_lsn > 0:
            # No corruption handler is attached yet: a torn page found
            # here is *repaired* by redo, not quarantined.
            self.last_recovery = recover(self._pool, self._wal)
        if self.last_recovery is not None \
                and self.last_recovery.repaired_pages:
            self.events.emit("recovery_repair",
                             pages=sorted(self.last_recovery.repaired_pages))
        self._journal = Journal(self._pool, self._wal)
        #: Count of checksum failures seen at runtime (pages quarantined).
        self.corrupt_pages = 0
        self._pool.on_corrupt_page = self._on_corrupt_page
        #: The store's metadata latch: guards the catalog-backed state
        #: (structure caches, serial blocks, cluster DDL) and every
        #: per-key heap + object-table operation. Logical isolation is
        #: the lock manager's job; never block on :attr:`locks` while
        #: holding it.
        self.latch = threading.RLock()
        self.locks = LockManager()
        self.catalog = Catalog(self._journal, self._pagefile,
                               self._journal.begin)
        #: cluster -> structure caches.
        self._heaps: Dict[str, HeapFile] = {}
        self._directories: Dict[str, ObjectTable] = {}
        self._indexes: Dict[Tuple[str, str], Any] = {}
        #: cluster -> [next unissued serial, end of reserved block)
        self._serial_blocks: Dict[str, list] = {}
        #: page -> (page_lsn, slot_count, ScanBatch, owner) for batched
        #: scans, least recently used first; *owner* is the first page
        #: of the scanned cluster's heap. A batch holds the
        #: page's record *bytes*, never decoded values (see
        #: :mod:`repro.storage.scanbatch`). Entries self-invalidate on
        #: LSN mismatch (LSNs are globally monotone, even across WAL
        #: truncation, so a stale entry can never match a rewritten
        #: page). Eviction: :meth:`_page_cache_insert`. Guarded by its
        #: own leaf lock so concurrent client scans share it without
        #: touching the metadata latch.
        self._page_cache: "OrderedDict[int, tuple]" = OrderedDict()
        self._pc_lock = threading.Lock()
        self.page_cache_hits = 0
        self.page_cache_misses = 0
        self.page_cache_evictions = 0
        #: Records whose key a scan read off the bytes (bumped under
        #: ``_pc_lock`` when a batch is built) and records a scan batch
        #: decoded (``itertools.count``: concurrent consumers decode with
        #: no lock held, and ``next()`` is one C call, so unlike a ``+=``
        #: it never loses an update under the GIL).
        self.scan_records_peeked = 0
        self._scan_decodes = itertools.count()
        #: Commit hook: called as ``on_commit(txn, clsn)`` after the WAL
        #: commit record exists but *before* the transaction's locks are
        #: released (clsn is None for degraded trivial commits). The
        #: object layer uses it to stamp MVCC visibility.
        self.on_commit = None
        #: Scan/vacuum gate. MVCC scans walk heap page chains without a
        #: cluster lock, but vacuum frees (and the allocator may recycle)
        #: the old chain's pages at commit; the gate makes vacuum wait
        #: until no other thread is inside a chain walk. Readers are
        #: counted per thread (re-entrant; a scanning thread that itself
        #: vacuums cannot deadlock against its own count).
        self._scan_gate = threading.Condition(threading.Lock())
        self._scan_readers: Dict[int, int] = {}
        #: Maintenance rewrites currently draining/holding the gate.
        self._maint_waiters = 0
        #: Set by :meth:`quiesce` on the close path: in-flight chain
        #: walks have drained and new ones are refused (StorageError)
        #: instead of racing the final checkpoint / file close.
        self._quiesced = False
        self._closed = False
        # Components keep their plain-int counters (bumped under their
        # existing locks) and the registry samples them lazily — absorbing
        # the old stats() dicts costs nothing on the hot paths.
        self._register_metrics()
        self.locks.attach_observability(self.metrics, self.events)
        self._upgrade_format()

    def _upgrade_format(self) -> None:
        """Convert every retired on-disk layout the files hold, in one
        crash-atomic transaction (see :mod:`repro.storage.upgrade`)."""
        convert(self)

    def _register_metrics(self) -> None:
        pool = self._pool
        metrics = self.metrics
        metrics.counter_fn("buffer.hits", lambda: pool.hits)
        metrics.counter_fn("buffer.misses", lambda: pool.misses)
        metrics.counter_fn("buffer.directory_hits",
                           lambda: pool.directory_hits)
        metrics.counter_fn("buffer.directory_misses",
                           lambda: pool.directory_misses)
        metrics.counter_fn("buffer.evictions", lambda: pool.evictions)
        metrics.counter_fn("buffer.writebacks", lambda: pool.writebacks)
        metrics.counter_fn("buffer.prefetches", lambda: pool.prefetches)
        metrics.counter_fn("buffer.readahead_pages",
                           lambda: pool.readahead_pages)
        metrics.gauge_fn("buffer.hit_ratio",
                         lambda: (pool.hits / (pool.hits + pool.misses))
                         if (pool.hits + pool.misses) else 0.0)
        metrics.gauge_fn("buffer.cached", lambda: len(pool._frames))
        metrics.gauge_fn("buffer.capacity", lambda: pool.capacity)
        metrics.counter_fn("page_cache.hits", lambda: self.page_cache_hits)
        metrics.counter_fn("page_cache.misses",
                           lambda: self.page_cache_misses)
        metrics.counter_fn("page_cache.evictions",
                           lambda: self.page_cache_evictions)
        metrics.gauge_fn("page_cache.hit_ratio", self._page_cache_hit_ratio)
        metrics.gauge_fn("page_cache.cached_pages",
                         lambda: len(self._page_cache))
        metrics.counter_fn("scan.records_peeked",
                           lambda: self.scan_records_peeked)
        metrics.counter_fn("scan.records_decoded",
                           lambda: _count_value(self._scan_decodes))
        metrics.gauge_fn("store.pages", lambda: self._pagefile.page_count)
        metrics.counter_fn("storage.corrupt_pages",
                           lambda: self.corrupt_pages)
        metrics.counter_fn("buffer.checksum_failures",
                           lambda: pool.checksum_failures)
        metrics.gauge_fn("storage.quarantined_pages",
                         lambda: len(self._pool.quarantined))
        metrics.gauge_fn("storage.degraded",
                         lambda: 0 if self.degraded is None else 1)
        metrics.counter_fn("faults.injected", lambda: self.faults.injected)
        metrics.counter_fn("events.dropped", lambda: self.events.dropped)

    #: Pages per heap-growth extent for cluster heaps: objects of one
    #: cluster land in physically contiguous runs (cluster-local
    #: placement), which is what makes scan readahead effective.
    EXTENT_PAGES = 8

    #: Bound on the scan page cache (pages, not bytes). A cluster
    #: longer than this keeps all but one of its cached pages across
    #: repeated scans (see :meth:`_page_cache_insert`).
    PAGE_CACHE_PAGES = 512

    def _structs(self, cluster: str) -> Tuple[HeapFile, ObjectTable]:
        """*cluster*'s heap and object table (caller holds the latch)."""
        heap = self._heaps.get(cluster)
        directory = self._directories.get(cluster)
        if heap is None or directory is None:
            return self._heap(cluster), self._directory(cluster)
        return heap, directory

    # -- transactions ------------------------------------------------------------

    def begin(self) -> int:
        """Start a transaction; returns its id."""
        return self._journal.begin()

    def commit(self, txn: int) -> None:
        """Durably commit *txn* and release its locks."""
        clsn = self._journal.commit(txn)
        hook = self.on_commit
        if hook is not None:
            # Before lock release: a conflicting writer waiting on one of
            # this transaction's X locks must find the commit already
            # stamped when it is granted.
            hook(txn, clsn)
        self.locks.release_all(txn)

    def abort(self, txn: int, release_locks: bool = True) -> None:
        """Roll back *txn* (undoing all its page effects), release locks.

        The in-memory catalog is re-read from disk because the aborted
        transaction may have created clusters or indexes. With
        *release_locks=False* the caller keeps the transaction's locks —
        the object layer uses this to reload its caches from the rolled
        back store before other transactions can touch the same objects,
        and then calls ``locks.release_all(txn)`` itself.
        """
        with self.latch:
            self._journal.abort(txn)
            self.catalog.invalidate()
            self._forget_stale_structures()
        if release_locks:
            self.locks.release_all(txn)

    def _forget_stale_structures(self) -> None:
        """Drop the structure handles the re-read catalog no longer
        names at the same page: those an aborted create or rewrite made.

        A handle the catalog still names is valid as it is — heap growth
        and tree structure changes survive an abort — and keeping it
        spares the next insert the walk to the heap's tail.
        """
        catalog = self.catalog
        for handles, page, attr in ((self._heaps, "heap_page", "first_page"),
                                    (self._directories, "directory_page",
                                     "root_page")):
            for name, handle in list(handles.items()):
                info = catalog.get_cluster(name)
                if (info is None
                        or getattr(info, page) != getattr(handle, attr)):
                    del handles[name]
        for (name, field), index in list(self._indexes.items()):
            info = catalog.get_cluster(name)
            ix_info = None if info is None else info.indexes.get(field)
            if ix_info is None or ix_info.root_page != index.root_page:
                del self._indexes[(name, field)]

    def checkpoint(self) -> None:
        """Flush dirty pages; truncate the WAL if quiescent."""
        self._journal.checkpoint()
        self._pagefile.sync()

    def set_durability(self, mode: str, group_size: Optional[int] = None,
                       group_window: Optional[float] = None) -> None:
        """Switch the commit fsync policy (see :mod:`repro.storage.wal`)."""
        self._wal.set_durability(mode, group_size, group_window)

    @property
    def durability(self) -> str:
        return self._wal.durability

    @property
    def active_transactions(self) -> List[int]:
        return list(self._journal.active)

    # -- clusters -----------------------------------------------------------------

    def create_cluster(self, txn: int, name: str,
                       parents: Optional[List[str]] = None) -> ClusterInfo:
        """Create the extent for *name* (the paper's ``create`` macro): an
        empty heap and object table."""
        parents = parents or []
        with self.latch:
            for parent in parents:
                if not self.catalog.has_cluster(parent):
                    raise CatalogError(
                        "parent cluster %r of %r does not exist"
                        % (parent, name))
            heap = HeapFile.create(self._journal, txn,
                                   extent=self.EXTENT_PAGES)
            directory = ObjectTable.create(self._journal, txn)
            info = self.catalog.add_cluster(txn, name, parents,
                                            heap.first_page,
                                            directory.root_page)
            self._heaps[name] = heap
            self._directories[name] = directory
            return info

    def has_cluster(self, name: str) -> bool:
        return self.catalog.has_cluster(name)

    def cluster_info(self, name: str) -> ClusterInfo:
        info = self.catalog.get_cluster(name)
        if info is None:
            raise CatalogError("no cluster named %r" % name)
        return info

    def _heap(self, name: str) -> HeapFile:
        with self.latch:
            heap = self._heaps.get(name)
            if heap is None:
                heap = HeapFile(self._journal,
                                self.cluster_info(name).heap_page,
                                extent=self.EXTENT_PAGES)
                self._heaps[name] = heap
            return heap

    def _directory(self, name: str) -> ObjectTable:
        """The object table of one cluster."""
        with self.latch:
            directory = self._directories.get(name)
            if directory is None:
                directory = ObjectTable(
                    self._journal, self.cluster_info(name).directory_page)
                self._directories[name] = directory
            return directory

    #: Serials are reserved from the catalog in blocks of this size, so a
    #: catalog write is paid once per block instead of once per pnew. A
    #: crash wastes the block's unissued serials — ids stay unique, they
    #: are just not dense (the standard sequence trade-off).
    SERIAL_BLOCK = 64

    def allocate_serial(self, txn: int, cluster: str) -> int:
        """Hand out the next object serial number for *cluster*.

        A block is reserved as a nested top action of *txn*
        (:meth:`Catalog.reserve_serials`) and handed to every transaction
        from memory afterwards: neither an abort nor a crash of *txn* can
        take back a serial another transaction has already committed.
        """
        with self.latch:
            block = self._serial_blocks.get(cluster)
            if block is None or block[0] >= block[1]:
                start = self.catalog.reserve_serials(
                    txn, self.cluster_info(cluster), self.SERIAL_BLOCK)
                block = [start, start + self.SERIAL_BLOCK]
                self._serial_blocks[cluster] = block
            serial = block[0]
            block[0] += 1
            return serial

    # -- objects --------------------------------------------------------------------

    def put(self, txn: int, cluster: str, key: Tuple, data,
            new: bool = False) -> None:
        """Insert or overwrite the object at *key* in *cluster*.

        *data* is an encoded object record (``bytes``, stored as is) or
        a dict to encode. *new=True* asserts the key does not exist yet:
        if it does, :class:`DuplicateKeyError` is raised before anything
        is written.
        """
        payload = data if data.__class__ is bytes else encode_value(data)
        with self.latch:
            heap, directory = self._structs(cluster)
            self._put_locked(txn, heap, directory, key, payload, new)

    @staticmethod
    def _put_locked(txn: int, heap: HeapFile, directory, key: Tuple,
                    payload: bytes, new: bool = False) -> RID:
        existing = directory.search(key)
        if existing is None:
            rid = heap.insert(txn, payload)
            directory.insert(txn, key, rid)
            return rid
        if new:
            raise DuplicateKeyError("object key %r already exists" % (key,))
        rid = RID(*existing)
        heap.update(txn, rid, payload)
        return rid

    def put_with_token(self, txn: int, cluster: str, key: Tuple,
                       data) -> Tuple[RID, int]:
        """Like :meth:`put`, returning ``(rid, home_page_lsn)``.

        The token pair is the post-write physical validity token for the
        record (see :meth:`get_with_token`): the home page is edited on
        every path of a heap update — in-place, overflow rewrite, and
        relocation all stamp its LSN — so callers may cache the decoded
        *data* under ``(rid.page_no, lsn)`` and trust
        :meth:`tokens_valid` to catch any later mutation, including an
        abort's compensation writes.
        """
        payload = data if data.__class__ is bytes else encode_value(data)
        with self.latch:
            heap, directory = self._structs(cluster)
            rid = self._put_locked(txn, heap, directory, key, payload)
            return rid, heap.page_lsn(rid.page_no)

    def page_lsns(self, cluster: str, page_nos) -> Dict[int, int]:
        """Current LSNs of a set of *cluster* heap pages.

        Token-refresh helper for batch writers: after a run of puts has
        settled, the caller re-primes its decoded cache against these
        LSNs (see :meth:`get_with_token` for the token contract).
        """
        pool = self._pool
        lsns: Dict[int, int] = {}
        for page_no in set(page_nos):
            with pool.page(page_no) as page:
                lsns[page_no] = page.page_lsn
        return lsns

    def get(self, cluster: str, key: Tuple) -> Optional[Dict]:
        """Fetch the object at *key*, decoded, or None."""
        with self.latch:
            heap, directory = self._structs(cluster)
            hit = directory.search(key)
            if hit is None:
                return None
            raw = heap.read(RID(*hit))
        return decode_record(raw, self.catalog.layouts(cluster))

    def get_with_token(self, cluster: str,
                       key: Tuple) -> Tuple[Optional[Dict], Optional[RID],
                                            int]:
        """Fetch ``(data, rid, home_page_lsn)``; ``(None, None, 0)`` if absent.

        The ``(rid.page_no, lsn)`` pair is a physical validity token for
        the decoded value: as long as :meth:`tokens_valid` confirms it,
        the record's bytes cannot have changed (every mutation of a heap
        record edits its home page, bumping the LSN; LSNs are globally
        monotone even across WAL truncation and page recycling). Callers
        must not trust tokens with ``lsn == 0`` — freshly formatted pages
        start there.
        """
        with self.latch:
            heap, directory = self._structs(cluster)
            hit = directory.search(key)
            if hit is None:
                return None, None, 0
            rid = RID(*hit)
            raw, lsn = heap.read_with_lsn(rid)
        return decode_record(raw, self.catalog.layouts(cluster)), rid, lsn

    def tokens_valid(self, tokens) -> bool:
        """True iff every ``(page_no, lsn)`` matches the page's current LSN.

        Pages for repeated page numbers are pinned once. This is the
        whole validation cost of the object layer's decoded cache: a
        couple of buffer-pool hits instead of directory probes + decodes.
        """
        pool = self._pool
        seen: Dict[int, int] = {}
        for page_no, lsn in tokens:
            current = seen.get(page_no)
            if current is None:
                with pool.page(page_no) as page:
                    current = page.page_lsn
                seen[page_no] = current
            if current != lsn:
                return False
        return True

    def exists(self, cluster: str, key: Tuple) -> bool:
        with self.latch:
            return self._structs(cluster)[1].search(key) is not None

    def delete(self, txn: int, cluster: str, key: Tuple) -> bool:
        """Delete the object at *key*; returns whether it existed."""
        with self.latch:
            heap, directory = self._structs(cluster)
            rid = directory.delete(txn, key)
            if rid is None:
                return False
            heap.delete(txn, RID(*rid))
            return True

    # -- scan/vacuum gate --------------------------------------------------------

    def _scan_enter(self) -> None:
        """Register this thread as a chain walker.

        A pending maintenance rewrite (vacuum) blocks *new*
        walkers until it commits — without that priority, back-to-back
        scans starve :meth:`_maintenance_begin` forever. Re-entrant
        admission (this thread already walks) always passes.
        """
        ident = threading.get_ident()
        with self._scan_gate:
            if self._quiesced and not self._scan_readers.get(ident):
                # The store is closing: failing cleanly here beats a page
                # read racing the final checkpoint or a closed file.
                raise StorageError("store is shutting down; scan refused")
            while (self._maint_waiters
                   and not self._scan_readers.get(ident)):
                self._scan_gate.wait(timeout=1.0)
                if (self._quiesced
                        and not self._scan_readers.get(ident)):
                    raise StorageError(
                        "store is shutting down; scan refused")
            self._scan_readers[ident] = self._scan_readers.get(ident, 0) + 1

    def _scan_exit(self) -> None:
        ident = threading.get_ident()
        with self._scan_gate:
            depth = self._scan_readers.get(ident, 0) - 1
            if depth <= 0:
                self._scan_readers.pop(ident, None)
                self._scan_gate.notify_all()
            else:
                self._scan_readers[ident] = depth

    def _maintenance_begin(self) -> None:
        """Drain chain walkers and hold new ones out.

        Returns once no *other* thread is inside a walk; scans arriving
        meanwhile (and until :meth:`_maintenance_end`) block at
        :meth:`_scan_enter`, so the caller's page rewrite + commit —
        which moves records and frees the old chain — can never overlap
        a walk of the chains it is retiring. Callers must already hold
        the cluster's X lock and must pair with ``_maintenance_end`` in
        a ``finally``.
        """
        ident = threading.get_ident()
        with self._scan_gate:
            self._maint_waiters += 1
            while any(t != ident for t in self._scan_readers):
                self._scan_gate.wait(timeout=1.0)

    def _maintenance_end(self) -> None:
        with self._scan_gate:
            self._maint_waiters -= 1
            self._scan_gate.notify_all()

    def quiesce(self, timeout: float = 10.0) -> bool:
        """Drain in-flight chain walks and refuse new ones (close path).

        Returns once no *other* thread is inside a scan, or after
        *timeout* seconds — a paused scan iterator held by application
        code must not hang ``close()`` forever, so the drain is
        best-effort-with-deadline. Either way the store is marked
        quiesced afterwards: late scans get a clean
        :class:`~repro.errors.StorageError` instead of racing the final
        checkpoint. Returns whether the drain completed. Idempotent.
        """
        ident = threading.get_ident()
        deadline = time.monotonic() + timeout
        with self._scan_gate:
            self._quiesced = True
            self._scan_gate.notify_all()
            while any(t != ident for t in self._scan_readers):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._scan_gate.wait(timeout=min(remaining, 1.0))
            return True

    def scan(self, cluster: str) -> Iterator[Tuple[RID, Dict]]:
        """Yield ``(rid, data)`` for every object in *cluster*.

        :meth:`scan_batches` flattened to one record at a time; the same
        fixpoint property holds. A record's key is in its batch's
        :attr:`ScanBatch.keys`, not in the decoded dict. Every dict is
        decoded for this caller alone.
        """
        for batch in self.scan_batches(cluster):
            yield from batch

    def scan_batches(self, cluster: str) -> Iterator[ScanBatch]:
        """Yield one late-decoding :class:`ScanBatch` per page of *cluster*.

        ~2 pins per page instead of one per slot, heap readahead ahead of
        the cursor, and a bounded page cache keyed on the page LSN so a
        re-scan of an unchanged page skips the slot reads and key peeks.
        The cache keeps the pages ahead of a scan's cursor, so a repeated
        scan of a cluster longer than the cache still hits all but one of
        the pages the cache holds (:meth:`_page_cache_insert`).
        Nothing is decoded here: a batch knows its records' keys from a
        fixed-offset peek and decodes a record only when the consumer
        asks for it.

        Objects inserted behind the cursor during the iteration are
        still visited — the property the paper's fixpoint queries require
        (section 3.2): each page is re-checked after its batch is
        consumed, and the walk follows the chain's ``next_page`` as it
        stands when the page is done, so it reaches the pages growth
        linked meanwhile.
        """
        # Enter the gate before resolving the heap: a vacuum that was
        # admitted first swaps the caches before letting us through, so
        # the heap we resolve can never be mid-retirement.
        self._scan_enter()
        try:
            heap = self._heap(cluster)
            yield from self._walk(heap, self.catalog.layouts(cluster))
        finally:
            self._scan_exit()

    def _walk(self, heap: HeapFile, layouts):
        """*heap*'s batched page walk, from its first page to the chain's
        end. Pages it caches belong to the heap's first page (see
        :meth:`_page_cache_insert`); its batches decode object records
        through *layouts*, the cluster's."""
        pool = self._pool
        readahead = HeapFile.READAHEAD
        page_no = owner = heap.first_page
        start = 0
        span_lo = span_hi = page_no
        while page_no != NO_PAGE:
            if not span_lo <= page_no < span_hi:
                pool.prefetch(page_no, readahead)
                span_lo, span_hi = page_no, page_no + readahead
            while True:
                # Header peek: one (cold) pin tells us whether the cached
                # batch is current before we touch any slot.
                with pool.page(page_no, cold=True) as page:
                    lsn = page.page_lsn
                    slot_count = page.slot_count
                    next_page = page.next_page
                if slot_count <= start:
                    break
                if start == 0 and lsn:
                    with self._pc_lock:
                        hit = self._page_cache.get(page_no)
                        if (hit is not None and hit[0] == lsn
                                and hit[1] == slot_count):
                            self._page_cache.move_to_end(page_no)
                            self.page_cache_hits += 1
                            batch = hit[2]
                        else:
                            batch = None
                    if batch is not None:
                        yield batch
                        start = slot_count
                        continue
                slots, payloads, slot_count2, next_page, lsn2 = \
                    heap.read_page_records(page_no, start)
                batch = ScanBatch(page_no, slots, payloads,
                                  self._scan_decodes, layouts)
                with self._pc_lock:
                    self.scan_records_peeked += len(batch)
                    if (start == 0 and lsn and lsn2 == lsn
                            and slot_count2 == slot_count):
                        self.page_cache_misses += 1
                        self._page_cache_insert(
                            page_no, (lsn, slot_count, batch, owner))
                if batch:
                    yield batch
                start = slot_count2
            page_no = next_page
            start = 0

    def _page_cache_insert(self, page_no: int, entry: tuple) -> None:
        """Cache *entry* for *page_no* as the most recently used page
        (caller holds ``_pc_lock``).

        A page already cached (stale: its LSN or slot count moved) is
        replaced in place. Otherwise, with the cache full, one entry
        goes: the least recently used when another owner's, else the
        scanning owner's own most recently used — the page behind the
        cursor that its next pass needs last. Pages of dropped, freed or
        abandoned heaps thus age out oldest first, while a scan never
        evicts its own pages ahead of its cursor (DBMIN's rule for a
        looping file, Chou & DeWitt 1985).
        """
        cache = self._page_cache
        if page_no not in cache:
            owner = entry[3]
            while len(cache) >= self.PAGE_CACHE_PAGES:
                victim = next(iter(cache))
                if cache[victim][3] == owner:
                    victim = next(no for no in reversed(cache)
                                  if cache[no][3] == owner)
                del cache[victim]
                self.page_cache_evictions += 1
        cache[page_no] = entry
        cache.move_to_end(page_no)

    def _page_cache_hit_ratio(self) -> float:
        lookups = self.page_cache_hits + self.page_cache_misses
        return (self.page_cache_hits / lookups) if lookups else 0.0

    def count(self, cluster: str) -> int:
        return self._heap(cluster).count()

    # -- secondary indexes ------------------------------------------------------------

    def create_index(self, txn: int, cluster: str, field,
                     kind: str = "btree", unique: bool = False) -> IndexInfo:
        """Create a secondary index (a :class:`BTree`) on *cluster*.

        *field* is a field name, or a tuple/list of field names for a
        composite index (keyed on the value tuple, registered under the
        comma-joined name). *kind* ``"hash"`` is accepted as another
        spelling of the one index structure; the catalog records
        ``"btree"``.
        """
        if isinstance(field, (tuple, list)):
            fields = list(field)
            name = ",".join(fields)
        else:
            fields = [field]
            name = field
        with self.latch:
            info = self.cluster_info(cluster)
            if name in info.indexes:
                raise CatalogError("cluster %r already has an index on %r"
                                   % (cluster, name))
            if kind not in ("btree", "hash"):
                raise CatalogError("unknown index kind %r" % kind)
            index = BTree.create(self._journal, txn, unique=unique)
            ix_info = IndexInfo(name, "btree", index.root_page, unique,
                                fields)
            info.indexes[name] = ix_info
            self.catalog.save_cluster(txn, info)
            self._indexes[(cluster, name)] = index
            return ix_info

    def index(self, cluster: str, field: str) -> BTree:
        """The :class:`BTree` registered on *field*."""
        with self.latch:
            cached = self._indexes.get((cluster, field))
            if cached is not None:
                return cached
            info = self.cluster_info(cluster)
            ix_info = info.indexes.get(field)
            if ix_info is None:
                raise CatalogError("cluster %r has no index on %r"
                                   % (cluster, field))
            index = BTree(self._journal, ix_info.root_page, ix_info.unique)
            self._indexes[(cluster, field)] = index
            return index

    def indexes_on(self, cluster: str) -> Dict[str, IndexInfo]:
        with self.latch:
            return dict(self.cluster_info(cluster).indexes)

    # Latched index entry points. A multi-level B+tree descent or split
    # touches several pages; holding the latch for the whole operation
    # keeps a concurrent reader from observing the intermediate states
    # between those page edits.

    def index_insert(self, txn: int, cluster: str, field: str, key,
                     value) -> None:
        with self.latch:
            self.index(cluster, field).insert(txn, key, value)

    def index_delete(self, txn: int, cluster: str, field: str, key,
                     value=None) -> None:
        with self.latch:
            self.index(cluster, field).delete(txn, key, value)

    def index_search(self, cluster: str, field: str, key) -> List:
        with self.latch:
            return self.index(cluster, field).search(key)

    def index_range(self, cluster: str, field: str, lo=None, hi=None,
                    include_hi: bool = False):
        """Lazy ``(key, serial)`` range scan of a B+tree index.

        The walk takes the metadata latch a leaf at a time — never
        across a ``yield`` — which keeps early-exiting consumers (prefix
        scans, LIMIT-style iteration) from paying for keys they never
        look at and makes it physically safe beside index writers, who
        hold the same latch across a whole insert or delete (see
        :meth:`BTree._scan_range`). *Logical* consistency is the
        caller's: under MVCC the query layer overlays the cluster's
        dirty set on what it read here, under 2PL it holds the cluster's
        S lock for the duration of the scan.
        """
        return self.index(cluster, field).range(
            lo, hi, include_hi=include_hi, latch=self.latch)

    # -- maintenance ----------------------------------------------------------------

    def vacuum(self, cluster: str) -> Dict[str, int]:
        """Rewrite *cluster*'s heap and object table compactly.

        Deletes and relocations leave tombstones, forwarding stubs,
        sparse pages and dead object-table entries behind; vacuuming
        copies every live object into a fresh heap (and a fresh object
        table mapping keys to the new RIDs), swaps them into the catalog,
        and schedules the old pages for the free list at commit. The new
        heap is presized with one contiguous
        extent covering the live payloads, so vacuuming doubles as
        *reclustering*: a fragmented cluster comes back as a single
        physical run that readahead can stream. Secondary indexes map
        keys to *serials*, not RIDs, so they remain valid and are not
        rebuilt.

        Runs as one transaction of its own: the rewrite, the catalog swap
        and the page frees commit (or roll back) together. Returns
        ``{"objects": n, "pages_freed": m}``.
        """
        started = time.perf_counter()
        self.faults.fire("vacuum.pre", cluster=cluster)
        txn = self.begin()
        # Take the cluster exclusively *before* latching (the lock can
        # block; the latch must not be held while it does), so concurrent
        # transactions reading or writing the cluster are shut out for the
        # duration of the rewrite.
        self.locks.acquire(txn, ("cluster", cluster), "X")
        # MVCC readers walk heap chains without a cluster lock; drain
        # in-flight walks and hold new ones out until the commit frees
        # the old chain (a walker admitted mid-rewrite could otherwise
        # read recycled garbage).
        self._maintenance_begin()
        try:
            try:
                with self.latch:
                    moved, old_pages = self._vacuum_locked(txn, cluster)
            except BaseException:
                self.abort(txn)
                raise
            self.faults.fire("vacuum.commit.pre", cluster=cluster)
            self.commit(txn)
        finally:
            self._maintenance_end()
        self.events.emit("vacuum", cluster=cluster, objects=moved,
                         pages_freed=len(old_pages),
                         ms=(time.perf_counter() - started) * 1e3)
        return {"objects": moved, "pages_freed": len(old_pages)}

    def _vacuum_locked(self, txn: int,
                       cluster: str) -> Tuple[int, List[int]]:
        """Rewrite *cluster* under *txn*; swap it into the catalog. Caller
        holds the metadata latch and the cluster X lock."""
        info = self.cluster_info(cluster)
        directory = self._directory(cluster)
        new_heap, new_directory, moved, old_pages = rewrite_objects(
            self._journal, txn, [(self._heap(cluster), directory.items())],
            self._pool.capacity // 2)
        old_pages += directory.pages()
        info.heap_page = new_heap.first_page
        info.directory_page = new_directory.root_page
        self.catalog.save_cluster(txn, info)
        for page_no in old_pages:
            self._journal.free_page_deferred(txn, page_no)
        self._heaps[cluster] = new_heap
        self._directories[cluster] = new_directory
        self._journal.table_leaves.pop(directory.root_page, None)
        return moved, old_pages

    def fragmentation(self, cluster: str) -> Dict[str, Any]:
        """Physical layout of *cluster*'s heap chain.

        ``pages`` is the chain length, ``span`` the page-number distance
        covered (max - min + 1; equals ``pages`` for a perfectly clustered
        heap), ``runs`` the number of maximal physically-contiguous runs
        (1 is ideal). ``span / pages`` is the Darmont-style fragmentation
        factor the EXPERIMENTS entry tracks. ``directory`` is
        :meth:`directory_stats`.
        """
        pages: List[int] = []
        with self.latch:
            page_no = self._heap(cluster).first_page
            while page_no != NO_PAGE:
                pages.append(page_no)
                with self._pool.page(page_no, cold=True) as page:
                    page_no = page.next_page
        span = max(pages) - min(pages) + 1
        return {
            "pages": len(pages),
            "span": span,
            "runs": 1 + sum(1 for a, b in zip(pages, pages[1:])
                            if b != a + 1),
            "fragmentation": span / len(pages),
            "directory": self.directory_stats(cluster),
        }

    def directory_stats(self, cluster: str) -> Dict[str, Any]:
        """Occupancy of *cluster*'s object table: ``leaf_pages``,
        ``live_entries`` and ``dead_entries`` — the dead ones being
        positions deletes left on leaves that still hold a live entry,
        which the next insert into such a leaf reuses.

        Walks every leaf page (cold pins), so the numbers are taken on
        demand — here, :meth:`fragmentation`, ``db.stats()`` — and never
        by a metrics snapshot."""
        with self.latch:
            return self._directory(cluster).stats()

    def verify_integrity(self) -> List[str]:
        """Cross-check every structure; returns a list of problems
        (empty means the store is internally consistent).

        Checks per cluster: the directory's RIDs resolve to readable heap
        records; heap record count matches directory entry count; index
        structural invariants hold; secondary-index entries reference
        serials that exist in the directory.
        """
        problems: List[str] = []
        self.latch.acquire()
        try:
            return self._verify_integrity_locked(problems)
        finally:
            self.latch.release()

    def _verify_integrity_locked(self, problems: List[str]) -> List[str]:
        for info in self.catalog.clusters():
            cluster = info.name
            heap, directory = self._structs(cluster)
            try:
                directory.check_invariants()
            except Exception as exc:
                problems.append("%s: directory invariant: %s"
                                % (cluster, exc))
            serials = set()
            entries = 0
            for key, rid_tuple in directory.items():
                entries += 1
                serials.add(key[0])
                try:
                    heap.read(RID(*rid_tuple))
                except Exception as exc:
                    problems.append("%s: key %r -> unreadable RID %r: %s"
                                    % (cluster, key, rid_tuple, exc))
            heap_count = heap.count()
            if heap_count != entries:
                problems.append("%s: heap has %d records but directory has "
                                "%d entries" % (cluster, heap_count, entries))
            for field, ix_info in info.indexes.items():
                index = self.index(cluster, field)
                try:
                    index.check_invariants()
                except Exception as exc:
                    problems.append("%s.%s: index invariant: %s"
                                    % (cluster, field, exc))
                for _key, serial in index.items():
                    if serial not in serials:
                        problems.append(
                            "%s.%s: index references missing serial %r"
                            % (cluster, field, serial))
        return problems

    # -- corruption containment, scrubbing & repair ---------------------------------

    def _on_corrupt_page(self, page_no: int, exc: Exception) -> None:
        """Buffer-pool callback: a page failed its checksum at admit time.

        Called under the pool latch. Quarantines the page and flips the store into read-only degraded mode: reads
        off healthy pages keep working, writers get
        :class:`DegradedModeError` until :meth:`repair_quarantined` (or a
        reopen after the disk is fixed) clears it.
        """
        self._pool.quarantined.add(page_no)
        self.corrupt_pages += 1
        if self._journal.degraded is None:
            self._journal.degraded = "page %d failed its checksum" % page_no
        self.events.emit("page_corrupt", page_no=page_no, error=str(exc),
                         quarantined=len(self._pool.quarantined))

    @property
    def degraded(self) -> Optional[str]:
        """Why the store is read-only, or ``None`` when healthy."""
        if self._journal.degraded is not None:
            return self._journal.degraded
        if self._wal.failed is not None:
            return "WAL flush failed: %s" % self._wal.failed
        return None

    #: Pages per scrub read batch (one I/O each).
    SCRUB_SPAN = 64

    def scrub(self) -> Dict[str, Any]:
        """Verify the checksum of every allocated page's on-disk image.

        Reads straight from the page file (bypassing the pool) in large
        spans. Pages with a dirty in-memory frame are skipped —
        their disk image is legitimately stale and will be rewritten,
        with a fresh checksum, at the next flush. Bad pages are
        quarantined exactly as if a pin had found them, flipping the
        store into degraded mode.
        """
        import time as _time
        from .page import PAGE_SIZE, verify_checksum
        started = _time.perf_counter()
        bad: List[int] = []
        checked = 0
        with self.latch:
            frames = self._pool._frames
            count = self._pagefile.page_count
            for start in range(1, count, self.SCRUB_SPAN):
                raw = self._pagefile.read_span(
                    start, min(self.SCRUB_SPAN, count - start))
                mv = memoryview(raw)
                for i in range(len(raw) // PAGE_SIZE):
                    page_no = start + i
                    frame = frames.get(page_no)
                    if frame is not None and frame.dirty:
                        continue
                    checked += 1
                    if not verify_checksum(
                            mv[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]):
                        bad.append(page_no)
            for page_no in bad:
                if page_no not in self._pool.quarantined:
                    self._on_corrupt_page(page_no, CorruptPageError(
                        "scrub: page %d failed its checksum" % page_no,
                        page_no=page_no))
        self.events.emit("scrub", pages_checked=checked, bad_pages=len(bad),
                         quarantined=len(self._pool.quarantined),
                         ms=(_time.perf_counter() - started) * 1e3)
        return {"pages_checked": checked, "bad_pages": bad,
                "quarantined": len(self._pool.quarantined),
                "degraded": self.degraded}

    def repair_quarantined(self) -> Dict[str, Any]:
        """Salvage every cluster touched by corruption; clear degraded mode.

        Each cluster whose heap, object directory or secondary indexes
        hit a corrupt page has its surviving objects copied into a fresh
        heap and directory — directory-driven when the directory is
        readable, otherwise a tolerant heap-chain walk recovering keys
        from the payloads' record headers — and all of its secondary
        indexes recreated *empty* (the object layer knows the field
        semantics and repopulates them; see ``Database.repair``). Old
        pages still reachable without touching corruption are freed;
        corrupt pages and anything stranded behind them stay quarantined
        and are leaked — never reused, never decoded.

        Raises :class:`StorageError` if the WAL itself has failed (only
        a reopen recovers that) and propagates the corruption error if
        the catalog is damaged (unrepairable in place).
        """
        if self._wal.failed is not None:
            raise StorageError(
                "cannot repair in place: the WAL has failed (%s); close "
                "and reopen the store to recover from the durable prefix"
                % self._wal.failed)
        report: Dict[str, Any] = {"clusters": {}}
        prior = self._journal.degraded
        # Lift the write gate for the repair itself; restored on failure.
        self._journal.degraded = None
        try:
            with self.latch:
                affected = []
                for info in self.catalog.clusters():
                    probe = self._probe_cluster(info)
                    if probe is not None:
                        affected.append((info.name, probe))
            for name, (items, lost, authoritative) in affected:
                stats = self._rebuild_cluster(name, items)
                stats["lost_objects"] = lost
                stats["directory_authoritative"] = authoritative
                report["clusters"][name] = stats
        except BaseException:
            self._journal.degraded = prior
            raise
        report["leaked_pages"] = len(self._pool.quarantined)
        report["degraded"] = self.degraded
        self.events.emit("repair", clusters=sorted(report["clusters"]),
                         leaked_pages=report["leaked_pages"])
        return report

    def _probe_cluster(self, info: ClusterInfo):
        """Health-check one cluster under the latch.

        Returns ``None`` when every page of the cluster is reachable and
        sound, else ``(items, lost, directory_authoritative)`` where
        *items* is an ordered ``key -> payload`` map of the salvageable
        objects.
        """
        cluster = info.name
        healthy = True
        items: "OrderedDict[Tuple, bytes]" = OrderedDict()
        lost = 0
        heap = directory = None
        try:
            # find_tail=False: the probe must be able to read records by
            # RID even when a corrupt page cuts the chain walk short.
            heap = HeapFile(self._journal, info.heap_page,
                            extent=self.EXTENT_PAGES, find_tail=False)
            directory = self._directory(cluster)
            # A structurally unsound directory is not trusted for any
            # key: the heap's record headers rebuild it.
            directory.check_invariants()
            rid_items = list(directory.items())
        except Exception:
            healthy = False
            rid_items = None
        authoritative = rid_items is not None
        if authoritative:
            for key, rid_tuple in rid_items:
                try:
                    items[tuple(key)] = heap.read(RID(*rid_tuple))
                except Exception:
                    healthy = False
                    lost += 1
        else:
            for key, payload in self._salvage_heap_chain(cluster):
                if key is None:
                    lost += 1
                else:
                    items[key] = payload
        if healthy:
            try:
                # Structural walks: the chain can hold corrupt pages that
                # no live directory entry references (tombstone-only
                # pages), and index corruption is invisible to heap reads.
                heap.pages()
                directory.pages()
                for field in info.indexes:
                    self.index(cluster, field).check_invariants()
            except Exception:
                healthy = False
        if healthy:
            return None
        return items, lost, authoritative

    def _salvage_heap_chain(self, cluster: str):
        """Tolerantly walk *cluster*'s heap, yielding ``(key, payload)``.

        Used when the object directory is unreadable. Stops at the first
        broken chain link (records beyond it are lost). The key of an
        object record is its header's; a payload that is neither one nor
        a dict carrying a ``__key`` yields ``(None, payload)`` so the
        caller can count it as lost.
        """
        try:
            heap = HeapFile(self._journal, self.cluster_info(cluster).heap_page,
                            extent=self.EXTENT_PAGES, find_tail=False)
        except Exception:
            return
        page_no = heap.first_page
        seen = set()
        while page_no != NO_PAGE and page_no not in seen:
            seen.add(page_no)
            try:
                _slots, payloads, _count, next_page, _lsn = \
                    heap.read_page_records(page_no, 0)
            except Exception:
                return
            for raw in payloads:
                key = record_key(raw)
                if key is None:
                    try:
                        value = decode_value(raw)
                        if isinstance(value, dict):
                            key = value.get("__key")
                    except Exception:
                        key = None
                yield (None if key is None else tuple(key)), raw
            page_no = next_page

    def _rebuild_cluster(self, cluster: str, items) -> Dict[str, Any]:
        """Rewrite *cluster* from salvaged *items*; fresh empty indexes."""
        txn = self.begin()
        self.locks.acquire(txn, ("cluster", cluster), "X")
        self._maintenance_begin()
        try:
            try:
                with self.latch:
                    old_pages = self._rebuild_cluster_locked(txn, cluster,
                                                             items)
            except BaseException:
                self.abort(txn)
                raise
            self.commit(txn)
        finally:
            self._maintenance_end()
        return {"objects": len(items), "pages_freed": len(old_pages)}

    def _rebuild_cluster_locked(self, txn: int, cluster: str,
                                items) -> List[int]:
        """The rebuild body; caller holds latch, X lock and the gate."""
        info = self.cluster_info(cluster)
        old_pages = self._enumerable_pages(info)
        heap = HeapFile.create(self._journal, txn, extent=self.EXTENT_PAGES)
        directory = ObjectTable.create(self._journal, txn)
        for key, payload in items.items():
            directory.insert(txn, key, heap.insert(txn, payload))
        info.heap_page = heap.first_page
        info.directory_page = directory.root_page
        for field, ix_info in list(info.indexes.items()):
            index = BTree.create(self._journal, txn, unique=ix_info.unique)
            info.indexes[field] = IndexInfo(
                field, ix_info.kind, index.root_page, ix_info.unique,
                list(ix_info.fields))
            self._indexes[(cluster, field)] = index
        self.catalog.save_cluster(txn, info)
        for page_no in old_pages:
            if page_no not in self._pool.quarantined:
                self._journal.free_page_deferred(txn, page_no)
        self._heaps[cluster] = heap
        self._directories[cluster] = directory
        with self._pc_lock:
            self._page_cache.clear()
        return old_pages

    def _enumerable_pages(self, info: ClusterInfo) -> List[int]:
        """Pages of the cluster reachable without touching corruption.

        Chains are truncated at the first unreadable link; B+tree
        subtrees under an unreadable node are skipped. The result is safe
        to free — a page only appears if a sound pointer led to it.
        """
        pages: List[int] = []
        seen: set = set()

        def chain(first: int) -> None:
            page_no = first
            while page_no != NO_PAGE and page_no not in seen:
                seen.add(page_no)
                try:
                    with self._pool.page(page_no) as page:
                        nxt = page.next_page
                except Exception:
                    return
                pages.append(page_no)
                page_no = nxt

        chain(info.heap_page)
        for home in list(pages):
            try:
                with self._pool.page(home) as page:
                    records = list(page.slots())
                for _slot, raw in records:
                    chain(overflow_head(raw))
            except Exception:
                continue
        # All or nothing: a walk that meets corruption leaks the table's
        # pages rather than guess at them.
        try:
            found = self._directory(info.name).pages()
        except Exception:
            found = []
        seen.update(found)
        pages.extend(found)
        for field, ix_info in info.indexes.items():
            try:
                index = self.index(info.name, field)
            except Exception:
                continue
            queue = [ix_info.root_page]
            while queue:
                page_no = queue.pop()
                if page_no in seen:
                    continue
                seen.add(page_no)
                try:
                    children = index.children(page_no)
                except Exception:
                    continue
                pages.append(page_no)
                queue.extend(children)
        return pages

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Checkpoint and close. Active transactions are aborted first.

        After a WAL flush failure the checkpoint is skipped entirely —
        nothing volatile may reach the page file past the durable log
        prefix; the reopen recovers to it.
        """
        # Drain chain walkers *before* taking the latch (a walker needs
        # the latch to make progress, so waiting under it would deadlock)
        # and before the final checkpoint below — a client thread's scan
        # still in flight must never race the page files closing.
        self.quiesce()
        with self.latch:
            if self._closed:
                return
            for txn in list(self._journal.active):
                self.abort(txn)
            if self._wal.failed is None:
                self.checkpoint()
            self._pool.close()
            self._wal.close()
            self._pagefile.close()
            self._closed = True

    def crash(self) -> None:
        """Simulate a crash: drop everything volatile without flushing.

        For tests and the durability benchmarks. The store object becomes
        unusable; reopen the path to run recovery.
        """
        self._wal.close()
        self._pagefile.close()
        self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Counters from the pool, WAL and lock manager."""
        return {
            "pool": self._pool.stats(),
            "page_cache": {
                "hits": self.page_cache_hits,
                "misses": self.page_cache_misses,
                "evictions": self.page_cache_evictions,
                "hit_ratio": self._page_cache_hit_ratio(),
                "cached_pages": len(self._page_cache),
                "capacity_pages": self.PAGE_CACHE_PAGES,
            },
            "scan": {
                "records_peeked": self.scan_records_peeked,
                "records_decoded": _count_value(self._scan_decodes),
            },
            "wal_appends": self._wal.appends,
            "wal_syncs": self._wal.syncs,
            "wal_flush_calls": self._wal.flush_calls,
            "wal_group_deferrals": self._wal.group_deferrals,
            "durability": self._wal.durability,
            "locks": self.locks.stats(),
            "pages": self._pagefile.page_count,
            "storage_health": {
                "format_version": self._pagefile.format_version,
                "layouts": {info.name: len(self.catalog.layouts(info.name))
                            for info in self.catalog.clusters()},
                "degraded": self.degraded,
                "corrupt_pages": self.corrupt_pages,
                "quarantined": sorted(self._pool.quarantined),
                "wal_failed": (None if self._wal.failed is None
                               else str(self._wal.failed)),
                "faults_injected": self.faults.injected,
            },
        }


def _pages_for(payloads) -> int:
    """Heap pages needed to hold *payloads*, slightly overestimated."""
    from .heap import MIN_RECORD_SIZE, _REC_HDR
    from .page import HEADER_SIZE, PAGE_SIZE, SLOT_SIZE
    usable = PAGE_SIZE - HEADER_SIZE
    total = 0
    for payload in payloads:
        record = max(MIN_RECORD_SIZE, _REC_HDR.size + len(payload))
        total += min(record, usable) + SLOT_SIZE
    return -(-total // usable) if total else 1


def rewrite_objects(journal: Journal, txn: int, sources,
                    max_extent: int):
    """Copy objects into a fresh heap + object table under *txn*.

    *sources* is a list of ``(heap, [(key, rid), ...])``: each heap
    with the entries of the table that maps into it. Vacuum passes one
    cluster's pair; :func:`repro.storage.upgrade.merge_files` every pair
    of a cluster an older binary split over several files. Each heap is
    copied in its *physical chain order*, not key order: insertion placed
    related records together, and a key-order rewrite would scatter them.
    The new heap is presized with one extent of up to *max_extent* pages
    covering the payloads. Returns ``(heap, table, objects copied, the
    pages of the source heaps)`` without touching the catalog.
    """
    items: List[Tuple[Tuple, bytes]] = []
    old_pages: List[int] = []
    for heap, entries in sources:
        pages = heap.pages()
        chain_pos = {no: i for i, no in enumerate(pages)}
        ordered = sorted(entries, key=lambda kv: (
            chain_pos.get(kv[1][0], 1 << 60), kv[1][1]))
        items += [(tuple(key), heap.read(RID(*rid))) for key, rid in ordered]
        old_pages += pages
    new_heap = HeapFile.create(journal, txn, extent=Store.EXTENT_PAGES)
    new_table = ObjectTable.create(journal, txn)
    need = _pages_for(payload for _key, payload in items)
    if need > 1:
        # Capped so formatting the extent cannot churn the whole pool.
        new_heap.preallocate(txn, min(need, max(max_extent, 1)))
    for key, payload in items:
        new_table.insert(txn, key, new_heap.insert(txn, payload))
    return new_heap, new_table, len(items), old_pages

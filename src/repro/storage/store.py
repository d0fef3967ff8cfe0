"""Store — the storage engine facade used by the object layer.

A :class:`Store` bundles the page file, buffer pool, WAL, journal, lock
manager and catalog behind an API of *clusters* holding *objects*:

* A cluster is a named extent with its own heap file and an object
  table (:mod:`repro.storage.objtable`) mapping object keys to heap RIDs.
* An object is an opaque codec-encodable dict addressed by a
  ``(serial, version)`` key of unsigned 32-bit integers.
* Secondary indexes (B+trees) may be created per cluster; the *caller*
  maintains their entries (the store does not know which fields of the
  payload are indexed).

Opening a store whose WAL is non-empty runs crash recovery first, so a
process killed mid-transaction leaves exactly the committed state.

**Sharding** (ISSUE 8). A store may be created with N > 1 *shards*: the
pages split across N page files (``<path>``, ``<path>.s1`` ...), each
with its own buffer pool and latch, behind the gpid router of
:mod:`repro.storage.sharding`. Every cluster then keeps one heap + object
directory *per shard*, objects route to a shard by their key's serial,
and per-key operations only contend on their shard's latch — threads
working different shards proceed in parallel. The WAL, journal, catalog
and secondary indexes stay shared (single commit protocol, single
recovery pass); catalog and index pages all live in shard 0. A one-shard
store takes none of these paths and its file format is byte-identical to
the pre-sharding layout. The shard count is fixed at creation (persisted
in the bootstrap root table) and read back on reopen.

Lock order (see also ``journal.py`` / ``sharding.py``): lock-manager
locks (blocking, outermost, never requested under a latch) -> the
store's metadata ``latch`` -> catalog lock -> journal latch -> shard
latches in ascending order -> WAL mutex -> leaf locks (scan page
cache, scan gate, metrics).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
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
from .heap import RID, HeapFile
from .journal import Journal
from .locks import LockManager
from .objtable import LEAF_ENTRIES, ObjectTable
from .page import NO_PAGE
from .pagefile import PageFile
from .recovery import RecoveryReport, recover
from .scanbatch import ScanBatch
from .sharding import (MAX_SHARDS, ShardedPool, ShardJournal, ShardView,
                       global_page, local_page, shard_path)
from .upgrade import convert
from .wal import WriteAheadLog

#: Shard count at creation when the ``shards=`` parameter is not given.
ENV_SHARDS = "REPRO_SHARDS"


class Store:
    """Object store with WAL durability, 2PL locking and optional shards."""

    #: Bootstrap root entry persisting the shard count (0/absent = 1).
    SHARDS_ROOT_KEY = "shards"

    def __init__(self, path: str, pool_size: int = DEFAULT_POOL_SIZE,
                 durability: str = "full", shards: Optional[int] = None):
        """Open (or create) the store rooted at *path*.

        Files: ``<path>`` for shard-0 pages (and all metadata),
        ``<path>.sN`` for each further shard, ``<path>.wal`` for the
        shared log. If the log holds records from a previous crash,
        recovery runs before the store becomes usable; the report is kept
        at :attr:`last_recovery`. *durability* selects the commit fsync
        policy — ``"full"``, ``"group"`` or ``"none"`` (see
        :mod:`repro.storage.wal`). *shards* fixes the shard count when
        the store is first created (the ``REPRO_SHARDS`` environment
        variable applies when the parameter is omitted, and must then be
        an integer); an existing store always reopens with the count it
        was created with. Layouts older files hold are converted before
        the store becomes usable (:mod:`repro.storage.upgrade`).
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
        if shards is None:
            shards = self._env_shards()
        self._pagefile = PageFile(path, faults=self.faults)
        self._n_shards = self._resolve_shards(shards)
        self._pagefiles = [self._pagefile]
        for sid in range(1, self._n_shards):
            self.faults.fire("shard.open.pre", shard=sid)
            self._pagefiles.append(
                PageFile(shard_path(path, sid), faults=self.faults))
            self.faults.fire("shard.open.post", shard=sid)
        if self._n_shards == 1:
            self._pool = BufferPool(self._pagefile, capacity=pool_size)
            self._router: Optional[ShardedPool] = None
        else:
            per_shard = max(pool_size // self._n_shards, 16)
            self._router = ShardedPool(
                [BufferPool(pf, capacity=per_shard)
                 for pf in self._pagefiles])
            self._pool = self._router
        self._wal = WriteAheadLog(path + ".wal", durability=durability,
                                  faults=self.faults)
        self._wal.attach_observability(self.metrics, self.events)
        self.last_recovery: Optional[RecoveryReport] = None
        if self._wal.end_lsn > 0:
            # No corruption handler is attached yet: a torn page found
            # here is *repaired* by redo, not quarantined. Log records
            # carry gpids, so the one recovery pass covers every shard.
            self.last_recovery = recover(self._pool, self._wal)
            if self.last_recovery.repaired_pages:
                self.events.emit("recovery_repair",
                                 pages=sorted(
                                     self.last_recovery.repaired_pages))
        self._journal = Journal(self._pool, self._wal)
        if self._router is None:
            self._shard_journals: List[Any] = [self._journal]
        else:
            self._shard_journals = [
                ShardJournal(self._journal, ShardView(self._router, sid))
                for sid in range(self._n_shards)]
        #: Count of checksum failures seen at runtime (pages quarantined).
        self.corrupt_pages = 0
        if self._router is None:
            self._pool.on_corrupt_page = self._on_corrupt_page
        else:
            for sid, pool in enumerate(self._router.pools):
                pool.on_corrupt_page = (
                    lambda no, exc, s=sid:
                    self._on_corrupt_page(global_page(s, no), exc))
        #: The store's metadata latch: guards the catalog-backed state
        #: (structure caches, serial blocks, cluster DDL) and orders
        #: before every shard latch. Logical isolation is the lock
        #: manager's job; never block on :attr:`locks` while holding it.
        self.latch = threading.RLock()
        self.locks = LockManager()
        self.catalog = Catalog(self._journal, self._pagefile,
                               self._journal.begin)
        #: (cluster, shard) -> structure caches.
        self._heaps: Dict[Tuple[str, int], HeapFile] = {}
        self._directories: Dict[Tuple[str, int], ObjectTable] = {}
        self._indexes: Dict[Tuple[str, str], Any] = {}
        #: cluster -> [next unissued serial, end of reserved block)
        self._serial_blocks: Dict[str, list] = {}
        #: gpid -> (page_lsn, slot_count, ScanBatch) for batched scans.
        #: A batch holds the page's record *bytes*, never decoded values
        #: (see :mod:`repro.storage.scanbatch`). Entries self-invalidate
        #: on LSN mismatch (LSNs are globally monotone, even across WAL
        #: truncation, so a stale entry can never match a rewritten
        #: page). Guarded by its own leaf lock so concurrent client scans
        #: share it without touching the metadata latch.
        self._page_cache: "OrderedDict[int, tuple]" = OrderedDict()
        self._pc_lock = threading.Lock()
        self.page_cache_hits = 0
        self.page_cache_misses = 0
        #: Records whose key a scan read off the bytes (bumped under
        #: ``_pc_lock`` when a batch is built) and records a scan batch
        #: decoded (``itertools.count``: consumers decode with no lock
        #: held, see ``_shard_scans`` below).
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
        #: Scans started per shard (metric ``shard.scans{shard=...}``).
        #: ``itertools.count`` objects, not plain ints: concurrent scans
        #: of the *same* shard bump the same slot from different client
        #: threads (scans hold no lock here), and a
        #: list-element ``+=`` is a read-modify-write that loses updates
        #: under the GIL. ``next()`` is one C call, so it never does.
        self._shard_scans = [itertools.count()
                             for _ in range(self._n_shards)]
        #: Reclustering counters (``recluster.*`` metrics).
        self.recluster_runs = 0
        self.recluster_moved = 0
        #: Access profile feeding the reclustering daemon: (cluster,
        #: serial) -> hit count, recorded by ``get``/``get_with_token``
        #: when :attr:`track_access` is on. Bumps are GIL-atomic dict
        #: ops; racing threads can lose a count, which a usage *profile*
        #: tolerates.
        self.track_access = False
        self._access_counts: Dict[Tuple[str, Any], int] = {}
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

    @staticmethod
    def _env_shards() -> int:
        """The ``REPRO_SHARDS`` count (1 when unset); a value that is not
        an integer raises instead of quietly creating a 1-shard store."""
        raw = os.environ.get(ENV_SHARDS, "")
        try:
            return int(raw) if raw else 1
        except ValueError:
            raise StorageError("%s=%r is not a shard count"
                               % (ENV_SHARDS, raw)) from None

    def _resolve_shards(self, shards: int) -> int:
        """The store's shard count: persisted on an existing store, else
        chosen at creation (the parameter, ``REPRO_SHARDS`` or 1) and
        persisted *durably before* any shard file exists — a crash at any
        point leaves either a plain 1-shard file or a root that names
        every shard file to (re)create on reopen."""
        persisted = self._pagefile.get_root(self.SHARDS_ROOT_KEY)
        if persisted:
            return persisted
        if self._pagefile.get_root(Catalog.BOOTSTRAP_KEY) != 0:
            return 1  # pre-sharding store: format is frozen at 1 shard
        if shards <= 1:
            return 1
        if shards > MAX_SHARDS:
            raise StorageError("shard count %d exceeds the maximum %d"
                               % (shards, MAX_SHARDS))
        self.faults.fire("shard.root.pre", shards=shards)
        self._pagefile.set_root(self.SHARDS_ROOT_KEY, shards)
        self._pagefile.sync()
        return shards

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
        if self._router is None:
            metrics.gauge_fn("buffer.cached", lambda: len(pool._frames))
        else:
            metrics.gauge_fn("buffer.cached", lambda: pool.cached_frames)
        metrics.gauge_fn("buffer.capacity", lambda: pool.capacity)
        metrics.counter_fn("page_cache.hits", lambda: self.page_cache_hits)
        metrics.counter_fn("page_cache.misses",
                           lambda: self.page_cache_misses)
        metrics.gauge_fn("page_cache.cached_pages",
                         lambda: len(self._page_cache))
        metrics.counter_fn("scan.records_peeked",
                           lambda: self.scan_records_peeked)
        metrics.counter_fn("scan.records_decoded",
                           lambda: _count_value(self._scan_decodes))
        metrics.gauge_fn("store.pages",
                         lambda: sum(pf.page_count
                                     for pf in self._pagefiles))
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
        metrics.gauge_fn("shard.count", lambda: self._n_shards)
        for sid in range(self._n_shards):
            metrics.counter_fn("shard.scans",
                               (lambda s=sid: _count_value(
                                   self._shard_scans[s])),
                               shard=str(sid))
        metrics.counter_fn("recluster.runs", lambda: self.recluster_runs)
        metrics.counter_fn("recluster.moved_objects",
                           lambda: self.recluster_moved)

    #: Pages per heap-growth extent for cluster heaps: objects of one
    #: cluster land in physically contiguous runs (cluster-local
    #: placement), which is what makes scan readahead effective.
    EXTENT_PAGES = 8

    #: Bound on the scan page cache (pages, not bytes).
    PAGE_CACHE_PAGES = 512

    #: Bound on the access-profile table feeding the recluster daemon.
    ACCESS_TABLE_MAX = 8192

    # -- sharding helpers --------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def _shard_of_key(self, key) -> int:
        """The shard an object key routes to: by serial, so every
        version of one object — head beside its states — shares a shard
        (and a leaf of that shard's object table)."""
        return key[0] % self._n_shards

    def _latch_of(self, shard: int):
        """The latch serializing per-key work in *shard* (the metadata
        latch on a single-shard store, preserving the pre-sharding
        critical sections exactly)."""
        if self._router is None:
            return self.latch
        return self._router.latch_of(shard)

    def _pool_of(self, shard: int):
        if self._router is None:
            return self._pool
        return self._router.pools[shard]

    @contextmanager
    def _keyed(self, cluster: str, key):
        """Yield ``(heap, directory)`` for *key*'s shard, shard latch held.

        Structure resolution must not run under the shard latch (it takes
        the metadata latch and catalog lock, both ordered before shard
        latches), so the caches are primed first and re-read — plain
        GIL-atomic dict gets — inside the latch; a concurrent
        vacuum/recluster/abort that swapped or dropped the entry is
        caught by the re-read and the resolution retries.
        """
        if self._router is None:
            with self.latch:
                yield self._heap(cluster), self._directory(cluster)
            return
        sid = self._shard_of_key(key)
        self._ensure_structs(cluster, sid)
        latch = self._router.latch_of(sid)
        while True:
            with latch:
                heap = self._heaps.get((cluster, sid))
                directory = self._directories.get((cluster, sid))
                if heap is not None and directory is not None:
                    yield heap, directory
                    return
            self._ensure_structs(cluster, sid)

    def _ensure_structs(self, cluster: str, shard: int) -> None:
        with self.latch:
            self._heap(cluster, shard)
            self._directory(cluster, shard)

    def _all_heaps(self, cluster: str) -> List[HeapFile]:
        with self.latch:
            return [self._heap(cluster, sid)
                    for sid in range(self._n_shards)]

    def _note_access(self, cluster: str, key) -> None:
        counts = self._access_counts
        serial = key[0] if isinstance(key, tuple) and key else key
        entry = (cluster, serial)
        counts[entry] = counts.get(entry, 0) + 1
        if len(counts) > self.ACCESS_TABLE_MAX:
            # Keep the hot half; racing bumps against the old dict are
            # lost, which the profile tolerates.
            floor = sorted(counts.values())[len(counts) // 2]
            self._access_counts = {k: v for k, v in counts.items()
                                   if v > floor}

    def take_access_profile(self) -> Dict[Tuple[str, Any], int]:
        """Hand the accumulated access counts to the caller and reset."""
        counts, self._access_counts = self._access_counts, {}
        return counts

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
            self._heaps.clear()
            self._directories.clear()
            self._indexes.clear()
            # The aborted transaction may have reserved a serial block whose
            # catalog update was rolled back; drop all in-memory blocks.
            self._serial_blocks.clear()
        if release_locks:
            self.locks.release_all(txn)

    def checkpoint(self) -> None:
        """Flush dirty pages; truncate the WAL if quiescent."""
        self._journal.checkpoint()
        for pagefile in self._pagefiles:
            pagefile.sync()

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
        """Create the extent for *name* (the paper's ``create`` macro).

        On a sharded store every shard gets its own heap + object
        directory up front, so the catalog record fixes the cluster's
        full physical layout at creation.
        """
        parents = parents or []
        with self.latch:
            for parent in parents:
                if not self.catalog.has_cluster(parent):
                    raise CatalogError(
                        "parent cluster %r of %r does not exist"
                        % (parent, name))
            heaps: List[HeapFile] = []
            directories: List[ObjectTable] = []
            shard_pairs: List[List[int]] = []
            for sid in range(self._n_shards):
                journal = self._shard_journals[sid]
                heap = HeapFile.create(journal, txn,
                                       extent=self.EXTENT_PAGES)
                directory = ObjectTable.create(journal, txn,
                                               self._n_shards)
                heaps.append(heap)
                directories.append(directory)
                shard_pairs.append([heap.first_page, directory.root_page])
            info = self.catalog.add_cluster(
                txn, name, parents, shard_pairs[0][0], shard_pairs[0][1],
                shards=shard_pairs if self._n_shards > 1 else None)
            for sid in range(self._n_shards):
                self._heaps[(name, sid)] = heaps[sid]
                self._directories[(name, sid)] = directories[sid]
            return info

    def has_cluster(self, name: str) -> bool:
        return self.catalog.has_cluster(name)

    def cluster_info(self, name: str) -> ClusterInfo:
        info = self.catalog.get_cluster(name)
        if info is None:
            raise CatalogError("no cluster named %r" % name)
        return info

    def _shard_pair(self, info: ClusterInfo, shard: int) -> List[int]:
        if shard >= len(info.shards):
            raise StorageError(
                "cluster %r has %d shard(s) but the store expects %d"
                % (info.name, len(info.shards), self._n_shards))
        return info.shards[shard]

    def _heap(self, name: str, shard: int = 0) -> HeapFile:
        with self.latch:
            heap = self._heaps.get((name, shard))
            if heap is None:
                info = self.cluster_info(name)
                heap = HeapFile(self._shard_journals[shard],
                                self._shard_pair(info, shard)[0],
                                extent=self.EXTENT_PAGES)
                self._heaps[(name, shard)] = heap
            return heap

    def _directory(self, name: str, shard: int = 0) -> ObjectTable:
        """The object table of one cluster shard."""
        with self.latch:
            directory = self._directories.get((name, shard))
            if directory is None:
                info = self.cluster_info(name)
                directory = ObjectTable(self._shard_journals[shard],
                                        self._shard_pair(info, shard)[1],
                                        self._n_shards)
                self._directories[(name, shard)] = directory
            return directory

    #: Serials are reserved from the catalog in blocks of this size, so a
    #: catalog write is paid once per block instead of once per pnew. A
    #: crash or abort wastes the block's unissued serials — ids stay
    #: unique, they are just not dense (the standard sequence trade-off).
    SERIAL_BLOCK = 64

    def allocate_serial(self, txn: int, cluster: str) -> int:
        """Hand out the next object serial number for *cluster*."""
        with self.latch:
            block = self._serial_blocks.get(cluster)
            if block is None or block[0] >= block[1]:
                info = self.cluster_info(cluster)
                start = info.next_serial
                info.next_serial += self.SERIAL_BLOCK
                self.catalog.save_cluster(txn, info)
                block = [start, info.next_serial]
                self._serial_blocks[cluster] = block
            serial = block[0]
            block[0] += 1
            return serial

    # -- objects --------------------------------------------------------------------

    def put(self, txn: int, cluster: str, key: Tuple, data: Dict,
            new: bool = False) -> None:
        """Insert or overwrite the object at *key* in *cluster*.

        *new=True* asserts the key does not exist yet: if it does,
        :class:`DuplicateKeyError` is raised before anything is written.
        """
        payload = encode_value(data)
        with self._keyed(cluster, key) as (heap, directory):
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
                       data: Dict) -> Tuple[RID, int]:
        """Like :meth:`put`, returning ``(rid, home_page_lsn)``.

        The token pair is the post-write physical validity token for the
        record (see :meth:`get_with_token`): the home page is edited on
        every path of a heap update — in-place, overflow rewrite, and
        relocation all stamp its LSN — so callers may cache the decoded
        *data* under ``(rid.page_no, lsn)`` and trust
        :meth:`tokens_valid` to catch any later mutation, including an
        abort's compensation writes.
        """
        payload = encode_value(data)
        with self._keyed(cluster, key) as (heap, directory):
            rid = self._put_locked(txn, heap, directory, key, payload)
            return rid, heap.page_lsn(rid.page_no)

    def page_lsns(self, cluster: str, page_nos) -> Dict[int, int]:
        """Current LSNs of a set of *cluster* heap pages.

        Token-refresh helper for batch writers: after a run of puts has
        settled, the caller re-primes its decoded cache against these
        LSNs (see :meth:`get_with_token` for the token contract). Page
        numbers are gpids, so each pin routes to (and briefly latches)
        only its own shard.
        """
        pool = self._pool
        lsns: Dict[int, int] = {}
        for page_no in set(page_nos):
            with pool.page(page_no) as page:
                lsns[page_no] = page.page_lsn
        return lsns

    def get(self, cluster: str, key: Tuple) -> Optional[Dict]:
        """Fetch the object at *key*, or None."""
        if self.track_access:
            self._note_access(cluster, key)
        with self._keyed(cluster, key) as (heap, directory):
            hit = directory.search(key)
            if hit is None:
                return None
            raw = heap.read(RID(*hit))
        return decode_value(raw)

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
        if self.track_access:
            self._note_access(cluster, key)
        with self._keyed(cluster, key) as (heap, directory):
            hit = directory.search(key)
            if hit is None:
                return None, None, 0
            rid = RID(*hit)
            raw, lsn = heap.read_with_lsn(rid)
        return decode_value(raw), rid, lsn

    def tokens_valid(self, tokens) -> bool:
        """True iff every ``(page_no, lsn)`` matches the page's current LSN.

        Pages for repeated page numbers are pinned once. This is the
        whole validation cost of the object layer's decoded cache: a
        couple of buffer-pool hits instead of directory probes + decodes.
        Each pin latches only its own shard's pool.
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
        with self._keyed(cluster, key) as (_heap, directory):
            return directory.search(key) is not None

    def delete(self, txn: int, cluster: str, key: Tuple) -> bool:
        """Delete the object at *key*; returns whether it existed."""
        with self._keyed(cluster, key) as (heap, directory):
            rid = directory.delete(txn, key)
            if rid is None:
                return False
            heap.delete(txn, RID(*rid))
            return True

    # -- scan/vacuum gate --------------------------------------------------------

    def _scan_enter(self) -> None:
        """Register this thread as a chain walker.

        A pending maintenance rewrite (vacuum/recluster) blocks *new*
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
        fixpoint property holds. The object layer embeds its own key in
        the payload, so the RID is informational. Every dict is decoded
        for this caller alone.
        """
        for batch in self.scan_batches(cluster):
            yield from batch

    def scan_batches(self, cluster: str) -> Iterator[ScanBatch]:
        """Yield one late-decoding :class:`ScanBatch` per page of *cluster*.

        ~2 pins per page instead of one per slot, heap readahead ahead of
        the cursor, and a bounded page cache keyed on the page LSN so a
        re-scan of an unchanged page skips the slot reads and key peeks.
        Nothing is decoded here: a batch knows its records' keys from a
        fixed-offset peek and decodes a record only when the consumer
        asks for it.

        Objects inserted behind the cursor during the iteration are
        still visited — the property the paper's fixpoint queries require
        (section 3.2). Within one shard's chain each page is re-checked
        after its batch is consumed; across shards the walk is
        shard-major, so an insert that routes to an already-walked shard
        lands behind that shard's cursor. The walk therefore repeats in
        rounds, each resuming every shard from where its last walk
        stopped, until a whole round yields nothing.
        """
        # Enter the gate before resolving structures: a vacuum that was
        # admitted first swaps the caches before letting us through, so
        # the heaps we resolve can never be mid-retirement. The slot is
        # held across every round, so the chains cannot be freed between
        # one round and the next.
        self._scan_enter()
        try:
            heaps = self._all_heaps(cluster)
            #: per shard: [page_no, consumed_slots] resume position.
            cursors = [[heap.first_page, 0] for heap in heaps]
            for counter in self._shard_scans:
                next(counter)
            grew = True
            while grew:
                grew = False
                for heap, cursor in zip(heaps, cursors):
                    for batch in self._scan_batches_inner(heap, cursor):
                        grew = True
                        yield batch
        finally:
            self._scan_exit()

    def _scan_batches_inner(self, heap: HeapFile, cursor: list):
        """One heap's batched page walk from *cursor* to the chain's end.

        *cursor* is ``[page_no, consumed_slots]`` and is advanced in
        place as pages are finished, so calling again with the same list
        resumes where this walk stopped. It never advances past the last
        page that held a slot: heap growth links whole extents and fills
        them front to back, so the empty pages trailing the cursor are
        exactly where the next inserts land.
        """
        pool = self._pool
        readahead = HeapFile.READAHEAD
        page_no, start = cursor
        # A resumed walk's cursor page was read ahead when first reached.
        span_lo = page_no
        span_hi = page_no + readahead if start else page_no
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
                                  self._scan_decodes)
                with self._pc_lock:
                    self.scan_records_peeked += len(batch)
                    if (start == 0 and lsn and lsn2 == lsn
                            and slot_count2 == slot_count):
                        self.page_cache_misses += 1
                        self._page_cache[page_no] = (lsn, slot_count, batch)
                        self._page_cache.move_to_end(page_no)
                        while len(self._page_cache) > self.PAGE_CACHE_PAGES:
                            self._page_cache.popitem(last=False)
                if batch:
                    yield batch
                start = slot_count2
            if start:
                cursor[0] = page_no
                cursor[1] = start
            page_no = next_page
            start = 0

    def count(self, cluster: str) -> int:
        return sum(heap.count() for heap in self._all_heaps(cluster))

    # -- secondary indexes ------------------------------------------------------------

    def create_index(self, txn: int, cluster: str, field,
                     kind: str = "btree", unique: bool = False) -> IndexInfo:
        """Create a secondary index (a :class:`BTree`) on *cluster*.

        *field* is a field name, or a tuple/list of field names for a
        composite index (keyed on the value tuple, registered under the
        comma-joined name). *kind* ``"hash"`` is accepted as another
        spelling of the one index structure; the catalog records
        ``"btree"``. Index pages always live in shard 0.
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
    # between those page edits. Index pages are shard-0 residents,
    # so the metadata latch (ordered before shard latches) is the right
    # guard.

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
        """Rewrite *cluster*'s heap(s) and object director(ies) compactly.

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

        Runs as one transaction of its own, whatever the shard count:
        the rewrites, the catalog swap and the page frees commit (or roll
        back) together. Returns ``{"objects": n, "pages_freed": m}``.
        """
        started = time.perf_counter()
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
                    moved = 0
                    old_pages: List[int] = []
                    for shard in range(self._n_shards):
                        n, pages = self._vacuum_shard_locked(
                            txn, cluster, shard)
                        moved += n
                        old_pages += pages
            except BaseException:
                self.abort(txn)
                raise
            self.commit(txn)
        finally:
            self._maintenance_end()
        self.events.emit("vacuum", cluster=cluster, objects=moved,
                         pages_freed=len(old_pages),
                         ms=(time.perf_counter() - started) * 1e3)
        return {"objects": moved, "pages_freed": len(old_pages)}

    def _vacuum_shard_locked(self, txn: int, cluster: str, shard: int,
                             hot_rank: Optional[Dict[Any, int]] = None
                             ) -> Tuple[int, List[int]]:
        """Rewrite one shard of *cluster* under *txn*; swap it into the
        catalog. Caller holds the metadata latch and the cluster X lock.
        *hot_rank* is :meth:`_rewrite_shard`'s placement hint."""
        info = self.cluster_info(cluster)
        new_heap, new_directory, moved, old_pages = self._rewrite_shard(
            txn, cluster, shard, hot_rank)
        info.shards[shard] = [new_heap.first_page, new_directory.root_page]
        if shard == 0:
            info.heap_page, info.directory_page = info.shards[0]
        self.catalog.save_cluster(txn, info)
        for page_no in old_pages:
            self._journal.free_page_deferred(txn, page_no)
        self._swap_structs(cluster, shard, new_heap, new_directory)
        return moved, old_pages

    def _rewrite_shard(self, txn: int, cluster: str, shard: int,
                       hot_rank: Optional[Dict[Any, int]] = None):
        """Copy one shard's live objects into a fresh heap + object table.

        Returns ``(new_heap, new_directory, moved, old_pages)`` without
        touching the catalog or the structure caches — the caller owns
        the swap. With *hot_rank* (serial -> rank), hot objects are
        copied first in rank order so they share the leading extent
        (dynamic reclustering); the rest follow in old physical chain
        order, which preserves the insertion adjacency the batched scan
        materializer depends on.
        """
        old_heap = self._heap(cluster, shard)
        old_directory = self._directory(cluster, shard)
        # Copy in old *physical chain order*, not directory order:
        # insertion placed related records (an object's head next to its
        # state) adjacently, and the batched scan's materializer depends
        # on that adjacency. A key-order rewrite would scatter them
        # and degrade post-vacuum scans to per-object directory probes.
        chain_pos = {no: i for i, no in
                     enumerate(self._pages_of_heap(old_heap))}

        def order(kv):
            key, rid_tuple = kv
            chain = (chain_pos.get(rid_tuple[0], 1 << 60), rid_tuple[1])
            if hot_rank is not None:
                serial = key[0] if isinstance(key, tuple) and key else key
                rank = hot_rank.get(serial)
                if rank is not None:
                    return (0, rank, chain)
            return (1, 0, chain)

        rid_items = sorted(old_directory.items(), key=order)
        items = [(key, old_heap.read(RID(*rid_tuple)))
                 for key, rid_tuple in rid_items]
        journal = self._shard_journals[shard]
        new_heap = HeapFile.create(journal, txn, extent=self.EXTENT_PAGES)
        new_directory = ObjectTable.create(journal, txn, self._n_shards)
        need = self._pages_for(payload for _key, payload in items)
        if need > 1:
            # Cap the single extent well below the pool size so
            # formatting it cannot churn the whole buffer pool.
            new_heap.preallocate(
                txn, min(need, max(self._pool_of(shard).capacity // 2, 1)))
        moved = 0
        for key, payload in items:
            new_directory.insert(txn, key, new_heap.insert(txn, payload))
            moved += 1
        old_pages = self._pages_of_heap(old_heap) + old_directory.pages()
        return new_heap, new_directory, moved, old_pages

    def _swap_structs(self, cluster: str, shard: int, heap: HeapFile,
                      directory: ObjectTable) -> None:
        """Publish a rewritten shard's structures. The shard latch
        brackets the dict writes so a per-key operation that re-reads the
        caches inside its latch can never keep using a structure whose
        pages are scheduled to be freed."""
        with self._latch_of(shard):
            self._heaps[(cluster, shard)] = heap
            self._directories[(cluster, shard)] = directory

    def recluster_shard(self, cluster: str, serials,
                        shard: int = 0) -> Dict[str, int]:
        """Migrate hot *serials* of *cluster* into the leading extent of
        *shard* (the dynamic clustering policy from the Darmont studies:
        co-accessed objects end up physically adjacent, so the scans and
        dereference runs that made them hot read fewer pages).

        The rewrite is exactly a shard vacuum with a placement hint, runs
        as its own transaction under the cluster's X lock, and is invoked
        by the background :class:`~repro.storage.recluster.ReclusterDaemon`
        with serials ranked by observed access counts. MVCC readers are
        safe for the same reason vacuum is: logical content is unchanged,
        chain walkers are drained via the scan gate, and the page-LSN
        tokens of every moved record stop validating.
        """
        serials = list(serials)
        self.faults.fire("recluster.pre", cluster=cluster, shard=shard)
        txn = self.begin()
        self.locks.acquire(txn, ("cluster", cluster), "X")
        self._maintenance_begin()
        try:
            try:
                with self.latch:
                    hot_rank = {serial: rank
                                for rank, serial in enumerate(serials)}
                    moved, old_pages = self._vacuum_shard_locked(
                        txn, cluster, shard, hot_rank)
            except BaseException:
                self.abort(txn)
                raise
            self.faults.fire("recluster.commit.pre", cluster=cluster,
                             shard=shard)
            self.commit(txn)
        finally:
            self._maintenance_end()
        hot_here = sum(1 for serial in serials
                       if self._shard_of_key((serial, 0)) == shard)
        self.recluster_runs += 1
        self.recluster_moved += hot_here
        self.events.emit("recluster", cluster=cluster, shard=shard,
                         hot=hot_here, objects=moved,
                         pages_freed=len(old_pages))
        return {"objects": moved, "moved": hot_here,
                "pages_freed": len(old_pages)}

    @staticmethod
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

    def fragmentation(self, cluster: str) -> Dict[str, Any]:
        """Physical layout of *cluster*'s heap chain(s).

        ``pages`` is the chain length, ``span`` the page-number distance
        covered (max - min + 1; equals ``pages`` for a perfectly clustered
        heap), ``runs`` the number of maximal physically-contiguous runs
        (1 is ideal). ``span / pages`` is the Darmont-style fragmentation
        factor the EXPERIMENTS entry tracks. On a multi-shard store the
        top-level numbers aggregate the shards (spans are computed on
        local page numbers, per file) and ``shards`` holds the per-shard
        breakdown. ``directory`` is :meth:`directory_stats`.
        """
        per_shard: List[Dict[str, Any]] = []
        with self.latch:
            for sid in range(self._n_shards):
                heap = self._heap(cluster, sid)
                pages: List[int] = []
                page_no = heap.first_page
                while page_no != NO_PAGE:
                    pages.append(local_page(page_no))
                    with self._pool.page(page_no, cold=True) as page:
                        page_no = page.next_page
                runs = 1 + sum(1 for a, b in zip(pages, pages[1:])
                               if b != a + 1)
                span = max(pages) - min(pages) + 1
                per_shard.append({
                    "shard": sid,
                    "pages": len(pages),
                    "span": span,
                    "runs": runs,
                    "fragmentation": span / len(pages),
                })
        total_pages = sum(entry["pages"] for entry in per_shard)
        total_span = sum(entry["span"] for entry in per_shard)
        out = {
            "pages": total_pages,
            "span": total_span,
            "runs": sum(entry["runs"] for entry in per_shard),
            "fragmentation": total_span / total_pages,
        }
        if self._n_shards > 1:
            out["shards"] = per_shard
        out["directory"] = self.directory_stats(cluster)
        return out

    def directory_stats(self, cluster: str) -> Dict[str, Any]:
        """Occupancy of *cluster*'s object table(s): ``leaf_pages``,
        ``live_entries`` and ``dead_entries`` — the dead ones being the
        space deletes leave for the next rebuild.

        Walks every leaf page (cold pins), so the numbers are taken on
        demand — here, :meth:`fragmentation`, ``db.stats()`` — and never
        by a metrics snapshot."""
        with self.latch:
            per_shard = [self._directory(cluster, sid).stats()
                         for sid in range(self._n_shards)]
        out: Dict[str, Any] = {
            field: sum(entry[field] for entry in per_shard)
            for field in ("leaf_pages", "live_entries", "dead_entries")}
        if self._n_shards > 1:
            out["shards"] = per_shard
        return out

    def crowded_directories(self) -> List[Tuple[str, int]]:
        """``(cluster, shard)`` pairs whose object table holds more dead
        entries than live ones: the rebuild (:meth:`vacuum`,
        :meth:`recluster_shard`) would at least halve it. The recluster
        daemon polls this, which is what bounds a sliding window's
        directory on a running system. A table is only walked once a
        leaf's worth of entries has been deleted through it."""
        crowded = []
        for info in list(self.catalog.clusters()):
            for sid in range(self._n_shards):
                with self.latch:
                    if not self.has_cluster(info.name):
                        break
                    directory = self._directory(info.name, sid)
                    if directory.deletes < LEAF_ENTRIES:
                        continue
                    stats = directory.stats()
                if stats["dead_entries"] > stats["live_entries"]:
                    crowded.append((info.name, sid))
        return crowded

    def _pages_of_heap(self, heap: HeapFile) -> List[int]:
        pages = []
        page_no = heap.first_page
        while page_no != NO_PAGE:
            pages.append(page_no)
            with self._pool.page(page_no) as page:
                page_no = page.next_page
        # Overflow chains hang off records; collect them via raw slots.
        from . import heap as heap_mod
        for home in list(pages):
            with self._pool.page(home) as page:
                records = list(page.slots())
            for _slot, raw in records:
                kind, body = heap_mod._unpack_record(raw)
                if kind == heap_mod.KIND_OVERFLOW:
                    first, _total = heap_mod._OVERFLOW.unpack(body)
                    chain = first
                    while chain != NO_PAGE:
                        pages.append(chain)
                        with self._pool.page(chain) as page:
                            chain = page.next_page
        return pages

    def verify_integrity(self) -> List[str]:
        """Cross-check every structure; returns a list of problems
        (empty means the store is internally consistent).

        Checks per cluster (and per shard): the directory's RIDs resolve
        to readable heap records; heap record count matches directory
        entry count; index structural invariants hold; secondary-index
        entries reference serials that exist in some shard's directory.
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
            keys = set()
            for sid in range(self._n_shards):
                where = (cluster if self._n_shards == 1
                         else "%s[s%d]" % (cluster, sid))
                directory = self._directory(cluster, sid)
                heap = self._heap(cluster, sid)
                try:
                    directory.check_invariants()
                except Exception as exc:
                    problems.append("%s: directory invariant: %s"
                                    % (where, exc))
                entries = 0
                for key, rid_tuple in directory.items():
                    entries += 1
                    keys.add(key)
                    try:
                        heap.read(RID(*rid_tuple))
                    except Exception as exc:
                        problems.append(
                            "%s: key %r -> unreadable RID %r: %s"
                            % (where, key, rid_tuple, exc))
                heap_count = heap.count()
                if heap_count != entries:
                    problems.append(
                        "%s: heap has %d records but directory has %d "
                        "entries" % (where, heap_count, entries))
            serials = {key[0] for key in keys}
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

        Called under the owning shard's latch with a *gpid*. Quarantines
        the page and flips the store into read-only degraded mode: reads
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

        Reads straight from each shard's page file (bypassing the pools)
        in large spans. Pages with a dirty in-memory frame are skipped —
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
            for sid, pagefile in enumerate(self._pagefiles):
                frames = self._pool_of(sid)._frames
                count = pagefile.page_count
                for start in range(1, count, self.SCRUB_SPAN):
                    raw = pagefile.read_span(
                        start, min(self.SCRUB_SPAN, count - start))
                    mv = memoryview(raw)
                    for i in range(len(raw) // PAGE_SIZE):
                        local_no = start + i
                        frame = frames.get(local_no)
                        if frame is not None and frame.dirty:
                            continue
                        checked += 1
                        if not verify_checksum(
                                mv[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]):
                            bad.append(global_page(sid, local_no))
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
        from the payloads' embedded ``__key`` — and all of its secondary
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

        Returns ``None`` when every page of the cluster (all shards) is
        reachable and sound, else ``(items, lost, directory_authoritative)``
        where *items* is an ordered ``key -> payload`` map of the
        salvageable objects across every shard.
        """
        cluster = info.name
        healthy = True
        items: "OrderedDict[Tuple, bytes]" = OrderedDict()
        lost = 0
        authoritative = True
        sound: List[Tuple[HeapFile, ObjectTable]] = []
        for sid in range(self._n_shards):
            heap = directory = None
            try:
                # find_tail=False: the probe must be able to read records
                # by RID even when a corrupt page cuts the chain walk
                # short.
                heap = HeapFile(self._shard_journals[sid],
                                self._shard_pair(info, sid)[0],
                                extent=self.EXTENT_PAGES, find_tail=False)
                directory = self._directory(cluster, sid)
                # A structurally unsound directory is not trusted for
                # any key: the heap's embedded ``__key``s rebuild it.
                directory.check_invariants()
                rid_items = list(directory.items())
            except Exception:
                healthy = False
                rid_items = None
            if rid_items is not None:
                sound.append((heap, directory))
                for key, rid_tuple in rid_items:
                    try:
                        items[tuple(key)] = heap.read(RID(*rid_tuple))
                    except Exception:
                        healthy = False
                        lost += 1
            else:
                authoritative = False
                for key, payload in self._salvage_heap_chain(cluster, sid):
                    if key is None:
                        lost += 1
                    else:
                        items[key] = payload
        if healthy:
            try:
                # Structural walks: chains can hold corrupt pages that no
                # live directory entry references (tombstone-only pages),
                # and index corruption is invisible to heap reads.
                for heap, directory in sound:
                    self._pages_of_heap(heap)
                    directory.pages()
                for field in info.indexes:
                    self.index(cluster, field).check_invariants()
            except Exception:
                healthy = False
        if healthy:
            return None
        return items, lost, authoritative

    def _salvage_heap_chain(self, cluster: str, shard: int = 0):
        """Tolerantly walk one shard's heap, yielding ``(key, payload)``.

        Used when the object directory is unreadable. Stops at the first
        broken chain link (records beyond it are lost). Payloads that do
        not decode to a dict carrying the object layer's embedded
        ``__key`` yield ``(None, payload)`` so the caller can count them
        as lost.
        """
        try:
            info = self.cluster_info(cluster)
            heap = HeapFile(self._shard_journals[shard],
                            self._shard_pair(info, shard)[0],
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
                key = None
                try:
                    value = decode_value(raw)
                    if isinstance(value, dict):
                        key = value.get("__key")
                except Exception:
                    key = None
                yield (None if key is None else tuple(key)), raw
            page_no = next_page

    def _rebuild_cluster(self, cluster: str, items) -> Dict[str, Any]:
        """Rewrite *cluster* from salvaged *items*; fresh empty indexes.

        Every shard gets new structures and each item routes back to its
        home shard (the key -> shard mapping is deterministic, so a
        rebuild reproduces the original placement).
        """
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
        new_heaps: List[HeapFile] = []
        new_directories: List[ObjectTable] = []
        for sid in range(self._n_shards):
            journal = self._shard_journals[sid]
            new_heaps.append(HeapFile.create(
                journal, txn, extent=self.EXTENT_PAGES))
            new_directories.append(ObjectTable.create(
                journal, txn, self._n_shards))
        for key, payload in items.items():
            sid = self._shard_of_key(key)
            new_directories[sid].insert(
                txn, key, new_heaps[sid].insert(txn, payload))
        info.shards = [[heap.first_page, directory.root_page]
                       for heap, directory in
                       zip(new_heaps, new_directories)]
        info.heap_page, info.directory_page = info.shards[0]
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
        for sid in range(self._n_shards):
            self._heaps[(cluster, sid)] = new_heaps[sid]
            self._directories[(cluster, sid)] = new_directories[sid]
        with self._pc_lock:
            self._page_cache.clear()
        return old_pages

    def _enumerable_pages(self, info: ClusterInfo) -> List[int]:
        """Pages of the cluster reachable without touching corruption.

        Chains are truncated at the first unreadable link; B+tree
        subtrees under an unreadable node are skipped. The result is safe
        to free — a page only appears if a sound pointer led to it.
        """
        from . import heap as heap_mod
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

        heap_homes: List[int] = []
        for sid in range(min(self._n_shards, len(info.shards))):
            before = len(pages)
            chain(info.shards[sid][0])
            heap_homes.extend(pages[before:])
        for home in heap_homes:
            try:
                with self._pool.page(home) as page:
                    records = list(page.slots())
                for _slot, raw in records:
                    kind, body = heap_mod._unpack_record(raw)
                    if kind == heap_mod.KIND_OVERFLOW:
                        first, _total = heap_mod._OVERFLOW.unpack(body)
                        chain(first)
            except Exception:
                continue
        for sid in range(min(self._n_shards, len(info.shards))):
            # All or nothing: a walk that meets corruption leaks the
            # table's pages rather than guess at them.
            try:
                found = self._directory(info.name, sid).pages()
            except Exception:
                continue
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
            for pagefile in self._pagefiles:
                pagefile.close()
            self._closed = True

    def crash(self) -> None:
        """Simulate a crash: drop everything volatile without flushing.

        For tests and the durability benchmarks. The store object becomes
        unusable; reopen the path to run recovery.
        """
        self._wal.close()
        for pagefile in self._pagefiles:
            pagefile.close()
        self._closed = True

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Counters from the pool(s), WAL and lock manager."""
        total_pages = sum(pf.page_count for pf in self._pagefiles)
        out = {
            "pool": self._pool.stats(),
            "page_cache": {
                "hits": self.page_cache_hits,
                "misses": self.page_cache_misses,
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
            "pages": total_pages,
            "shards": {
                "count": self._n_shards,
                "scans": [_count_value(c) for c in self._shard_scans],
                "recluster_runs": self.recluster_runs,
                "recluster_moved_objects": self.recluster_moved,
                "per_shard": [
                    {"shard": sid,
                     "pages": pf.page_count,
                     "occupancy": (pf.page_count / total_pages)
                     if total_pages else 0.0}
                    for sid, pf in enumerate(self._pagefiles)],
            },
            "storage_health": {
                "degraded": self.degraded,
                "corrupt_pages": self.corrupt_pages,
                "quarantined": sorted(self._pool.quarantined),
                "wal_failed": (None if self._wal.failed is None
                               else str(self._wal.failed)),
                "faults_injected": self.faults.injected,
            },
        }
        return out

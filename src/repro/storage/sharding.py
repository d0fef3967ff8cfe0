"""Sharded storage — global page ids and the buffer-pool router.

The store can split its pages across N *shards*, each with its own page
file, buffer pool and latch (``<path>`` for shard 0, ``<path>.s1`` ...
for the rest). Everything above the pool — heap files, object tables,
B+trees, the journal, crash recovery — keeps addressing pages by a single
integer; sharding works because that integer becomes a *global page id*
(gpid) that encodes its shard::

    gpid = (shard_id << SHARD_SHIFT) | local_page_no

Shard 0's gpids equal its local page numbers, so a database created with
one shard is byte-identical to the pre-sharding format and the on-disk
bootstrap/catalog layout never changes. The WAL packs page numbers as
u32 (see ``wal._UPDATE_EXT``), which bounds the address space:
``SHARD_SHIFT`` of 26 leaves 64 Mi pages (256 GiB) per shard for up to
:data:`MAX_SHARDS` shards.

:class:`ShardedPool` presents the :class:`~repro.storage.buffer.BufferPool`
interface over the shard pools, routing every call by the gpid's shard
bits. Allocation needs a *target* shard, so the router's plain
``new_page``/``new_extent`` default to shard 0 (where the catalog and all
secondary indexes live) and per-cluster-shard structures allocate through
a :class:`ShardView`, which binds allocation to its shard and routes
everything else.

Latch ordering (deadlock discipline, see also ``journal.py``): lock
manager locks are taken outside everything (they block); then the store's
metadata latch, the catalog lock, the journal latch, shard latches (in
ascending shard order when more than one is held — :meth:`all_latches`),
the WAL mutex, and leaf locks (page cache, metrics) innermost.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import StorageError

#: Bits of a gpid holding the local page number.
SHARD_SHIFT = 26
#: Mask extracting the local page number from a gpid.
LOCAL_MASK = (1 << SHARD_SHIFT) - 1
#: Upper bound on shards: gpids must fit the WAL's u32 page_no field.
MAX_SHARDS = 1 << (32 - SHARD_SHIFT)


def shard_of(gpid: int) -> int:
    """The shard a global page id lives in."""
    return gpid >> SHARD_SHIFT


def local_page(gpid: int) -> int:
    """The page number within its shard's file."""
    return gpid & LOCAL_MASK


def global_page(shard: int, local: int) -> int:
    """Compose a gpid from a shard id and a local page number."""
    return (shard << SHARD_SHIFT) | local


def shard_path(path: str, shard: int) -> str:
    """The page-file path of one shard (shard 0 is *path* itself)."""
    return path if shard == 0 else "%s.s%d" % (path, shard)


class _AllLatches:
    """Context manager acquiring every shard latch in ascending order."""

    __slots__ = ("_latches",)

    def __init__(self, latches):
        self._latches = latches

    def __enter__(self):
        for latch in self._latches:
            latch.acquire()
        return self

    def __exit__(self, *exc):
        for latch in reversed(self._latches):
            latch.release()
        return False


class _FreshView:
    """``fresh_pages`` facade over the shard pools' per-pool dicts.

    The journal only needs ``get``, truthiness and ``pop`` (a fresh
    page's first logged image); each routes to the owning pool's dict.
    """

    __slots__ = ("_pools",)

    def __init__(self, pools):
        self._pools = pools

    def get(self, gpid: int):
        return self._pools[shard_of(gpid)].fresh_pages.get(local_page(gpid))

    def __bool__(self) -> bool:
        return any(pool.fresh_pages for pool in self._pools)

    def pop(self, gpid: int, default=None):
        return self._pools[shard_of(gpid)].fresh_pages.pop(
            local_page(gpid), default)


class _QuarantineView:
    """``quarantined`` facade: a gpid-keyed view of the per-pool sets."""

    __slots__ = ("_pools",)

    def __init__(self, pools):
        self._pools = pools

    def __contains__(self, gpid: int) -> bool:
        pool = self._pools[shard_of(gpid)]
        return bool(pool.quarantined) and local_page(gpid) in pool.quarantined

    def __bool__(self) -> bool:
        return any(pool.quarantined for pool in self._pools)

    def __len__(self) -> int:
        return sum(len(pool.quarantined) for pool in self._pools)

    def __iter__(self):
        for sid, pool in enumerate(self._pools):
            for local in pool.quarantined:
                yield global_page(sid, local)

    def add(self, gpid: int) -> None:
        self._pools[shard_of(gpid)].quarantined.add(local_page(gpid))

    def discard(self, gpid: int) -> None:
        self._pools[shard_of(gpid)].quarantined.discard(local_page(gpid))


class _RoutedPin:
    """Pin/unpin context manager over the router (mirrors ``_PinnedPage``)."""

    __slots__ = ("_router", "_gpid", "_write", "_cold")

    def __init__(self, router, gpid, write, cold=False):
        self._router = router
        self._gpid = gpid
        self._write = write
        self._cold = cold

    def __enter__(self):
        return self._router.pin(self._gpid, cold=self._cold)

    def __exit__(self, exc_type, exc, tb):
        self._router.unpin(self._gpid, dirty=self._write)
        return False


class ShardedPool:
    """Route the buffer-pool interface across per-shard pools by gpid.

    Presents exactly the surface the journal, heap/index structures,
    crash recovery and the store use on a single
    :class:`~repro.storage.buffer.BufferPool`; page numbers at this level
    are always gpids. Each underlying pool keeps its own latch, LRU and
    statistics, so threads working in different shards never contend.
    """

    def __init__(self, pools: List):
        if not pools or len(pools) > MAX_SHARDS:
            raise StorageError("shard count must be in [1, %d], got %d"
                               % (MAX_SHARDS, len(pools)))
        self.pools = pools
        self.fresh_pages = _FreshView(pools)
        self.quarantined = _QuarantineView(pools)
        #: ``on_corrupt_page`` mirrors the pool callback but receives
        #: gpids; the store installs per-pool closures that translate.
        self.on_corrupt_page = None

    @property
    def n_shards(self) -> int:
        return len(self.pools)

    @property
    def capacity(self) -> int:
        return sum(pool.capacity for pool in self.pools)

    # Aggregated counters, so samplers (metrics, query tracing) read a
    # router exactly like a single pool.

    @property
    def hits(self) -> int:
        return sum(pool.hits for pool in self.pools)

    @property
    def misses(self) -> int:
        return sum(pool.misses for pool in self.pools)

    @property
    def directory_hits(self) -> int:
        return sum(pool.directory_hits for pool in self.pools)

    @property
    def directory_misses(self) -> int:
        return sum(pool.directory_misses for pool in self.pools)

    @property
    def evictions(self) -> int:
        return sum(pool.evictions for pool in self.pools)

    @property
    def writebacks(self) -> int:
        return sum(pool.writebacks for pool in self.pools)

    @property
    def prefetches(self) -> int:
        return sum(pool.prefetches for pool in self.pools)

    @property
    def readahead_pages(self) -> int:
        return sum(pool.readahead_pages for pool in self.pools)

    @property
    def checksum_failures(self) -> int:
        return sum(pool.checksum_failures for pool in self.pools)

    @property
    def cached_frames(self) -> int:
        return sum(len(pool._frames) for pool in self.pools)

    @property
    def has_free_pages(self) -> bool:
        return self.pools[0].has_free_pages

    def latch_of(self, shard: int):
        return self.pools[shard].latch

    def all_latches(self) -> _AllLatches:
        """Acquire every shard latch, ascending (abort/checkpoint use
        this to get the old single-latch atomicity across shards)."""
        return _AllLatches([pool.latch for pool in self.pools])

    # -- routed page access ------------------------------------------------------

    def pin(self, gpid: int, cold: bool = False, unchecked: bool = False):
        return self.pools[shard_of(gpid)].pin(local_page(gpid), cold=cold,
                                              unchecked=unchecked)

    def unpin(self, gpid: int, dirty: bool = False) -> None:
        self.pools[shard_of(gpid)].unpin(local_page(gpid), dirty=dirty)

    def page(self, gpid: int, write: bool = False,
             cold: bool = False) -> _RoutedPin:
        return _RoutedPin(self, gpid, write, cold)

    def prefetch(self, gpid: int, count: int) -> int:
        return self.pools[shard_of(gpid)].prefetch(local_page(gpid), count)

    # -- allocation --------------------------------------------------------------
    #
    # The unbound forms allocate in shard 0 — callers that never saw a
    # ShardView (the catalog heap, secondary indexes) live there by
    # construction, so a sharded store's metadata stays in the main file.

    def new_page(self, page_type: int) -> int:
        return self.new_page_in(0, page_type)

    def new_extent(self, page_type: int, count: int) -> list:
        return self.new_extent_in(0, page_type, count)

    def new_page_in(self, shard: int, page_type: int) -> int:
        return global_page(shard, self.pools[shard].new_page(page_type))

    def new_extent_in(self, shard: int, page_type: int, count: int) -> list:
        return [global_page(shard, local)
                for local in self.pools[shard].new_extent(page_type, count)]

    def ensure_allocated(self, gpid: int) -> None:
        self.pools[shard_of(gpid)].ensure_allocated(local_page(gpid))

    def free_page(self, gpid: int, lsn: int) -> None:
        self.pools[shard_of(gpid)].free_page(local_page(gpid), lsn)

    # -- pool-wide maintenance ---------------------------------------------------

    def attach_wal(self, wal) -> None:
        for pool in self.pools:
            pool.attach_wal(wal)

    def flush_page(self, gpid: int) -> None:
        self.pools[shard_of(gpid)].flush_page(local_page(gpid))

    def flush_all(self) -> None:
        for pool in self.pools:
            pool.flush_all()

    def sync(self) -> None:
        for pool in self.pools:
            pool.sync()

    def invalidate_all(self) -> None:
        for pool in self.pools:
            pool.invalidate_all()

    def close(self) -> None:
        for pool in self.pools:
            pool.close()

    def dirty_page_numbers(self) -> list:
        out = []
        for sid, pool in enumerate(self.pools):
            out.extend(global_page(sid, n)
                       for n in pool.dirty_page_numbers())
        return out

    def stats(self) -> dict:
        """Aggregated counters plus a per-shard breakdown."""
        per_shard = [pool.stats() for pool in self.pools]
        total = dict(per_shard[0])
        for entry in per_shard[1:]:
            for key, value in entry.items():
                if key != "hit_ratio":
                    total[key] += value
        lookups = total["hits"] + total["misses"]
        total["hit_ratio"] = (total["hits"] / lookups) if lookups else 0.0
        total["shards"] = per_shard
        return total


class ShardView:
    """The pool a per-shard structure allocates from.

    Hands a :class:`ShardedPool` to a heap/index with ``new_page`` /
    ``new_extent`` bound to one shard (returning gpids) and every other
    operation routed by gpid. A structure built over this view is
    entirely shard-local: its chains, allocations and latch traffic all
    stay inside one shard file.
    """

    __slots__ = ("_router", "shard")

    def __init__(self, router: ShardedPool, shard: int):
        self._router = router
        self.shard = shard

    @property
    def latch(self):
        return self._router.pools[self.shard].latch

    @property
    def capacity(self) -> int:
        return self._router.pools[self.shard].capacity

    @property
    def has_free_pages(self) -> bool:
        return self._router.pools[self.shard].has_free_pages

    @property
    def fresh_pages(self):
        return self._router.fresh_pages

    @property
    def quarantined(self):
        return self._router.quarantined

    def pin(self, gpid, cold=False, unchecked=False):
        return self._router.pin(gpid, cold=cold, unchecked=unchecked)

    def unpin(self, gpid, dirty=False):
        self._router.unpin(gpid, dirty=dirty)

    def page(self, gpid, write=False, cold=False):
        return self._router.page(gpid, write=write, cold=cold)

    def prefetch(self, gpid, count):
        return self._router.prefetch(gpid, count)

    def new_page(self, page_type: int) -> int:
        return self._router.new_page_in(self.shard, page_type)

    def new_extent(self, page_type: int, count: int) -> list:
        return self._router.new_extent_in(self.shard, page_type, count)

    def ensure_allocated(self, gpid) -> None:
        self._router.ensure_allocated(gpid)

    def free_page(self, gpid, lsn) -> None:
        self._router.free_page(gpid, lsn)

    def flush_page(self, gpid) -> None:
        self._router.flush_page(gpid)


class ShardJournal:
    """Journal facade whose ``_pool`` is a :class:`ShardView`.

    Heap files and indexes reach their pool through ``journal._pool`` and
    log through the journal's operations; wrapping the pool view around the
    real journal gives a per-(cluster, shard) structure its shard-bound
    allocator without the journal (or the WAL) knowing about shards.
    """

    __slots__ = ("_journal", "_pool")

    def __init__(self, journal, pool: ShardView):
        self._journal = journal
        self._pool = pool

    @property
    def degraded(self):
        return self._journal.degraded

    @property
    def active(self):
        return self._journal.active

    @property
    def table_leaves(self):
        return self._journal.table_leaves

    def edit(self, txn: int, page_no: int, redo_only: bool = False):
        return self._journal.edit(txn, page_no, redo_only)

    def op(self, txn: int, page_no: int):
        return self._journal.op(txn, page_no)

    def nested_top_action(self, txn: int):
        return self._journal.nested_top_action(txn)

    def heap_insert(self, txn: int, page_no: int, record: bytes):
        return self._journal.heap_insert(txn, page_no, record)

    def heap_delete(self, txn: int, page_no: int, slot: int) -> None:
        self._journal.heap_delete(txn, page_no, slot)

    def heap_update(self, txn: int, page_no: int, slot: int,
                    record: bytes) -> bool:
        return self._journal.heap_update(txn, page_no, slot, record)

    def free_page_deferred(self, txn: int, page_no: int,
                           unlinked: bool = False) -> None:
        self._journal.free_page_deferred(txn, page_no, unlinked)

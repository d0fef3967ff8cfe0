"""Retired on-disk layouts, converted once when a store is opened.

Older binaries could split a store over N page files (``<path>``,
``<path>.s1`` ...), each holding a heap and an object table of every
cluster, with page numbers whose top bits named the file.
:func:`merge_files` runs before anything else reads such a store: it
recovers it through a private router over those files, copies every
cluster's objects into one heap and object table in the main file in one
transaction, checkpoints, durably clears the bootstrap root that named
the files and only then unlinks them, last file first. A crash before
the commit leaves the N-file store (the next open merges again); after
it, recovery redoes the merge, an open that finds the root still set but
nothing left to copy only clears it and unlinks, and one that finds it
cleared unlinks the files a crash left. Secondary indexes map keys to
serials and always lived in the main file, so they stay as they are.

Older files may also hold structures nothing else in the package reads
any more:

* **version-2 object directories** — an extendible hash keyed on the
  ``(serial, version)`` tuple: a directory page whose one record is
  ``[global depth, bucket pointers]``, bucket pages whose one record is
  ``[local depth, [[key bytes, key, value], ...]]``, overflow chained
  through the page header's ``next_page``;
* **``kind="hash"`` secondary indexes** — the same structure keyed on the
  field value, in any file version;
* **version-2/3 B+tree nodes** — one codec record per node,
  ``[leaf?, key bytes, keys, values | children, tiebreaks]``;
* **two records per object** (formats 2–4) — a version head
  ``{__key: [s, 0], current, chain}`` without the state, which lived in
  a record ``{__key: [s, v], state}`` of its own even for the current
  version;
* **dict records** (formats 2–5) — every object record a codec dict
  spelling out its field names: the head ``{__key: [s, 0], current,
  chain, state}``, an older version ``{__key: [s, v], state}``.

:func:`convert` (``Store._upgrade_format``, run by every open) rebuilds
all of them in ONE transaction — an object table per directory (the heap
records stay where they are), a B+tree per index, each current state
folded into its head and every object record rewritten positionally
(:func:`relayout`) — swaps the catalog's root pointers, and frees the
old pages at its commit; then it checkpoints and stamps the file header
current. A crash before the commit leaves every old structure in place
and the next open converts again; after it, recovery redoes the whole
conversion. The walkers below only read.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CorruptPageError
from .btree import BTree
from .buffer import BufferPool
from .catalog import Catalog
from .codec import decode_prefix, decode_value, encode_key
from .heap import HeapFile
from .journal import Journal
from .objtable import ObjectTable
from .page import NO_PAGE, PageType
from .pagefile import PageFile
from .records import encode_head, encode_version, record_key
from .recovery import RecoveryReport, recover
from .wal import WriteAheadLog

#: Catalog metadata key set inside the conversion's transaction: the
#: B+trees are format 4 even if the crash came before the file header
#: could say so.
BTREE_FORMAT_KEY = "btree_format"

#: The first format whose object records are positional.
POSITIONAL_FORMAT = 6

_Entries = List[Tuple[Any, Any]]

#: Bootstrap root of the main file naming how many page files an older
#: binary split the store over (absent or 0: one).
FILES_ROOT_KEY = "shards"
#: Low bits of such a store's page numbers: the page within its file;
#: the bits above name the file.
_FILE_SHIFT = 26
_LOCAL = (1 << _FILE_SHIFT) - 1


class _Files:
    """The buffer-pool surface recovery, the journal and the structures
    use, over the pools of an N-file store: a page number is routed to
    the pool of the file its top bits name, and pages are allocated in
    the main file only, where everything :func:`merge_files` writes
    lives. Used by one thread, while the store opens."""

    def __init__(self, pools: List[BufferPool]):
        self.pools = pools
        main = pools[0]
        # Only the main file allocates, so its pool's bookkeeping of
        # fresh pages is all there is; a main-file page number is its
        # own local number.
        self.fresh_pages = main.fresh_pages
        self.new_page = main.new_page
        self.new_extent = main.new_extent
        self.capacity = main.capacity

    def _route(self, page_no: int):
        return self.pools[page_no >> _FILE_SHIFT], page_no & _LOCAL

    @property
    def has_free_pages(self) -> bool:
        return self.pools[0].has_free_pages

    def all_latches(self):
        return self.pools[0].all_latches()

    def pin(self, page_no: int, cold: bool = False, unchecked: bool = False):
        pool, local = self._route(page_no)
        return pool.pin(local, cold=cold, unchecked=unchecked)

    def unpin(self, page_no: int, dirty: bool = False) -> None:
        pool, local = self._route(page_no)
        pool.unpin(local, dirty=dirty)

    def page(self, page_no: int, write: bool = False, cold: bool = False):
        pool, local = self._route(page_no)
        return pool.page(local, write=write, cold=cold)

    def prefetch(self, page_no: int, count: int) -> int:
        pool, local = self._route(page_no)
        return pool.prefetch(local, count)

    def ensure_allocated(self, page_no: int) -> None:
        pool, local = self._route(page_no)
        pool.ensure_allocated(local)

    def free_page(self, page_no: int, lsn: int) -> None:
        pool, local = self._route(page_no)
        pool.free_page(local, lsn)

    def attach_wal(self, wal) -> None:
        for pool in self.pools:
            pool.attach_wal(wal)

    def flush_all(self) -> None:
        for pool in self.pools:
            pool.flush_all()

    def sync(self) -> None:
        for pool in self.pools:
            pool.sync()


def _split_clusters(catalog: Catalog) -> Dict[str, List[List[int]]]:
    """Cluster name -> its ``[heap page, table root]`` pair per file, for
    every cluster whose catalog record still names more than one."""
    split = {}
    for _rid, raw in catalog._heap.scan():
        state = decode_value(raw)
        if state["kind"] == "cluster" and len(state.get("shards") or ()) > 1:
            split[state["name"]] = state["shards"]
    return split


def merge_files(store, pool_size: int) -> Optional[RecoveryReport]:
    """Turn an N-file store into one file (see above); returns the
    recovery report of the N-file store's log, None when there was
    nothing to merge or recover. Runs before *store* builds its pool."""
    count = store._pagefile.get_root(FILES_ROOT_KEY)
    if count <= 1:
        _unlink_leftovers(store.path)
        return None
    from .store import rewrite_objects     # store imports this module
    started = time.perf_counter()
    faults = store.faults
    files = [store._pagefile] + [
        PageFile("%s.s%d" % (store.path, i), faults=faults)
        for i in range(1, count)]
    pools = [BufferPool(pagefile, capacity=max(pool_size // count, 16))
             for pagefile in files]
    router = _Files(pools)
    wal = WriteAheadLog(store.path + ".wal", faults=faults)
    report = recover(router, wal) if wal.end_lsn > 0 else None
    journal = Journal(router, wal)
    catalog = Catalog(journal, store._pagefile, journal.begin)
    split = _split_clusters(catalog)
    moved = 0
    txn = journal.begin()
    try:
        for name, pairs in split.items():
            faults.fire("upgrade.merge.copy", cluster=name)
            sources, old = [], []
            for heap_page, root in pairs:
                with router.page(root) as page:
                    hashed = page.page_type == PageType.HASH_DIRECTORY
                if hashed:
                    pages, entries = hash_entries(router, root)
                else:
                    table = ObjectTable(journal, root, count)
                    pages, entries = table.pages(), list(table.items())
                sources.append((HeapFile(journal, heap_page,
                                         find_tail=False), entries))
                old += pages
            heap, table, n, heap_pages = rewrite_objects(
                journal, txn, sources, router.capacity // 2)
            moved += n
            info = catalog.get_cluster(name)
            info.heap_page, info.directory_page = (heap.first_page,
                                                   table.root_page)
            catalog.save_cluster(txn, info)
            # The other files go as a whole; the main file's pages are
            # freed at the commit.
            _free(journal, txn, [page_no for page_no in old + heap_pages
                                 if page_no <= _LOCAL])
    except BaseException:
        journal.abort(txn)
        raise
    journal.commit(txn)
    journal.checkpoint()
    faults.fire("upgrade.merge.root")
    store._pagefile.set_root(FILES_ROOT_KEY, 0)
    store._pagefile.sync()
    faults.fire("upgrade.merge.unlink")
    wal.close()
    for pagefile in reversed(files[1:]):
        pagefile.close()
        os.unlink(pagefile.path)
    store.events.emit("files_merged", files=count, clusters=len(split),
                      objects=moved,
                      ms=(time.perf_counter() - started) * 1e3)
    return report


def _record(pool, page_no: int):
    """``(first record decoded or None, next page)`` of one page."""
    with pool.page(page_no) as page:
        value = decode_prefix(page.read(0))[0] if page.slot_count else None
        return value, page.next_page


def hash_entries(pool, directory_page: int) -> Tuple[List[int], _Entries]:
    """``(pages, [(key, value), ...])`` of a retired extendible hash."""
    (_depth, pointers), _ = _record(pool, directory_page)
    pages, entries = [directory_page], []
    for page_no in dict.fromkeys(pointers):   # buckets may share a slot
        while page_no != NO_PAGE:
            pages.append(page_no)
            bucket, page_no = _record(pool, page_no)
            if bucket is not None:
                entries.extend((key, value) for _kb, key, value in bucket[1])
    return pages, entries


def legacy_tree_entries(pool, root_page: int) -> Tuple[List[int], _Entries]:
    """``(pages, [(key, value), ...])`` of a version-2/3 B+tree."""
    pages, entries, stack = [], [], [root_page]
    while stack:
        page_no = stack.pop()
        pages.append(page_no)
        (is_leaf, _kbs, keys, payload, _ties), _ = _record(pool, page_no)
        if is_leaf:
            entries.extend(zip(keys, payload))
        else:
            stack.extend(reversed(payload))
    return pages, entries


def _unlink_leftovers(path: str) -> None:
    """Unlink the files a merge killed between clearing the root and its
    last unlink left: ``<path>.s1`` up to the first one missing (the
    merge unlinks the last file first)."""
    n = 1
    while os.path.exists("%s.s%d" % (path, n)):
        os.unlink("%s.s%d" % (path, n))
        n += 1


def _dict_records(store, name: str) -> List[Tuple[int, int]]:
    """Keys of *name*'s object records still in the dict layout, heads
    first. Records that carry no ``__key``, or neither a chain nor a
    state (trigger activations), are not object records."""
    heads, versions = [], []
    for _rid, raw in store._heap(name).scan():
        if record_key(raw) is not None:
            continue    # already positional (a conversion redone)
        record = decode_value(raw)
        key = record.get("__key") if isinstance(record, dict) else None
        if key is None or ("chain" not in record
                           and "state" not in record):
            continue
        (heads if key[1] == 0 else versions).append(tuple(key))
    return heads + versions


def relayout(store, txn: int) -> Tuple[int, int]:
    """Rewrite every dict object record as a positional one (format 6),
    each state's layout built from the dict's own keys, and fold the
    two records per object of formats 2–4 into one on the way: a head
    with a chain and no state takes its current version's state, whose
    record goes. Returns ``(objects folded, records rewritten)``."""
    folded = relaid = 0
    for info in store.catalog.clusters():
        name = info.name
        # Collected first: a rewritten record may move to a page the
        # walk has not reached yet.
        for key in _dict_records(store, name):
            record = store.get(name, key)
            if record is None:
                continue    # a folded current version: its head has it
            serial, version = key
            state = record.get("state")
            if version == 0 and state is None:
                store.faults.fire("upgrade.fold", cluster=name,
                                  serial=serial)
                current = store.get(name, (serial, record["current"]))
                if current is None:
                    continue    # already dangling: verify() reports it
                state = current["state"]
                store.delete(txn, name, (serial, record["current"]))
                folded += 1
            store.faults.fire("upgrade.relayout", cluster=name,
                              serial=serial, version=version)
            layout = store.catalog.layout_id(txn, name, tuple(state))
            if version == 0:
                payload = encode_head(serial, record["current"],
                                      record["chain"], layout, state)
            else:
                payload = encode_version(serial, version, layout, state)
            store.put(txn, name, key, payload)
            relaid += 1
    return folded, relaid


def convert(store) -> None:
    """Convert every retired structure of *store*'s files (see above)."""
    started = time.perf_counter()
    pool, catalog, journal = store._pool, store.catalog, store._journal
    pagefile = store._pagefile
    from_format = pagefile.format_version
    legacy_trees = (from_format < 4
                    and catalog.get_meta(BTREE_FORMAT_KEY) != 4)
    positional = from_format < POSITIONAL_FORMAT
    folded = relaid = 0
    work = []
    for info in catalog.clusters():
        try:
            with pool.page(info.directory_page) as page:
                hashed = page.page_type == PageType.HASH_DIRECTORY
        except CorruptPageError:
            hashed = False  # quarantined: the store opens degraded
        indexes = [ix for ix in info.indexes.values()
                   if legacy_trees or ix.kind != "btree"]
        if hashed or indexes:
            work.append((info, hashed, indexes))
    if work or positional:
        txn = journal.begin()
        try:
            for info, hashed, indexes in work:
                if hashed:
                    old, entries = hash_entries(pool, info.directory_page)
                    table = ObjectTable.create(journal, txn)
                    for key, rid in entries:
                        table.insert(txn, tuple(key), tuple(rid))
                    info.directory_page = table.root_page
                    _free(journal, txn, old)
                for ix in indexes:
                    walk = legacy_tree_entries if ix.kind == "btree" \
                        else hash_entries
                    old, entries = walk(pool, ix.root_page)
                    tree = BTree.create(journal, txn, unique=ix.unique)
                    # Ascending, so the append-biased split packs leaves.
                    entries.sort(key=lambda e: (encode_key(e[0]),
                                                tree._tie_of(e[1])))
                    for key, value in entries:
                        tree.insert(txn, key, value)
                    ix.kind, ix.root_page = "btree", tree.root_page
                    _free(journal, txn, old)
                catalog.save_cluster(txn, info)
            if legacy_trees:
                catalog.set_meta(txn, BTREE_FORMAT_KEY, 4)
            if positional:
                folded, relaid = relayout(store, txn)
        except BaseException:
            journal.abort(txn)
            catalog.invalidate()
            raise
        journal.commit(txn)
        store.checkpoint()
    pagefile.stamp_current_format()
    if positional:
        store.events.emit("format_upgrade", from_format=from_format,
                          to_format=pagefile.format_version,
                          objects_folded=folded, records_relaid=relaid,
                          ms=(time.perf_counter() - started) * 1e3)


def _free(journal, txn: int, pages: List[int]) -> None:
    for page_no in pages:
        journal.free_page_deferred(txn, page_no)

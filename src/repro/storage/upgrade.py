"""Retired on-disk layouts, converted once when a store is opened.

Older files may hold four structures nothing else in the package reads
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
  version.

:func:`convert` (``Store._upgrade_format``, run by every open) rebuilds
all of them in ONE transaction — an object table per directory (the heap
records stay where they are), a B+tree per index, each current state
folded into its head (:func:`fold_heads`) — swaps the catalog's root
pointers, and frees the old pages at its commit; then it checkpoints and
stamps the file header current. A crash before the commit leaves every
old structure in place and the next open converts again; after it,
recovery redoes the whole conversion. The walkers below only read.
"""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from ..errors import CorruptPageError
from .btree import BTree
from .codec import decode_prefix, encode_key
from .objtable import ObjectTable
from .page import NO_PAGE, PageType

#: Catalog metadata key set inside the conversion's transaction: the
#: B+trees are format 4 even if the crash came before the file header
#: could say so.
BTREE_FORMAT_KEY = "btree_format"

#: The first format whose version heads carry their current state.
ONE_RECORD_FORMAT = 5

_Entries = List[Tuple[Any, Any]]


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


def fold_heads(store, txn: int) -> int:
    """Fold every two-record object into one: the head of a chain gets
    its current version's state and that version's record goes. Heads
    that already carry a state (a conversion redone after a crash) and
    records without a chain (trigger activations) are left alone.
    Store-level reads and writes, so every shard converts. Returns the
    number of objects folded."""
    folded = 0
    for info in store.catalog.clusters():
        name = info.name
        # Collected first: a grown head may move to a page the scan has
        # not reached yet.
        todo = [head for batch in store.scan_batches(name)
                for head in map(batch.head, batch.heads)
                if "chain" in head and "state" not in head]
        for head in todo:
            serial, current = head["__key"][0], head["current"]
            store.faults.fire("upgrade.fold", cluster=name, serial=serial)
            record = store.get(name, (serial, current))
            if record is None:
                continue    # already dangling: verify() reports it
            head["state"] = record["state"]
            store.put(txn, name, (serial, 0), head)
            store.delete(txn, name, (serial, current))
            folded += 1
    return folded


def convert(store) -> None:
    """Convert every retired structure of *store*'s files (see above)."""
    started = time.perf_counter()
    pool, catalog, journal = store._pool, store.catalog, store._journal
    from_format = min(pf.format_version for pf in store._pagefiles)
    legacy_trees = (store._pagefile.format_version < 4
                    and catalog.get_meta(BTREE_FORMAT_KEY) != 4)
    fold = from_format < ONE_RECORD_FORMAT
    folded = 0
    work = []
    for info in catalog.clusters():
        shards = []
        for sid, (_heap, root) in enumerate(info.shards):
            try:
                with pool.page(root) as page:
                    if page.page_type == PageType.HASH_DIRECTORY:
                        shards.append(sid)
            except CorruptPageError:
                continue  # quarantined: the store opens degraded
        indexes = [ix for ix in info.indexes.values()
                   if legacy_trees or ix.kind != "btree"]
        if shards or indexes:
            work.append((info, shards, indexes))
    if work or fold:
        txn = journal.begin()
        try:
            for info, shards, indexes in work:
                for sid in shards:
                    old, entries = hash_entries(pool, info.shards[sid][1])
                    table = ObjectTable.create(store._shard_journals[sid],
                                               txn, store.n_shards)
                    for key, rid in entries:
                        table.insert(txn, tuple(key), tuple(rid))
                    info.shards[sid] = [info.shards[sid][0], table.root_page]
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
                info.heap_page, info.directory_page = info.shards[0]
                catalog.save_cluster(txn, info)
            if legacy_trees:
                catalog.set_meta(txn, BTREE_FORMAT_KEY, 4)
            if fold:
                folded = fold_heads(store, txn)
        except BaseException:
            journal.abort(txn)
            catalog.invalidate()
            raise
        journal.commit(txn)
        store.checkpoint()
    for pagefile in store._pagefiles:
        pagefile.stamp_current_format()
    if fold:
        store.events.emit("format_upgrade", from_format=from_format,
                          to_format=store._pagefile.format_version,
                          objects_folded=folded,
                          ms=(time.perf_counter() - started) * 1e3)


def _free(journal, txn: int, pages: List[int]) -> None:
    for page_no in pages:
        journal.free_page_deferred(txn, page_no)

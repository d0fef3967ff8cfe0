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

import time
from typing import Any, List, Tuple

from ..errors import CorruptPageError
from .btree import BTree
from .codec import decode_prefix, decode_value, encode_key
from .objtable import ObjectTable
from .page import NO_PAGE, PageType
from .records import encode_head, encode_version, record_key

#: Catalog metadata key set inside the conversion's transaction: the
#: B+trees are format 4 even if the crash came before the file header
#: could say so.
BTREE_FORMAT_KEY = "btree_format"

#: The first format whose object records are positional.
POSITIONAL_FORMAT = 6

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


def _dict_records(store, name: str) -> List[Tuple[int, int]]:
    """Keys of *name*'s object records still in the dict layout, heads
    first. Records that carry no ``__key``, or neither a chain nor a
    state (trigger activations), are not object records."""
    heads, versions = [], []
    for heap in store._all_heaps(name):
        for _rid, raw in heap.scan():
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
    record goes. Store-level reads and writes, so every shard converts.
    Returns ``(objects folded, records rewritten)``."""
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
    from_format = min(pf.format_version for pf in store._pagefiles)
    legacy_trees = (store._pagefile.format_version < 4
                    and catalog.get_meta(BTREE_FORMAT_KEY) != 4)
    positional = from_format < POSITIONAL_FORMAT
    folded = relaid = 0
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
    if work or positional:
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
            if positional:
                folded, relaid = relayout(store, txn)
        except BaseException:
            journal.abort(txn)
            catalog.invalidate()
            raise
        journal.commit(txn)
        store.checkpoint()
    for pagefile in store._pagefiles:
        pagefile.stamp_current_format()
    if positional:
        store.events.emit("format_upgrade", from_format=from_format,
                          to_format=store._pagefile.format_version,
                          objects_folded=folded, records_relaid=relaid,
                          ms=(time.perf_counter() - started) * 1e3)


def _free(journal, txn: int, pages: List[int]) -> None:
    for page_no in pages:
        journal.free_page_deferred(txn, page_no)

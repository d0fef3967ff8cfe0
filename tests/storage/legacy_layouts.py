"""Writers of the on-disk layouts older binaries left behind.

The store converts these when it opens a file (:mod:`repro.storage.upgrade`)
and has no way to create them; tests build them by hand to fabricate old
files:

* :func:`write_hash` — an extendible hash: the version-2 object directory
  and every ``kind="hash"`` index written before hash indexes became
  B+trees;
* :func:`write_legacy_tree` — a version-2/3 B+tree, one record per node;
* :func:`to_version_5` — every object record as format 5 stored it: a
  codec dict spelling out its field names;
* :func:`to_two_records` — every object as formats 2–4 stored it: a
  version head without the state, and the current state in a record of
  its own (:func:`head_layouts` counts the three layouts);
* :func:`to_v2_layout`, :func:`to_hash_index`, :func:`to_legacy_tree`,
  :func:`to_version_2` — swap a store's structures for their retired
  twins, each in a transaction of its own, and return the pages the
  twins occupy;
* :func:`stamp_version` — the file header an older binary wrote.
"""

import struct
from hashlib import blake2b

from repro.storage.btree import _tiebreak
from repro.storage.codec import decode_value, encode_key, encode_value
from repro.storage.page import MAX_RECORD_SIZE, NO_PAGE, PAGE_SIZE, PageType
from repro.storage.records import decode_record, record_key
from repro.storage.sharding import local_page, shard_of, shard_path

#: A bucket record past this many bytes splits on the next hash bit ...
SPLIT_BYTES = 3072
#: ... unless its keys cannot be told apart, when it chains over pages
#: holding records of up to this many bytes.
CHAIN_BYTES = MAX_RECORD_SIZE - 512
#: The directory's pointers fit one page up to this depth.
MAX_DEPTH = 8


def stable_hash(kb: bytes) -> int:
    """The 64-bit hash of an encoded key that placed it in a bucket."""
    return int.from_bytes(blake2b(kb, digest_size=8).digest(), "little")


def _pad(raw: bytes) -> bytes:
    """Hash records were zero-padded to the largest record a page holds."""
    return raw + bytes(MAX_RECORD_SIZE - len(raw))


def _write_page(journal, txn, page_type, raw, nxt=NO_PAGE) -> int:
    page_no = journal._pool.new_page(page_type)
    with journal.edit(txn, page_no) as page:
        page.insert(raw)
        page.next_page = nxt
    return page_no


def _buckets(rows, depth=0, prefix=0):
    """``(local depth, low hash bits, rows)`` per bucket: a bucket over
    the split size splits on its next hash bit while that separates."""
    if (len(encode_value([depth, rows])) <= SPLIT_BYTES or depth == MAX_DEPTH
            or len({stable_hash(row[0]) for row in rows}) <= 1):
        return [(depth, prefix, rows)]
    bit = 1 << depth
    return (_buckets([r for r in rows if not stable_hash(r[0]) & bit],
                     depth + 1, prefix)
            + _buckets([r for r in rows if stable_hash(r[0]) & bit],
                       depth + 1, prefix | bit))


def _chunks(depth, rows):
    """Split one bucket's rows over chain pages."""
    chunks, chunk = [], []
    for row in rows:
        if chunk and len(encode_value([depth, chunk + [row]])) > CHAIN_BYTES:
            chunks.append(chunk)
            chunk = []
        chunk.append(row)
    return chunks + [chunk]


def write_hash(journal, txn, entries):
    """An extendible hash over ``(key, value)`` *entries*; returns
    ``(directory page, every page it occupies)``."""
    buckets = _buckets([[encode_key(k), k, v] for k, v in entries])
    depth = max(local for local, _prefix, _rows in buckets)
    pointers, pages = [NO_PAGE] * (1 << depth), []
    for local, prefix, rows in buckets:
        page_no = NO_PAGE
        for chunk in reversed(_chunks(local, rows)):
            page_no = _write_page(journal, txn, PageType.HASH_BUCKET,
                                  _pad(encode_value([local, chunk])), page_no)
            pages.append(page_no)
        for slot in range(len(pointers)):
            if slot & ((1 << local) - 1) == prefix:
                pointers[slot] = page_no
    directory = _write_page(journal, txn, PageType.HASH_DIRECTORY,
                            _pad(encode_value([depth, pointers])))
    return directory, [directory] + pages


def write_legacy_tree(journal, txn, entries, unique=False, fanout=24):
    """A version-3 tree — chained leaves of *fanout* entries under
    internal levels — over *entries*; returns its root and every page
    it occupies."""
    pool = journal._pool
    rows = sorted(((encode_key(k), b"" if unique else _tiebreak(v), k, v)
                   for k, v in entries), key=lambda r: r[:2])
    chunks = [rows[i:i + fanout] for i in range(0, len(rows), fanout)] or [[]]
    # a level: (first row below the node, its state) per node
    level = [(chunk[0] if chunk else None,
              [True] + [[r[i] for r in chunk] for i in (0, 2, 3, 1)])
             for chunk in chunks]
    pages, fanout = [], max(fanout, 2)
    while True:
        leaf = level[0][1][0]
        nos = [pool.new_page(PageType.BTREE_LEAF if leaf
                             else PageType.BTREE_INTERNAL) for _ in level]
        for (_first, state), page_no, nxt in zip(level, nos,
                                                 nos[1:] + [NO_PAGE]):
            with journal.edit(txn, page_no) as page:
                page.insert(encode_value(state))
                page.next_page = nxt if leaf else NO_PAGE
        pages += nos
        if len(nos) == 1:
            return nos[0], pages
        firsts = [first for first, _state in level]
        level = [(firsts[i],
                  [False] + [[s[c] for s in firsts[i + 1:i + fanout]]
                             for c in (0, 2)]
                  + [nos[i:i + fanout],
                     [s[1] for s in firsts[i + 1:i + fanout]]])
                 for i in range(0, len(nos), fanout)]


def read_legacy_tree(pool, root):
    """``items()`` of a version-3 tree."""
    page_no = root
    while True:
        with pool.page(page_no) as page:
            state = decode_value(page.read(0))
        if state[0]:
            break
        page_no = state[3][0]
    out = []
    while page_no != NO_PAGE:
        with pool.page(page_no) as page:
            state, page_no = decode_value(page.read(0)), page.next_page
        out.extend(zip(state[2], state[3]))
    return out


def tree_pages(tree):
    """Every page of a (current-format) B+tree."""
    pages, queue = [], [tree.root_page]
    while queue:
        page_no = queue.pop()
        pages.append(page_no)
        queue.extend(tree.children(page_no))
    return pages


def _free(store, txn, pages):
    for page_no in pages:
        store._journal.free_page_deferred(txn, page_no)


def _stored(store, cluster):
    """``[(key, payload)]`` of every record of *cluster*, all shards."""
    return [(record_key(raw), raw) for heap in store._all_heaps(cluster)
            for _rid, raw in heap.scan()]


def head_layouts(store, cluster):
    """``(two-record, dict, positional)``: how many version heads of
    *cluster* are stored as formats 2-4 did (a dict without the state),
    as format 5 did (a dict with it) and as format 6 does."""
    two = one = positional = 0
    for key, raw in _stored(store, cluster):
        if key is not None:
            positional += key[1] == 0
            continue
        record = decode_value(raw)
        if isinstance(record, dict) and "chain" in record:
            two += "state" not in record
            one += "state" in record
    return two, one, positional


def _objects(store, cluster):
    """``[(key, record)]`` of *cluster*'s positional object records,
    decoded (a head ``{current, chain, state}``, an older version
    ``{state}``)."""
    layouts = store.catalog.layouts(cluster)
    return [(key, decode_record(raw, layouts))
            for key, raw in _stored(store, cluster) if key is not None]


def to_version_5(store):
    """Rewrite every object record of *store* as the codec dict format 5
    stored: ``{__key: [s, 0], current, chain, state}`` for a head,
    ``{__key: [s, v], state}`` for an older version. One transaction;
    returns the number of records rewritten."""
    txn = store.begin()
    rewritten = 0
    for info in list(store.catalog.clusters()):
        for (serial, version), record in _objects(store, info.name):
            store.put(txn, info.name, (serial, version),
                      dict([("__key", [serial, version])] + list(
                          record.items())))
            rewritten += 1
    store.commit(txn)
    return rewritten


def to_two_records(store):
    """Split every object of *store* the way formats 2-4 kept it: the
    head ``{__key: [s, 0], current, chain}`` and the current state in a
    record ``{__key: [s, current], state}``; older versions become
    ``{__key: [s, v], state}``. One transaction; returns the number of
    objects split."""
    txn = store.begin()
    split = 0
    for info in list(store.catalog.clusters()):
        for (serial, version), record in _objects(store, info.name):
            if version:
                store.put(txn, info.name, (serial, version),
                          {"__key": [serial, version],
                           "state": record["state"]})
                continue
            current = record["current"]
            store.put(txn, info.name, (serial, current),
                      {"__key": [serial, current],
                       "state": record.pop("state")}, new=True)
            store.put(txn, info.name, (serial, 0),
                      dict([("__key", [serial, 0])] + list(record.items())))
            split += 1
    store.commit(txn)
    return split


def to_v2_layout(store, cluster):
    """Give *cluster* version-2 object directories: one extendible hash
    per shard keyed on the ``(serial, version)`` tuple."""
    txn = store.begin()
    info = store.cluster_info(cluster)
    written = []
    for sid in range(store.n_shards):
        table = store._directory(cluster, sid)
        root, pages = write_hash(store._shard_journals[sid], txn,
                                 list(table.items()))
        written += pages
        _free(store, txn, table.pages())
        info.shards[sid] = [info.shards[sid][0], root]
        del store._directories[(cluster, sid)]
    info.heap_page, info.directory_page = info.shards[0]
    store.catalog.save_cluster(txn, info)
    store.commit(txn)
    return written


def _retire_index(store, cluster, field, kind, write):
    txn = store.begin()
    info = store.cluster_info(cluster)
    tree = store.index(cluster, field)
    ix = info.indexes[field]
    ix.root_page, pages = write(txn, list(tree.items()), ix.unique)
    ix.kind = kind
    _free(store, txn, tree_pages(tree))
    del store._indexes[(cluster, field)]
    store.catalog.save_cluster(txn, info)
    store.commit(txn)
    return pages


def to_hash_index(store, cluster, field):
    """Rewrite one index as the ``kind="hash"`` index of old."""
    return _retire_index(store, cluster, field, "hash",
                  lambda txn, entries, _unique:
                  write_hash(store._journal, txn, entries))


def to_legacy_tree(store, cluster, field):
    """Rewrite one index as a version-3 B+tree."""
    return _retire_index(store, cluster, field, "btree",
                  lambda txn, entries, unique:
                  write_legacy_tree(store._journal, txn, entries, unique))


def to_version_2(store, hash_indexes=()):
    """Every structure of *store* as a version-2 binary wrote it: two
    records per object, hash object directories, a version-3 tree per
    index except the ``(cluster, field)`` pairs in *hash_indexes*, which
    become hash indexes. Close the store and :func:`stamp_version` it
    after."""
    to_two_records(store)
    written = []
    for info in list(store.catalog.clusters()):
        written += to_v2_layout(store, info.name)
        for field in list(info.indexes):
            retire = (to_hash_index if (info.name, field) in hash_indexes
                      else to_legacy_tree)
            written += retire(store, info.name, field)
    return written


def stamp_version(path, version, shards=1):
    """Write *version* into the header of every shard file of *path*."""
    for sid in range(shards):
        with open(shard_path(path, sid), "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<I", version))


def header_version(path):
    """The format version in *path*'s file header."""
    with open(path, "rb") as handle:
        return struct.unpack_from("<I", handle.read(16), 8)[0]


def page_type(path, gpid):
    """The type byte of page *gpid* as it is on disk."""
    with open(shard_path(path, shard_of(gpid)), "rb") as handle:
        handle.seek(local_page(gpid) * PAGE_SIZE + 4)
        return handle.read(1)[0]

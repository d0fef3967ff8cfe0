"""Object table — a cluster's ``(serial, version) -> RID`` directory.

The paper reaches a persistent object through its id, wherever it lives
in its cluster (section 2). Serials are dense per-cluster integers
(``Store.allocate_serial``), so the directory is addressed by arithmetic,
not hashing — the logical-OID indirection table of the clustering
literature (objects move, ids do not):

* a fixed two-level radix of page numbers, root -> mid -> leaf, both node
  levels :data:`FANOUT` wide; a missing child is allocated by the first
  insert that needs it and there is no growth or rebalancing logic. One
  root page covers ``FANOUT * FANOUT * LEAF_SERIALS`` (about 115 million)
  local serials; serials are never reused, so a cluster that outlives
  that range chains a further root page through the header's
  ``next_page`` — the *k*-th range costs *k* more pins per lookup and
  the whole unsigned 32-bit serial range stays reachable;
* leaf *i* covers local serials ``[i * LEAF_SERIALS, (i + 1) *
  LEAF_SERIALS)`` (local = ``serial // stride``: 1, except in the
  tables of a store older binaries split over several page files, which
  :func:`repro.storage.upgrade.merge_files` reads once) and holds
  :data:`LEAF_ENTRIES` fixed-width entries ``serial:u32 version:u32
  page:u32 slot:u16 flag:u8 pad:u8``. A leaf that fills — heavily
  versioned objects — chains through the page header's ``next_page``.

Three invariants carry the design:

1. **One leaf per object.** An object's entries — its head ``(serial,
   0)``, which carries the current state, and one per older version —
   share a leaf chain, reached in three pins (one, once the leaf is
   resolved — see the memo below); a lookup is a byte search of the
   pinned leaf for the packed key — no codec, no digest, no decoded
   copy. An object with one version is one entry.
2. **One small OP record per entry operation.** An insert writes one
   15-byte entry into a position no live entry holds; a delete flips
   that entry's flag to dead. Each appends one OP record
   (:meth:`Journal.op <repro.storage.journal.Journal.op>`): the changed
   bytes as redo, the table (root page, stride) and, for a delete, the
   entry as undo — under 64 logged bytes, whatever the table holds.
3. **Undo finds its entry by key.** The inverse (:func:`undo_entry`)
   descends the radix afresh and removes the live entry for the key, or
   re-inserts the deleted one in any non-live position — re-creating its
   leaf if a detach took it away meanwhile. It never writes back bytes
   by offset, so it cannot touch an entry another transaction wrote
   beside it, nor care where the entry is now. Structure growth (a new
   mid, leaf or chain page and the pointer to it) is logged redo-only
   (see ``Journal.edit``): an abort keeps the empty page linked, because
   other transactions may already have put entries on it.

Dead entries cost nothing to reclaim. An insert takes the first dead (or
never-used) position of its leaf, so re-versioning one object cycles
through the same positions. A leaf chain that a delete — or an undone
insert — leaves with no live entry is detached the way the B+tree
detaches an emptied leaf: a nested top action clears its mid pointer
and the chain's pages go to the free list when the transaction ends,
however it ends; the next insert into that serial range grows a fresh
leaf. A sliding window's table therefore holds a constant number of
leaves with no rebuild; :meth:`Store.vacuum
<repro.storage.store.Store.vacuum>` stays the explicit compaction.

The leaf memo (leaf index -> first page of its chain) lives on the
journal, one dict per root page, so every instance over a table —
including the ones an undo or recovery builds — shares it, and a detach
through any of them drops the entry for all. ``create`` starts a root
page's memo empty, so a recycled root never inherits a stale one.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import IndexError_, StorageError
from .journal import OP_OBJ_DELETE, OP_OBJ_INSERT, Journal
from .page import HEADER_SIZE, NO_PAGE, PAGE_SIZE, PageType

_PTR = struct.Struct("<I")
_KEY = struct.Struct("<II")
_ENTRY = struct.Struct("<IIIHBx")   # serial, version, page, slot, flag
ENTRY_SIZE = _ENTRY.size
_RID_AT = _KEY.size                 # (page, slot) follow the key
_RID = struct.Struct("<IH")
_FLAG_AT = 14
#: Undo information of an entry operation: the table (root page,
#: stride), then — for a delete — the entry's key and RID.
_TABLE = struct.Struct("<IB")

#: Entry flags. 0 is "never used"; an insert takes a position holding
#: either 0 or DEAD.
LIVE = 1
DEAD = 2
_DEAD_FLAG = bytes((DEAD,))

#: Child pointers per root / mid page.
FANOUT = (PAGE_SIZE - HEADER_SIZE) // _PTR.size
#: Entries per leaf page.
LEAF_ENTRIES = (PAGE_SIZE - HEADER_SIZE) // ENTRY_SIZE
_ENTRIES_END = HEADER_SIZE + LEAF_ENTRIES * ENTRY_SIZE
#: The flag byte of every entry of a leaf page, as a slice of its buffer.
_FLAGS = slice(HEADER_SIZE + _FLAG_AT, _ENTRIES_END, ENTRY_SIZE)
#: Serials per leaf: a fresh object takes two entries (head + state), so
#: 112 serials fill 224 of the 253 positions and leave room for ~29 more
#: versions before the leaf chains.
LEAF_SERIALS = 112

_NODE_END = HEADER_SIZE + FANOUT * _PTR.size
#: Leaves under one root page.
_ROOT_LEAVES = FANOUT * FANOUT


def _pack_key(key) -> bytes:
    try:
        serial, version = key
        return _KEY.pack(serial, version)
    except (struct.error, TypeError, ValueError):
        raise StorageError(
            "object keys are (serial, version) pairs of unsigned 32-bit "
            "integers, got %r" % (key,)) from None


def _new_page(journal: Journal, txn: int, page_type: int) -> int:
    """Allocate a blank table page, logged redo-only as a whole image;
    the pointer to it is written after."""
    page_no = journal._pool.new_page(page_type)
    with journal.edit(txn, page_no, redo_only=True):
        pass
    return page_no


class ObjectTable:
    """Serial-indexed ``(serial, version) -> (page, slot)`` table."""

    def __init__(self, journal: Journal, root_page: int, stride: int = 1):
        self._journal = journal
        self._pool = journal._pool
        self.root_page = root_page
        self._stride = stride
        self._undo = _TABLE.pack(root_page, stride)
        #: leaf index -> first page of its chain, shared through the
        #: journal by every instance over this root (module docs).
        self._leaves: Dict[int, int] = journal.table_leaves.setdefault(
            root_page, {})

    @classmethod
    def create(cls, journal: Journal, txn: int) -> "ObjectTable":
        """Allocate an empty table: a root page with no children."""
        root_page = _new_page(journal, txn, PageType.TABLE_NODE)
        journal.table_leaves[root_page] = {}
        return cls(journal, root_page)

    # -- radix descent -------------------------------------------------------

    def _child(self, node: int, index: int, txn: Optional[int],
               child_type: int) -> int:
        """Child *index* of *node*; allocated under *txn* when missing."""
        offset = HEADER_SIZE + index * _PTR.size
        pool = self._pool
        page = pool.pin(node)
        try:
            child = _PTR.unpack_from(page.buf, offset)[0]
        finally:
            pool.unpin(node)
        if child or txn is None:
            return child
        child = _new_page(self._journal, txn, child_type)
        with self._journal.edit(txn, node, redo_only=True) as page:
            page.write(offset, _PTR.pack(child))
        return child

    def _root(self, index: int, txn: Optional[int]) -> int:
        """Page *index* of the root chain, linked under *txn* when missing."""
        pool = self._pool
        page_no = self.root_page
        for _ in range(index):
            page = pool.pin(page_no)
            try:
                nxt = page.next_page
            finally:
                pool.unpin(page_no)
            if nxt == NO_PAGE:
                if txn is None:
                    return NO_PAGE
                nxt = _new_page(self._journal, txn, PageType.TABLE_NODE)
                with self._journal.edit(txn, page_no,
                                        redo_only=True) as page:
                    page.next_page = nxt
            page_no = nxt
        return page_no

    def _mid(self, index: int, txn: Optional[int]) -> Tuple[int, int]:
        """``(mid page, slot)`` of leaf *index* (the mid is ``NO_PAGE``
        when it does not exist and *txn* is None)."""
        root_index, leaf = divmod(index, _ROOT_LEAVES)
        mid_index, slot = divmod(leaf, FANOUT)
        root = self._root(root_index, txn) if root_index else self.root_page
        if root == NO_PAGE:
            return NO_PAGE, slot
        return self._child(root, mid_index, txn, PageType.TABLE_NODE), slot

    def _leaf(self, serial: int, txn: Optional[int] = None) -> int:
        """First page of the leaf chain covering *serial* (``NO_PAGE``
        when it does not exist and *txn* is None)."""
        index = serial // self._stride // LEAF_SERIALS
        page_no = self._leaves.get(index)
        if page_no is not None:
            return page_no
        mid, slot = self._mid(index, txn)
        if mid == NO_PAGE:
            return NO_PAGE
        page_no = self._child(mid, slot, txn, PageType.TABLE_LEAF)
        if page_no != NO_PAGE:
            self._leaves[index] = page_no
        return page_no

    def _find(self, key) -> Optional[Tuple[int, int, Tuple[int, int]]]:
        """``(page_no, offset, rid)`` of the live entry for *key*."""
        needle = _pack_key(key)
        pool = self._pool
        page_no = self._leaf(key[0])
        while page_no != NO_PAGE:
            page = pool.pin(page_no)
            try:
                buf = page.buf
                pos = buf.find(needle, HEADER_SIZE, _ENTRIES_END)
                while pos != -1:
                    if ((pos - HEADER_SIZE) % ENTRY_SIZE == 0
                            and buf[pos + _FLAG_AT] == LIVE):
                        return (page_no, pos,
                                _RID.unpack_from(buf, pos + _RID_AT))
                    pos = buf.find(needle, pos + 1, _ENTRIES_END)
                nxt = page.next_page
            finally:
                pool.unpin(page_no)
            page_no = nxt
        return None

    # -- operations ----------------------------------------------------------

    def search(self, key) -> Optional[Tuple[int, int]]:
        """The ``(page, slot)`` stored under *key*, or None."""
        hit = self._find(key)
        return hit[2] if hit else None

    def insert(self, txn: int, key, rid) -> None:
        """Map *key* to *rid* in the first non-live position of its leaf
        chain, growing the chain when every position is live. The caller
        has checked *key* is absent."""
        # The pad byte of every position is zero.
        entry = _pack_key(key) + _RID.pack(*rid) + bytes((LIVE,))
        journal = self._journal
        page_no = self._leaf(key[0], txn)
        while True:
            with journal.op(txn, page_no) as op:
                page = op.page
                flags = page.buf[_FLAGS]
                free = flags.find(DEAD)
                if free == -1:
                    free = flags.find(0)
                if free != -1:
                    page.write(HEADER_SIZE + free * ENTRY_SIZE, entry)
                    op.log(OP_OBJ_INSERT, free, self._undo)
                    return
                nxt = page.next_page
            if nxt == NO_PAGE:
                nxt = _new_page(journal, txn, PageType.TABLE_LEAF)
                with journal.edit(txn, page_no, redo_only=True) as page:
                    page.next_page = nxt
            page_no = nxt

    def delete(self, txn: int, key) -> Optional[Tuple[int, int]]:
        """Mark *key*'s entry dead; returns the RID it held, or None. A
        leaf chain left with no live entry is detached."""
        hit = self._find(key)
        if hit is None:
            return None
        page_no, offset, rid = hit
        with self._journal.op(txn, page_no) as op:
            page = op.page
            page.write(offset + _FLAG_AT, _DEAD_FLAG)
            op.log(OP_OBJ_DELETE, (offset - HEADER_SIZE) // ENTRY_SIZE,
                   self._undo + page.buf[offset:offset + _FLAG_AT])
            emptied = LIVE not in page.buf[_FLAGS]
        if emptied:
            self._detach(txn, key[0] // self._stride // LEAF_SERIALS)
        return rid

    def _detach(self, txn: int, index: int) -> None:
        """Unlink leaf *index*'s chain if none of its entries is live, as
        a nested top action; its pages are freed when *txn* ends."""
        mid, slot = self._mid(index, None)
        pool = self._pool
        pages = []
        page_no = self._child(mid, slot, None, PageType.TABLE_LEAF)
        while page_no != NO_PAGE:
            page = pool.pin(page_no)
            try:
                if LIVE in page.buf[_FLAGS]:
                    return
                nxt = page.next_page
            finally:
                pool.unpin(page_no)
            pages.append(page_no)
            page_no = nxt
        self._leaves.pop(index, None)
        journal = self._journal
        with journal.nested_top_action(txn):
            with journal.edit(txn, mid) as page:
                page.write(HEADER_SIZE + slot * _PTR.size, _PTR.pack(0))
        for page_no in pages:
            journal.free_page_deferred(txn, page_no, unlinked=True)

    # -- whole-table walks -----------------------------------------------------

    def _children(self, node: int) -> List[Tuple[int, int]]:
        """``(index, child)`` for every child pointer set in *node*."""
        with self._pool.page(node) as page:
            if page.page_type != PageType.TABLE_NODE:
                raise IndexError_("page %d is not an object-table node"
                                  % node)
            raw = bytes(page.buf[HEADER_SIZE:_NODE_END])
        return [(i, child) for i, (child,)
                in enumerate(_PTR.iter_unpack(raw)) if child]

    def _roots(self) -> List[int]:
        """The pages of the root chain."""
        roots = [self.root_page]
        while True:
            with self._pool.page(roots[-1]) as page:
                nxt = page.next_page
            if nxt == NO_PAGE:
                return roots
            if nxt in roots:
                raise IndexError_("root chain loops at page %d" % nxt)
            roots.append(nxt)

    def _mids(self) -> Iterator[Tuple[int, int]]:
        """``(first leaf index, page_no)`` of every mid page."""
        for root_index, root in enumerate(self._roots()):
            for mid_index, mid in self._children(root):
                yield (root_index * FANOUT + mid_index) * FANOUT, mid

    def _leaf_pages(self) -> Iterator[Tuple[int, int, bytes]]:
        """``(leaf_index, page_no, entry bytes)`` for every leaf page,
        chain pages included."""
        for first_leaf, mid in self._mids():
            for slot, page_no in self._children(mid):
                seen = set()
                while page_no != NO_PAGE:
                    if page_no in seen:
                        raise IndexError_("leaf chain loops at page %d"
                                          % page_no)
                    seen.add(page_no)
                    # Cold pins: a whole-table walk (vacuum, verify, a
                    # metrics snapshot) must not evict the working set.
                    with self._pool.page(page_no, cold=True) as page:
                        if page.page_type != PageType.TABLE_LEAF:
                            raise IndexError_(
                                "page %d is not an object-table leaf"
                                % page_no)
                        raw = bytes(page.buf[HEADER_SIZE:_ENTRIES_END])
                        nxt = page.next_page
                    yield first_leaf + slot, page_no, raw
                    page_no = nxt

    def items(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """All live ``((serial, version), (page, slot))`` entries."""
        for _leaf, _page_no, raw in self._leaf_pages():
            for serial, version, page, slot, flag in _ENTRY.iter_unpack(raw):
                if flag == LIVE:
                    yield (serial, version), (page, slot)

    def pages(self) -> List[int]:
        """Every page of the table (roots, mids, leaves, chain pages)."""
        pages = self._roots()
        pages += [mid for _first_leaf, mid in self._mids()]
        pages += [page_no for _leaf, page_no, _raw in self._leaf_pages()]
        return pages

    def stats(self) -> Dict[str, object]:
        """Leaf pages and live / dead entry counts (one walk)."""
        leaf_pages = live = dead = 0
        for _leaf, _page_no, raw in self._leaf_pages():
            flags = raw[_FLAG_AT::ENTRY_SIZE]
            leaf_pages += 1
            live += flags.count(LIVE)
            dead += flags.count(DEAD)
        return {"leaf_pages": leaf_pages, "live_entries": live,
                "dead_entries": dead}

    def check_invariants(self) -> None:
        """Validate the table; raises :class:`IndexError_` if broken."""
        zero = bytes(ENTRY_SIZE)
        live = set()
        for leaf, page_no, raw in self._leaf_pages():
            for i, (serial, version, _page, _slot, flag) in enumerate(
                    _ENTRY.iter_unpack(raw)):
                if flag == 0:
                    if raw[i * ENTRY_SIZE:(i + 1) * ENTRY_SIZE] != zero:
                        raise IndexError_(
                            "page %d: unused entry %d is not blank"
                            % (page_no, i))
                    continue
                if flag not in (LIVE, DEAD):
                    raise IndexError_("page %d: entry %d has flag %d"
                                      % (page_no, i, flag))
                if serial // self._stride // LEAF_SERIALS != leaf:
                    raise IndexError_(
                        "page %d: serial %d filed under leaf %d"
                        % (page_no, serial, leaf))
                if flag == LIVE:
                    if (serial, version) in live:
                        raise IndexError_("key %r has two live entries"
                                          % ((serial, version),))
                    live.add((serial, version))


def undo_entry(journal: Journal, txn: int, record: dict) -> None:
    """Undo one logged entry operation (see :meth:`Journal.undo_step
    <repro.storage.journal.Journal.undo_step>`): mark dead the entry an
    insert added, or re-insert the one a delete took out, wherever the
    table keeps it now — a fresh descent by key, so a detach or a leaf
    re-created since the operation does not matter."""
    undo = record["undo"]
    root_page, stride = _TABLE.unpack_from(undo, 0)
    table = ObjectTable(journal, root_page, stride)
    if record["op"] == OP_OBJ_DELETE:
        entry = undo[_TABLE.size:]
        table.insert(txn, _KEY.unpack_from(entry),
                     _RID.unpack_from(entry, _RID_AT))
        return
    # An insert's key is in its redo image, at the entry it wrote.
    at = HEADER_SIZE + record["pos"] * ENTRY_SIZE
    for offset, image in record["ranges"]:
        if offset <= at < offset + len(image):
            table.delete(txn, _KEY.unpack_from(image, at - offset))
            return

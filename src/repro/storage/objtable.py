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
  LEAF_SERIALS)`` (local = ``serial // stride``, the stride being the
  store's shard count, so each shard's table is dense) and holds
  :data:`LEAF_ENTRIES` fixed-width entries ``serial:u32 version:u32
  page:u32 slot:u16 flag:u8 pad:u8``. A leaf that fills — heavily
  versioned objects — chains through the page header's ``next_page``.

Three invariants carry the design:

1. **One leaf per object.** An object's head ``(serial, 0)`` and all its
   version states share a leaf chain, reached in three pins (one, once
   the table instance has resolved that leaf); a lookup is
   a byte search of the pinned leaf for the packed key — no codec, no
   digest, no decoded copy.
2. **O(1) logged bytes.** An insert writes one never-used entry position
   (flag 0) and a delete flips that entry's flag to dead: at most 15
   changed bytes, whatever the table holds.
3. **No cross-serial byte sharing.** There is no count word and no
   swap-with-last, so the bytes one transaction's before-images cover
   belong to its own entries only — the range undo of an aborting
   transaction (``Journal.write``: one UPDATE record per entry or flag)
   cannot touch an entry another transaction wrote beside it. Structure
   growth (a new mid, leaf or chain page and the pointer to it) is
   logged redo-only (see ``Journal.edit``): an abort keeps the empty
   page linked, because other transactions may already have put entries
   on it.

Dead entries and emptied leaves are not reused in place (that would
break 3: a dead flag may be an uncommitted delete whose undo writes the
entry back). The rebuild that ``Store.vacuum`` does anyway reclaims them,
and the recluster daemon runs that rebuild for a shard once its table
holds more dead entries than live ones (``Store.crowded_directories``),
so a sliding window's directory stays within a constant factor of its
live size on a running system.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import IndexError_, StorageError
from .journal import Journal
from .page import HEADER_SIZE, NO_PAGE, PAGE_SIZE, PageType

_PTR = struct.Struct("<I")
_KEY = struct.Struct("<II")
_ENTRY = struct.Struct("<IIIHBx")   # serial, version, page, slot, flag
ENTRY_SIZE = _ENTRY.size
_RID_AT = _KEY.size                 # (page, slot) follow the key
_RID = struct.Struct("<IH")
_FLAG_AT = 14

#: Entry flags. 0 is "never used": a position is written at most once
#: per committed history (an aborted insert zeroes it again).
LIVE = 1
DEAD = 2

#: Child pointers per root / mid page.
FANOUT = (PAGE_SIZE - HEADER_SIZE) // _PTR.size
#: Entries per leaf page.
LEAF_ENTRIES = (PAGE_SIZE - HEADER_SIZE) // ENTRY_SIZE
_ENTRIES_END = HEADER_SIZE + LEAF_ENTRIES * ENTRY_SIZE
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
        #: leaf index -> first page of its chain. A leaf, once linked, is
        #: never moved, unlinked or freed while the table lives (growth
        #: is redo-only; a rebuild makes a new table), so a resolved
        #: descent stays true.
        self._leaves: Dict[int, int] = {}
        #: Deletes through this instance (a rebuild starts a new one):
        #: lets ``Store.crowded_directories`` skip the leaf walk for
        #: tables nothing was deleted from.
        self.deletes = 0

    @classmethod
    def create(cls, journal: Journal, txn: int,
               stride: int = 1) -> "ObjectTable":
        """Allocate an empty table: a root page with no children."""
        return cls(journal, _new_page(journal, txn, PageType.TABLE_NODE),
                   stride)

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
        self._journal.write(txn, node, offset, _PTR.pack(child),
                            redo_only=True)
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

    def _leaf(self, serial: int, txn: Optional[int] = None) -> int:
        """First page of the leaf chain covering *serial* (``NO_PAGE``
        when it does not exist and *txn* is None)."""
        index = serial // self._stride // LEAF_SERIALS
        page_no = self._leaves.get(index)
        if page_no is not None:
            return page_no
        root_index, leaf = divmod(index, _ROOT_LEAVES)
        mid_index, slot = divmod(leaf, FANOUT)
        root = self._root(root_index, txn) if root_index else self.root_page
        if root == NO_PAGE:
            return NO_PAGE
        mid = self._child(root, mid_index, txn, PageType.TABLE_NODE)
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
        """Map *key* to *rid*. The caller has checked *key* is absent."""
        # The pad byte of a never-used position is already zero.
        entry = _pack_key(key) + _RID.pack(*rid) + bytes((LIVE,))
        pool = self._pool
        page_no = self._leaf(key[0], txn)
        while True:
            page = pool.pin(page_no)
            try:
                free = page.buf[HEADER_SIZE + _FLAG_AT:_ENTRIES_END:
                                ENTRY_SIZE].find(0)
                nxt = page.next_page
            finally:
                pool.unpin(page_no)
            if free != -1:
                break
            if nxt == NO_PAGE:
                nxt = _new_page(self._journal, txn, PageType.TABLE_LEAF)
                with self._journal.edit(txn, page_no,
                                        redo_only=True) as page:
                    page.next_page = nxt
            page_no = nxt
        self._journal.write(txn, page_no, HEADER_SIZE + free * ENTRY_SIZE,
                            entry)

    def delete(self, txn: int, key) -> Optional[Tuple[int, int]]:
        """Mark *key*'s entry dead; returns the RID it held, or None."""
        hit = self._find(key)
        if hit is None:
            return None
        page_no, offset, rid = hit
        self._journal.write(txn, page_no, offset + _FLAG_AT, bytes((DEAD,)))
        self.deletes += 1
        return rid

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


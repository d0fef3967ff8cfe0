"""Disk-resident B+tree index.

Keys are arbitrary Python values mapped through the order-preserving
:func:`repro.storage.codec.encode_key`; comparisons inside the tree are
plain byte comparisons. Values are arbitrary codec-encodable Python values
(the object layer stores object serials).

Duplicate user keys are handled the classic way: every entry's *sort key*
is the pair ``(encoded key, tiebreak)`` where the tiebreak derives from
the entry's value. Separators therefore always cleanly partition entries —
a run of equal user keys can never straddle a split in a way that breaks
subtree bounds, and point/range searches walk exactly the leaves holding
the key's run.

**A node is an ordered slotted page** (:mod:`repro.storage.page`): one
entry is one record, and the slot directory is kept in sort-key order, so
slot *i* is the *i*-th entry. Descent and point search binary-search the
page bytes — slot → record → key bytes — and never decode a node. Record
layouts (``klen`` is a little-endian u16)::

    leaf      klen | key bytes | encode_value(value) | encode_value(key)
    internal  klen | key bytes | tiebreak bytes      | child page (u64)

A leaf stores each datum once: the tiebreak is *derived* from the value
when two entries' key bytes compare equal (only inside a run of duplicate
keys; never in a ``unique`` tree, whose tiebreaks are empty). An internal
node with *n* children holds *n* records; record *j* routes sort keys
``>=`` its own and ``<`` record *j+1*'s, and slot 0 has no key (it is
"minus infinity": removing the leftmost child empties the next record's
key). Leaves are chained through the page header's ``next_page`` for
range scans.

An insert or delete that does not change the tree's shape is **one page
edit**: the entry's bytes, the shifted tail of the slot directory and the
page header, logged as exactly those byte runs. A node splits when the
record does not fit: the upper half's records move to a new right
sibling and a separator — the right sibling's first sort key, its
tiebreak dropped when the key bytes alone separate — goes up. Splits are
*append-biased*: when the new entry lands past the last slot of the
rightmost node of its level, the old node stays full and the new one
starts with just that entry, so ascending loads fill pages instead of
freezing them half empty. A record may be as large as a node holds (a
leaf of one entry, an internal node of two children), as in the
whole-node format before this one; a leaf entry that no single cut can
hold between its neighbours takes two splits.

Deletion is *lazy* in the PostgreSQL tradition: entries are removed
immediately, but nodes are only detached when completely empty (no
borrow/merge rebalancing). An emptied leaf is always detached — unlinked
from its chain predecessor (the rightmost leaf of the previous subtree
when it is its parent's first child), removed from its parent, and any
internal node that thereby loses its last child goes with it — so no
empty non-root leaf stays reachable and a sliding window of keys holds a
constant number of pages.

The root page number is stable for the life of the index (the catalog
records it once): when the root splits, its lower half moves to a fresh
page and the root page becomes the new internal node in place; when the
root decays to a single child, the child's content moves up into it.

All mutations run through :class:`~repro.storage.journal.Journal` edits,
so index updates commit and roll back with their transaction.

Range scans decode a leaf at a time into ``(key bytes, keys, values)``
lists; those are cached per tree, validated by the page's LSN (any change
to the page — including a rollback or recovery redo — bumps the LSN and
invalidates the entry for free). Nothing on the write path or the point
search path reads or fills that cache.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from ..errors import CodecError, DuplicateKeyError, IndexError_
from .codec import decode_prefix, encode_key, encode_value
from .journal import Journal
from .page import (_SLOT, HEADER_SIZE, MAX_RECORD_SIZE, NO_PAGE, PAGE_SIZE,
                   SLOT_SIZE, PageType, SlottedPage)

_KLEN = struct.Struct("<H")
_CHILD = struct.Struct("<Q")
_klen_at = _KLEN.unpack_from
_slot_at = _SLOT.unpack_from

#: Bytes a node's slots and records may occupy.
_NODE_BYTES = PAGE_SIZE - HEADER_SIZE

#: Largest leaf record: one always fits a node of its own.
MAX_ENTRY_BYTES = MAX_RECORD_SIZE

#: An internal node's first record: no key, only the child.
_EMPTY_KEYED = _KLEN.size + _CHILD.size

#: Largest separator record: one always fits an internal node beside its
#: first record, so no node has fewer than two children for want of
#: room. No entry the whole-node format (up to page file version 3)
#: could store exceeds either limit.
_MAX_SEPARATOR_BYTES = MAX_RECORD_SIZE - (_EMPTY_KEYED + SLOT_SIZE)

_LEAF = PageType.BTREE_LEAF
_INTERNAL = PageType.BTREE_INTERNAL


def _tiebreak(value: Any) -> bytes:
    """A deterministic byte string derived from *value*.

    Orders entries with equal key bytes, making sort keys unique per
    distinct value. Order among equal user keys is incidental; only
    determinism matters.
    """
    try:
        return encode_key(value)
    except CodecError:
        return encode_value(value)


def _leaf_record(kb: bytes, key: Any, value: Any) -> bytes:
    return _KLEN.pack(len(kb)) + kb + encode_value(value) + encode_value(key)


def _node_record(kb: bytes, tie: bytes, child: int) -> bytes:
    return _KLEN.pack(len(kb)) + kb + tie + _CHILD.pack(child)


def _record_kb(record: bytes) -> bytes:
    return record[2:2 + _klen_at(record, 0)[0]]


def _child_at(buf, slot: int) -> int:
    off, length = _slot_at(buf, HEADER_SIZE + slot * SLOT_SIZE)
    return _CHILD.unpack_from(buf, off + length - _CHILD.size)[0]


def _records(page: SlottedPage) -> List[bytes]:
    """Every record of an ordered page, in slot order."""
    return [record for _slot, record in page.slots()]


def _key_at(buf, slot: int) -> Tuple[Any, int, int]:
    """``(key bytes, where they end, where the record ends)`` of the
    record in *slot*. The binary searches below inline this."""
    off, length = _slot_at(buf, HEADER_SIZE + slot * SLOT_SIZE)
    end = off + 2 + _klen_at(buf, off)[0]
    return buf[off + 2:end], end, off + length


def _split_point(records: List[bytes], internal: bool) -> int:
    """The most even cut of an overfull node with both halves in bounds,
    or 0 when there is none.

    An internal node always has one: its cut record's key moves up, so
    cutting at the new separator leaves a subset of the old node on
    either side. A leaf has none when the new record is over half a node
    and its neighbours fit beside it on neither side.
    """
    sizes = [len(r) + SLOT_SIZE for r in records]
    total = sum(sizes)
    best, best_skew, left = 0, total, 0
    for mid in range(1, len(records)):
        left += sizes[mid - 1]
        right = total - left
        if internal:
            right -= len(records[mid]) - _EMPTY_KEYED
        skew = abs(right - left)
        if left <= _NODE_BYTES and right <= _NODE_BYTES and skew < best_skew:
            best, best_skew = mid, skew
    return best


class _Leaf(NamedTuple):
    """One leaf decoded for a range scan (never mutated)."""

    kbs: List[bytes]
    keys: List[Any]
    vals: List[Any]
    next: int


class BTree:
    """A B+tree over (key, value) entries.

    With ``unique=True`` an insert of an existing key raises
    :class:`DuplicateKeyError`. Otherwise duplicate keys are kept as
    separate entries and :meth:`search` returns all their values.
    """

    #: Decoded-leaf cache capacity (leaves, not bytes); range scans only.
    LEAF_CACHE_SIZE = 512

    def __init__(self, journal: Journal, root_page: int, unique: bool = False):
        self._journal = journal
        self._pool = journal._pool
        self.root_page = root_page
        self.unique = unique
        #: page_no -> (page_lsn at decode time, decoded leaf)
        self._leaf_cache: dict = {}

    @classmethod
    def create(cls, journal: Journal, txn: int, unique: bool = False) -> "BTree":
        """Allocate an empty tree (a single empty leaf as root)."""
        tree = cls(journal, NO_PAGE, unique=unique)
        tree.root_page = tree._alloc(txn, _LEAF)
        return tree

    def _alloc(self, txn: int, page_type: int) -> int:
        page_no = self._pool.new_page(page_type)
        # A fresh page's first edit is diffed against zeros: this logs
        # the format, so redo can rebuild the node on a file that never
        # saw it.
        with self._journal.edit(txn, page_no):
            pass
        return page_no

    # -- searching page bytes ---------------------------------------------------

    def _tie_of(self, value: Any) -> bytes:
        # Unique trees hold at most one entry per key, so no run can ever
        # form: the empty tiebreak makes the duplicate check an exact
        # position probe.
        return b"" if self.unique else _tiebreak(value)

    def _leaf_slot(self, buf, n: int, kb: bytes, tie: bytes) -> int:
        """First leaf slot whose sort key is ``>= (kb, tie)``. A tiebreak
        is derived (one value decode) only where the key bytes compare
        equal and *tie* is not the empty one nothing sorts before."""
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            off = _slot_at(buf, HEADER_SIZE + mid * SLOT_SIZE)[0]
            end = off + 2 + _klen_at(buf, off)[0]
            k = buf[off + 2:end]
            if k < kb or (k == kb and tie and self._tie_of(
                    decode_prefix(buf, end)[0]) < tie):
                lo = mid + 1
            else:
                hi = mid
        return lo

    @staticmethod
    def _child_slot(buf, n: int, kb: bytes, tie: bytes,
                    strict: bool = False) -> int:
        """Slot of the child covering ``(kb, tie)``: the rightmost whose
        separator is ``<=`` the pair (slot 0's key is minus infinity).

        Identical ``(key, value)`` pairs share a sort key, and a split
        inside such a run leaves copies on both sides of a separator
        equal to them; *strict* (``<``) finds the leftmost child that can
        hold the pair instead.
        """
        lo, hi = 1, n
        while lo < hi:
            mid = (lo + hi) >> 1
            off, length = _slot_at(buf, HEADER_SIZE + mid * SLOT_SIZE)
            end = off + 2 + _klen_at(buf, off)[0]
            k = buf[off + 2:end]
            if k == kb:
                t = buf[end:off + length - _CHILD.size]
                below = t < tie or (t == tie and not strict)
            else:
                below = k < kb
            if below:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def _leaf_for(self, kb: bytes = b"", tie: bytes = b"",
                  strict: bool = False) -> int:
        """The leaf covering ``(kb, tie)`` (the first leaf by default: no
        encoded key is empty)."""
        page_no = self.root_page
        while True:
            with self._pool.page(page_no) as page:
                if page.page_type == _LEAF:
                    return page_no
                buf = page.buf
                page_no = _child_at(buf, self._child_slot(
                    buf, page.slot_count, kb, tie, strict))

    def _descend(self, kb: bytes, tie: bytes, strict: bool = False):
        """``(path, leaf page)`` for a writer: *path* lists ``(page_no,
        slot taken, child count)`` per internal level."""
        path: List[Tuple[int, int, int]] = []
        page_no = self.root_page
        while True:
            with self._pool.page(page_no) as page:
                if page.page_type == _LEAF:
                    return path, page_no
                buf, n = page.buf, page.slot_count
                slot = self._child_slot(buf, n, kb, tie, strict)
                path.append((page_no, slot, n))
                page_no = _child_at(buf, slot)

    def _upper(self, path: List[Tuple[int, int, int]]):
        """The smallest separator above the range of the leaf *path*
        leads to — the sort key that routes to the next leaf — or None
        on the rightmost leaf."""
        for page_no, slot, n in reversed(path):
            if slot + 1 < n:
                with self._pool.page(page_no) as page:
                    k, end, stop = _key_at(page.buf, slot + 1)
                    return bytes(k), bytes(page.buf[end:stop - _CHILD.size])
        return None

    def _next_leaf(self, path: List[Tuple[int, int, int]]):
        """``(path, leaf page)`` of the leaf after the one *path* leads to
        (which must not be the rightmost), found by position: a descent
        by sort key cannot tell apart leaves whose separators are equal
        (copies of one pair, split one to a leaf)."""
        depth = max(i for i, (_no, slot, n) in enumerate(path)
                    if slot + 1 < n)
        page_no, slot, n = path[depth]
        path = path[:depth] + [(page_no, slot + 1, n)]
        while True:
            with self._pool.page(page_no) as page:
                page_no = _child_at(page.buf, path[-1][1])
            with self._pool.page(page_no) as page:
                if page.page_type == _LEAF:
                    return path, page_no
                path.append((page_no, 0, page.slot_count))

    # -- insert ---------------------------------------------------------------

    def insert(self, txn: int, key: Any, value: Any) -> None:
        """Insert ``(key, value)``; splits propagate up to the root."""
        kb = encode_key(key)
        tie = self._tie_of(value)
        record = _leaf_record(kb, key, value)
        # The entry must fit as a leaf record and, should a split ever
        # copy it up, as a separator.
        if (len(record) > MAX_ENTRY_BYTES
                or _KLEN.size + len(kb) + len(tie) + _CHILD.size
                > _MAX_SEPARATOR_BYTES):
            raise IndexError_(
                "index entry for key %r is too large (%d-byte limit)"
                % (key, MAX_ENTRY_BYTES))
        while True:
            path, leaf_no = self._descend(kb, tie)
            with self._journal.edit(txn, leaf_no) as page:
                buf, n = page.buf, page.slot_count
                pos = self._leaf_slot(buf, n, kb, tie)
                if self.unique and pos < n and _key_at(buf, pos)[0] == kb:
                    raise DuplicateKeyError(
                        "duplicate key %r in unique index" % (key,))
                fits = page.room_for(len(record))
                if fits:
                    page.insert_at(pos, record)
            # A split that could not take the entry along left a valid
            # tree without it: start over.
            if fits or self._split(txn, path, leaf_no, pos, record):
                return

    def _split(self, txn: int, path: List[Tuple[int, int, int]],
               node_no: int, pos: int, record: bytes) -> bool:
        """Split *node_no* (ancestors: *path*), which has no room for
        *record* at slot *pos*; whether the record went in.

        The upper records move to a new right sibling and a separator
        goes into the parent, which splits the same way when it is full.
        When no one cut of a leaf holds the record (see
        :func:`_split_point`) the leaf is cut at *pos* without it: the
        tree is valid, and the record — now an edge entry, where a cut
        always exists — is the caller's to insert again.
        """
        with self._pool.page(node_no) as page:
            internal = page.page_type == _INTERNAL
            nxt = page.next_page
            old = _records(page)
        n = len(old)
        records = old[:pos] + [record] + old[pos:]
        # Append-biased: a new last entry of the level's last node (every
        # ancestor took its last child) starts the next node alone and
        # leaves this one full.
        if pos == n and all(slot == count - 1 for _, slot, count in path):
            mid = n
        else:
            mid = _split_point(records, internal)
        placed = mid > 0
        if not placed:
            if internal:  # its separator would be lost: refuse instead
                raise IndexError_("no split point in node %d" % node_no)
            records, mid = old, pos
        kb, tie = self._separator(internal, records, mid)
        moved = records[mid:]
        if internal:  # the cut record's key moves up
            moved[0] = _node_record(b"", b"", _CHILD.unpack_from(
                moved[0], len(moved[0]) - _CHILD.size)[0])
        right_no = self._pool.new_page(_INTERNAL if internal else _LEAF)
        with self._journal.edit(txn, right_no) as page:
            for i, payload in enumerate(moved):
                page.insert_at(i, payload)
            page.next_page = nxt
        with self._journal.edit(txn, node_no) as page:
            in_left = placed and pos < mid
            for slot in range(n - 1, mid - in_left - 1, -1):
                page.remove_at(slot)
            if in_left:
                page.insert_at(pos, record)
            if not internal:
                page.next_page = right_no
        separator = _node_record(kb, tie, right_no)
        if not path:
            self._grow_root(txn, separator)
            return placed
        parent_no, slot, _ = path.pop()
        with self._journal.edit(txn, parent_no) as page:
            fits = page.room_for(len(separator))
            if fits:
                page.insert_at(slot + 1, separator)
        if not fits:
            self._split(txn, path, parent_no, slot + 1, separator)
        return placed

    def _separator(self, internal: bool, records: List[bytes],
                   mid: int) -> Tuple[bytes, bytes]:
        """The sort key that routes to ``records[mid:]``."""
        first = records[mid]
        kb = _record_kb(first)
        if internal:
            return kb, first[2 + len(kb):-_CHILD.size]
        if _record_kb(records[mid - 1]) != kb:
            return kb, b""  # the key bytes alone separate the halves
        return kb, self._tie_of(decode_prefix(first, 2 + len(kb))[0])

    def _grow_root(self, txn: int, separator: bytes) -> None:
        """The root split: move its lower half (what the root page still
        holds) aside and rebuild the root in place over both halves."""
        with self._pool.page(self.root_page) as root:
            moved_no = self._pool.new_page(root.page_type)
            with self._journal.edit(txn, moved_no) as page:
                page.copy_from(root)
        with self._journal.edit(txn, self.root_page) as page:
            SlottedPage.format(page.buf, self.root_page, _INTERNAL)
            page.insert_at(0, _node_record(b"", b"", moved_no))
            page.insert_at(1, separator)

    # -- lookup ---------------------------------------------------------------

    def search(self, key: Any) -> List[Any]:
        """All values stored under *key* (empty list if none).

        The equality probe of every index: pins and unpins directly
        instead of through ``pool.page()``, whose context object costs
        a measurable share of a two-level descent."""
        kb = encode_key(key)
        out: List[Any] = []
        pool = self._pool
        page_no = self.root_page
        while page_no != NO_PAGE:
            page = pool.pin(page_no)
            try:
                buf, n = page.buf, page.slot_count
                if page.page_type != _LEAF:
                    nxt = _child_at(buf, self._child_slot(buf, n, kb, b""))
                else:
                    for slot in range(self._leaf_slot(buf, n, kb, b""), n):
                        k, end, _stop = _key_at(buf, slot)
                        if k != kb:
                            return out  # sorted: the run has ended
                        out.append(decode_prefix(buf, end)[0])
                    # Reached the end of this leaf without passing kb: the
                    # run may continue (or begin) on the next leaf.
                    nxt = page.next_page
            finally:
                pool.unpin(page_no)
            page_no = nxt
        return out

    def contains(self, key: Any) -> bool:
        return bool(self.search(key))

    def range(self, lo: Any = None, hi: Any = None,
              include_hi: bool = False,
              latch=None) -> Iterator[Tuple[Any, Any]]:
        """Yield ``(key, value)`` for lo <= key < hi (<= hi if include_hi).

        *latch* is the lock index writers hold across a whole insert or
        delete; with it the lazy walk is physically safe beside them
        (see :meth:`_scan_range`). Without it the caller must keep
        writers away for as long as it iterates.
        """
        lo_kb = encode_key(lo) if lo is not None else None
        hi_kb = encode_key(hi) if hi is not None else None
        return self._scan_range(lo_kb, hi_kb, include_hi, latch)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All ``(key, value)`` entries in key order."""
        return self._scan_range(None, None, False)

    def _read_leaf(self, page_no: int) -> Tuple[int, _Leaf]:
        """``(page LSN, decoded leaf)``, from the scan cache when the
        page has not changed since it was decoded."""
        with self._pool.page(page_no) as page:
            lsn = page.page_lsn
            cached = self._leaf_cache.get(page_no)
            if cached is not None and cached[0] == lsn:
                return cached
            nxt = page.next_page
            records = _records(page)
        kbs, keys, vals = [], [], []
        for record in records:
            end = 2 + _klen_at(record, 0)[0]
            kbs.append(record[2:end])
            value, end = decode_prefix(record, end)
            vals.append(value)
            keys.append(decode_prefix(record, end)[0])
        if len(self._leaf_cache) >= self.LEAF_CACHE_SIZE:
            self._leaf_cache.clear()
        cached = self._leaf_cache[page_no] = (lsn, _Leaf(kbs, keys, vals, nxt))
        return cached

    def _page_lsn(self, page_no: int) -> int:
        with self._pool.page(page_no) as page:
            return page.page_lsn

    def _scan_range(self, lo_kb: Optional[bytes], hi_kb: Optional[bytes],
                    include_hi: bool,
                    latch=None) -> Iterator[Tuple[Any, Any]]:
        """Walk the leaf chain one leaf at a time, lazily.

        Each leaf is located and read under *latch*, and its entries are
        yielded from that read with the latch released. Following a
        leaf's ``next`` pointer is only sound while the leaf is what was
        read: a split moves its upper half to a new right sibling, an
        empty-leaf detach rewrites its chain predecessor and frees the
        page for reuse, a rollback restores either. All of them stamp
        the page, so when the LSN moved the walk re-seeks from the root
        past the last sort key it yielded — past as many entries with
        that sort key as it yielded, identical ``(key, value)`` pairs
        sharing one — instead of trusting the pointer. Entries untouched
        by the concurrent writers are therefore yielded exactly once;
        what a touched entry shows is the caller's business (MVCC
        resolves it).
        """
        if latch is None:
            latch = nullcontext()
        # The last sort key yielded (to begin with, the scan's lower
        # bound) and how many entries carrying it were: a re-seek goes
        # to the first of them and steps over that many.
        resume = None if lo_kb is None else (lo_kb, b"")
        seen = skip = 0
        leaf = None
        page_no = NO_PAGE
        lsn = -1
        while True:
            with latch:
                if leaf is not None and self._page_lsn(page_no) == lsn:
                    page_no = leaf.next
                    if page_no == NO_PAGE:
                        return
                    lsn, leaf = self._read_leaf(page_no)
                    start = 0
                else:
                    page_no = self._leaf_for(*(resume or ()), strict=seen > 0)
                    lsn, leaf = self._read_leaf(page_no)
                    start = (0 if resume is None
                             else self._decoded_slot(leaf, resume))
                    skip = seen
            kbs = leaf.kbs
            while skip and start < len(kbs):
                if self._decoded_pair(leaf, start) != resume:
                    skip = 0  # the rest of them are gone
                else:
                    start += 1
                    skip -= 1
            if hi_kb is None:
                end = len(kbs)
            elif include_hi:
                end = bisect_right(kbs, hi_kb, start)
            else:
                end = bisect_left(kbs, hi_kb, start)
            yield from zip(leaf.keys[start:end], leaf.vals[start:end])
            if end < len(kbs):
                return
            if end > start:
                last = self._decoded_pair(leaf, end - 1)
                if last != resume:
                    resume, seen = last, 0
                seen += 1
                slot = end - 2
                while (slot >= start
                       and self._decoded_pair(leaf, slot) == last):
                    seen += 1
                    slot -= 1

    def _decoded_pair(self, leaf: _Leaf, slot: int) -> Tuple[bytes, bytes]:
        return leaf.kbs[slot], self._tie_of(leaf.vals[slot])

    def _decoded_slot(self, leaf: _Leaf, pair: Tuple[bytes, bytes]) -> int:
        """:meth:`_leaf_slot` over a decoded leaf."""
        kb, tie = pair
        slot = bisect_left(leaf.kbs, kb)
        if tie:
            while (slot < len(leaf.kbs) and leaf.kbs[slot] == kb
                   and self._tie_of(leaf.vals[slot]) < tie):
                slot += 1
        return slot

    def __len__(self) -> int:
        count = 0
        page_no = self._leaf_for()
        while page_no != NO_PAGE:
            with self._pool.page(page_no) as page:
                count += page.slot_count
                page_no = page.next_page
        return count

    # -- delete ---------------------------------------------------------------

    def delete(self, txn: int, key: Any, value: Any = None) -> int:
        """Remove entries for *key*.

        With *value* given, removes only ``(key, value)`` pairs; otherwise
        removes every entry under *key*. Returns the number removed.
        Emptied non-root leaves are detached.
        """
        kb = encode_key(key)
        tie = b"" if value is None else self._tie_of(value)
        removed = 0
        # Start at the leftmost leaf that can hold the pair (copies of one
        # (key, value) pair may straddle a separator equal to them) and
        # walk right, starting over whenever a detach reshaped the tree.
        target = (kb, tie, bool(tie))
        path, leaf_no = self._descend(*target)
        while True:
            with self._journal.edit(txn, leaf_no) as page:
                buf, n = page.buf, page.slot_count
                pos = self._leaf_slot(buf, n, kb, tie)
                past = False  # met an entry beyond the ones to remove
                while pos < n and not past:
                    k, end, _stop = _key_at(buf, pos)
                    if k != kb:
                        past = True
                        break
                    stored = (None if value is None
                              else decode_prefix(buf, end)[0])
                    if stored == value:
                        page.remove_at(pos)
                        n -= 1
                        removed += 1
                    elif self._tie_of(stored) == tie:
                        pos += 1  # same tiebreak, different value
                    else:
                        past = True
                nxt = page.next_page
            upper = self._upper(path)
            detached = n == 0 and leaf_no != self.root_page
            if detached:
                self._detach_leaf(txn, path, leaf_no, nxt)
            # The run continues on the next leaf only if that leaf's lower
            # bound still lies inside it.
            if (past or upper is None or upper[0] != kb
                    or (value is not None and upper[1] > tie)):
                return removed
            path, leaf_no = (self._descend(*target) if detached
                             else self._next_leaf(path))

    def _detach_leaf(self, txn: int, path: List[Tuple[int, int, int]],
                     leaf_no: int, leaf_next: int) -> None:
        """Unlink an empty leaf from the leaf chain and from its parent,
        freeing every internal node that loses its last child with it."""
        prev = self._chain_predecessor(path)
        if prev != NO_PAGE:
            with self._journal.edit(txn, prev) as page:
                linked = page.next_page == leaf_no
                if linked:
                    page.next_page = leaf_next
            if not linked:
                return  # structure unexpected; keep the empty leaf
        self._free(txn, leaf_no)
        for page_no, slot, n in reversed(path):
            if n == 1 and page_no != self.root_page:
                self._free(txn, page_no)  # its only child is gone
                continue
            with self._journal.edit(txn, page_no) as page:
                page.remove_at(slot)
                if slot == 0 and page.slot_count:  # a new first child
                    child = _child_at(page.buf, 0)
                    page.remove_at(0)
                    page.insert_at(0, _node_record(b"", b"", child))
            if page_no == self.root_page:
                self._collapse_root(txn)
            return

    def _chain_predecessor(self, path: List[Tuple[int, int, int]]) -> int:
        """The leaf chained before the leaf *path* leads to: the rightmost
        leaf under the nearest left sibling of an ancestor, or NO_PAGE
        for the tree's first leaf."""
        for page_no, slot, _n in reversed(path):
            if slot == 0:
                continue
            with self._pool.page(page_no) as page:
                page_no = _child_at(page.buf, slot - 1)
            while True:
                with self._pool.page(page_no) as page:
                    if page.page_type == _LEAF:
                        return page_no
                    page_no = _child_at(page.buf, page.slot_count - 1)
        return NO_PAGE

    def _collapse_root(self, txn: int) -> None:
        """Pull an only child's content up into the root page, until the
        root is a leaf or has two children again."""
        while True:
            with self._pool.page(self.root_page) as root:
                if root.page_type == _LEAF or root.slot_count != 1:
                    return
                child_no = _child_at(root.buf, 0)
            with self._journal.edit(txn, self.root_page) as page:
                with self._pool.page(child_no) as child:
                    page.copy_from(child)
            self._free(txn, child_no)

    def _free(self, txn: int, page_no: int) -> None:
        self._journal.free_page_deferred(txn, page_no)
        self._leaf_cache.pop(page_no, None)

    # -- diagnostics --------------------------------------------------------

    def children(self, page_no: int) -> List[int]:
        """Child pages of node *page_no* (empty for a leaf)."""
        with self._pool.page(page_no) as page:
            if page.page_type != _INTERNAL:
                return []
            return [_child_at(page.buf, slot)
                    for slot in range(page.slot_count)]

    def check_invariants(self) -> None:
        """Validate structure; raises IndexError_.

        Slot order is sort order in every node, every sort key lies
        inside its subtree's bounds (reaching the upper one only as a
        copy of an identical ``(key, value)`` pair split across it), no
        non-root leaf is empty, and the leaf chain is exactly the
        in-order sequence of leaves.
        """
        leaves: List[int] = []
        self._check_node(self.root_page, None, None, leaves)
        chain = []
        page_no = leaves[0]
        while page_no != NO_PAGE and len(chain) <= len(leaves):
            chain.append(page_no)
            with self._pool.page(page_no) as page:
                page_no = page.next_page
        if chain != leaves:
            raise IndexError_("leaf chain %r is not the in-order leaf "
                              "sequence %r" % (chain, leaves))

    def _check_node(self, page_no: int, lo, hi, leaves: List[int]) -> None:
        with self._pool.page(page_no) as page:
            page_type = page.page_type
            records = _records(page)
        pairs = []
        for record in records:
            end = 2 + _klen_at(record, 0)[0]
            if page_type == _LEAF:
                tie = self._tie_of(decode_prefix(record, end)[0])
            else:
                tie = record[end:-_CHILD.size]
            pairs.append((record[2:end], tie))
        if page_type == _LEAF:
            if not records and page_no != self.root_page:
                raise IndexError_("empty leaf %d is reachable" % page_no)
            leaves.append(page_no)
        elif page_type == _INTERNAL:
            if not records:
                raise IndexError_("internal node %d has no child" % page_no)
            if len(records[0]) != _EMPTY_KEYED:
                raise IndexError_("first record of node %d has a key"
                                  % page_no)
            pairs[0] = lo  # minus infinity
        else:
            raise IndexError_("page %d (type %d) is not a tree node"
                              % (page_no, page_type))
        for i, pair in enumerate(pairs):
            if pair is None:
                continue
            if i and pairs[i - 1] is not None and pair < pairs[i - 1]:
                raise IndexError_("unsorted node %d" % page_no)
            if lo is not None and pair < lo:
                raise IndexError_("key below subtree bound in node %d"
                                  % page_no)
            if hi is not None and pair > hi:  # == hi: an identical pair
                raise IndexError_("key above subtree bound in node %d"
                                  % page_no)
        if page_type == _INTERNAL:
            bounds = pairs + [hi]
            for i, record in enumerate(records):
                child = _CHILD.unpack_from(record, len(record) - _CHILD.size)
                self._check_node(child[0], bounds[i], bounds[i + 1], leaves)


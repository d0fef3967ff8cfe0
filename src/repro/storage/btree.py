"""Disk-resident B+tree index.

Keys are arbitrary Python values mapped through the order-preserving
:func:`repro.storage.codec.encode_key`; comparisons inside the tree are
plain byte comparisons. Values are arbitrary codec-encodable Python values
(the object layer stores RIDs and object ids).

Duplicate user keys are handled the classic way: every entry's *sort key*
is the pair ``(encoded key, tiebreak)`` where the tiebreak derives from
the entry's value, making sort keys unique. Separators therefore always
cleanly partition entries — a run of equal user keys can never straddle a
split in a way that breaks subtree bounds, and point/range searches walk
exactly the leaves holding the key's run.

Each tree node occupies one page and is stored as a single slotted-page
record holding the codec-encoded node state. Leaves are chained through the
page header's ``next_page`` pointer for range scans. A node splits when its
encoded size exceeds :data:`MAX_NODE_BYTES`.

Deletion is *lazy* in the PostgreSQL tradition: entries are removed
immediately, but nodes are only detached when completely empty (no
borrow/merge rebalancing). The tree remains correct under any workload;
pathological delete patterns cost extra page reads, never wrong answers.

The root page number is stable for the life of the index (the catalog
records it once): when the root splits, the old root's content moves to a
fresh page and the root page becomes the new internal node in place.

All mutations run through :class:`~repro.storage.journal.Journal` edits,
so index updates commit and roll back with their transaction.

Decoding a node's record on every access dominated lookup cost, so each
tree keeps a small cache of decoded nodes validated by the page's LSN: any
change to the page (including a rollback or recovery redo) bumps the LSN
and invalidates the entry for free. Cached nodes are returned as shallow
copies, so callers may mutate them before writing back.
"""

from __future__ import annotations

import bisect
from contextlib import nullcontext
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import CodecError, DuplicateKeyError, IndexError_
from .codec import decode_value, encode_key, encode_value
from .journal import Journal
from .page import MAX_RECORD_SIZE, NO_PAGE, PageType

#: Split threshold for a node's encoded size. Leaves room for the record
#: header and for one oversized entry landing on a nearly-full node.
MAX_NODE_BYTES = MAX_RECORD_SIZE - 512


def _tiebreak(value: Any) -> bytes:
    """A deterministic byte string derived from *value*.

    Appended to the encoded key to make entry sort keys unique. Order
    among equal user keys is incidental; only determinism matters.
    """
    try:
        return encode_key(value)
    except CodecError:
        return encode_value(value)


class _Node:
    """In-memory image of one tree node.

    ``kbs``/``ties`` are parallel sorted lists forming the entry sort
    keys; ``keys`` holds the original key values; leaves carry ``vals``,
    internal nodes carry ``children`` (len(kbs) + 1 pages).
    """

    __slots__ = ("page_no", "leaf", "kbs", "ties", "keys", "vals",
                 "children", "next")

    def __init__(self, page_no: int, leaf: bool):
        self.page_no = page_no
        self.leaf = leaf
        self.kbs: List[bytes] = []
        self.ties: List[bytes] = []
        self.keys: List[Any] = []
        self.vals: List[Any] = []
        self.children: List[int] = []
        self.next = NO_PAGE

    def copy(self) -> "_Node":
        """Shallow copy: fresh lists, shared (treated-as-immutable) items."""
        dup = _Node(self.page_no, self.leaf)
        dup.kbs = list(self.kbs)
        dup.ties = list(self.ties)
        dup.keys = list(self.keys)
        dup.vals = list(self.vals)
        dup.children = list(self.children)
        dup.next = self.next
        return dup

    def sort_key(self, i: int) -> Tuple[bytes, bytes]:
        return (self.kbs[i], self.ties[i])

    def bisect_left(self, pair: Tuple[bytes, bytes]) -> int:
        lo, hi = 0, len(self.kbs)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.sort_key(mid) < pair:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def bisect_right(self, pair: Tuple[bytes, bytes]) -> int:
        lo, hi = 0, len(self.kbs)
        while lo < hi:
            mid = (lo + hi) // 2
            if pair < self.sort_key(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def encoded(self) -> bytes:
        if self.leaf:
            state = [True, self.kbs, self.keys, self.vals, self.ties]
        else:
            state = [False, self.kbs, self.keys, self.children, self.ties]
        return encode_value(state)

    @classmethod
    def from_bytes(cls, page_no: int, raw: bytes, next_page: int) -> "_Node":
        state = decode_value(raw)
        node = cls(page_no, state[0])
        node.kbs = state[1]
        node.keys = state[2]
        if node.leaf:
            node.vals = state[3]
        else:
            node.children = state[3]
        node.ties = state[4]
        node.next = next_page
        return node


class BTree:
    """A B+tree over (key, value) entries.

    With ``unique=True`` an insert of an existing key raises
    :class:`DuplicateKeyError`. Otherwise duplicate keys are kept as
    separate entries and :meth:`search` returns all their values.
    """

    #: Decoded-node cache capacity (nodes, not bytes).
    NODE_CACHE_SIZE = 512

    def __init__(self, journal: Journal, root_page: int, unique: bool = False):
        self._journal = journal
        self._pool = journal._pool
        self.root_page = root_page
        self.unique = unique
        #: page_no -> (page_lsn at decode time, decoded node)
        self._node_cache: dict = {}

    @classmethod
    def create(cls, journal: Journal, txn: int, unique: bool = False) -> "BTree":
        """Allocate an empty tree (a single empty leaf as root)."""
        page_no = journal._pool.new_page(PageType.BTREE_LEAF)
        tree = cls(journal, page_no, unique=unique)
        root = _Node(page_no, leaf=True)
        with journal.edit(txn, page_no) as page:
            page.insert(root.encoded())
        return tree

    # -- node I/O -----------------------------------------------------------

    def _read(self, page_no: int) -> _Node:
        return self._read_shared(page_no)[1].copy()

    def _read_shared(self, page_no: int) -> Tuple[int, _Node]:
        """``(page LSN, node)`` without the copy: the node is the cache's
        own (or about to be) and must not be mutated."""
        with self._pool.page(page_no) as page:
            lsn = page.page_lsn
            cached = self._node_cache.get(page_no)
            if cached is not None and cached[0] == lsn:
                return cached
            raw = page.read(0)
            nxt = page.next_page
        node = _Node.from_bytes(page_no, raw, nxt)
        self._cache_node(lsn, node)
        return lsn, node

    def _page_lsn(self, page_no: int) -> int:
        with self._pool.page(page_no) as page:
            return page.page_lsn

    def _cache_node(self, lsn: int, node: _Node) -> None:
        if self.NODE_CACHE_SIZE <= 0:
            return  # cache disabled (ablation studies set this to 0)
        if len(self._node_cache) >= self.NODE_CACHE_SIZE:
            self._node_cache.clear()
        self._node_cache[node.page_no] = (lsn, node)

    def _write(self, txn: int, node: _Node) -> None:
        with self._journal.edit(txn, node.page_no) as page:
            page.update(0, node.encoded())
            page.next_page = node.next
        # The edit stamps the page LSN on exit; re-read it for the cache.
        with self._pool.page(node.page_no) as page:
            self._cache_node(page.page_lsn, node.copy())

    def _alloc(self, txn: int, leaf: bool) -> _Node:
        ptype = PageType.BTREE_LEAF if leaf else PageType.BTREE_INTERNAL
        page_no = self._pool.new_page(ptype)
        node = _Node(page_no, leaf)
        with self._journal.edit(txn, page_no) as page:
            page.insert(node.encoded())
        return node

    # -- insert ---------------------------------------------------------------

    def insert(self, txn: int, key: Any, value: Any) -> None:
        """Insert ``(key, value)``; splits propagate up to the root."""
        kb = encode_key(key)
        # Unique trees hold at most one entry per key, so no run can ever
        # form: the empty tiebreak makes the duplicate check an exact
        # position probe.
        tie = b"" if self.unique else _tiebreak(value)
        split = self._insert_rec(txn, self.root_page, kb, tie, key, value)
        if split is None:
            return
        sep_kb, sep_tie, sep_key, new_page = split
        # Root split: move old root aside, rebuild root in place.
        old = self._read(self.root_page)
        moved = self._alloc(txn, old.leaf)
        moved.kbs, moved.ties, moved.keys = old.kbs, old.ties, old.keys
        if old.leaf:
            moved.vals = old.vals
            moved.next = old.next
        else:
            moved.children = old.children
        self._write(txn, moved)
        root = _Node(self.root_page, leaf=False)
        root.kbs = [sep_kb]
        root.ties = [sep_tie]
        root.keys = [sep_key]
        root.children = [moved.page_no, new_page]
        with self._journal.edit(txn, self.root_page) as page:
            page.update(0, root.encoded())
            page.next_page = NO_PAGE
            page.page_type = PageType.BTREE_INTERNAL
        self._node_cache.pop(self.root_page, None)

    def _insert_rec(self, txn: int, page_no: int, kb: bytes, tie: bytes,
                    key: Any, value: Any):
        node = self._read(page_no)
        pair = (kb, tie)
        if node.leaf:
            pos = node.bisect_left(pair)
            if self.unique and pos < len(node.kbs) and node.kbs[pos] == kb:
                raise DuplicateKeyError(
                    "duplicate key %r in unique index" % (key,))
            node.kbs.insert(pos, kb)
            node.ties.insert(pos, tie)
            node.keys.insert(pos, key)
            node.vals.insert(pos, value)
            return self._write_maybe_split(txn, node)
        pos = node.bisect_right(pair)
        split = self._insert_rec(txn, node.children[pos], kb, tie, key, value)
        if split is None:
            return None
        sep_kb, sep_tie, sep_key, new_page = split
        node.kbs.insert(pos, sep_kb)
        node.ties.insert(pos, sep_tie)
        node.keys.insert(pos, sep_key)
        node.children.insert(pos + 1, new_page)
        return self._write_maybe_split(txn, node)

    def _write_maybe_split(self, txn: int, node: _Node):
        raw = node.encoded()
        if len(raw) <= MAX_NODE_BYTES or len(node.kbs) < 2:
            with self._journal.edit(txn, node.page_no) as page:
                page.update(0, raw)
                page.next_page = node.next
            with self._pool.page(node.page_no) as page:
                self._cache_node(page.page_lsn, node.copy())
            return None
        mid = len(node.kbs) // 2
        right = self._alloc(txn, node.leaf)
        if node.leaf:
            right.kbs = node.kbs[mid:]
            right.ties = node.ties[mid:]
            right.keys = node.keys[mid:]
            right.vals = node.vals[mid:]
            right.next = node.next
            node.kbs = node.kbs[:mid]
            node.ties = node.ties[:mid]
            node.keys = node.keys[:mid]
            node.vals = node.vals[:mid]
            node.next = right.page_no
            sep_kb, sep_tie, sep_key = (right.kbs[0], right.ties[0],
                                        right.keys[0])
        else:
            # The middle separator moves up, it is not duplicated.
            sep_kb, sep_tie, sep_key = (node.kbs[mid], node.ties[mid],
                                        node.keys[mid])
            right.kbs = node.kbs[mid + 1:]
            right.ties = node.ties[mid + 1:]
            right.keys = node.keys[mid + 1:]
            right.children = node.children[mid + 1:]
            node.kbs = node.kbs[:mid]
            node.ties = node.ties[:mid]
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]
        self._write(txn, right)
        self._write(txn, node)
        return sep_kb, sep_tie, sep_key, right.page_no

    # -- lookup ---------------------------------------------------------------

    def search(self, key: Any) -> List[Any]:
        """All values stored under *key* (empty list if none)."""
        kb = encode_key(key)
        out: List[Any] = []
        page_no = self._leaf_for((kb, b""))
        while page_no != NO_PAGE:
            node = self._read(page_no)
            start = node.bisect_left((kb, b""))
            for i in range(start, len(node.kbs)):
                if node.kbs[i] != kb:
                    return out  # sorted: the run (if any) has ended
                out.append(node.vals[i])
            # Reached the end of this leaf without passing kb: the run may
            # continue (or begin) on the next leaf in the chain.
            page_no = node.next
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

    def _scan_range(self, lo_kb: Optional[bytes], hi_kb: Optional[bytes],
                    include_hi: bool,
                    latch=None) -> Iterator[Tuple[Any, Any]]:
        """Walk the leaf chain one leaf at a time, lazily.

        Each leaf is located and read under *latch*, and its entries are
        yielded from that read with the latch released. Following a
        leaf's ``next`` pointer is only sound while the leaf is what was
        read: a split moves its upper half to a new right sibling, an
        empty-leaf detach rewrites its left sibling and frees the page
        for reuse, a rollback restores either. All of them stamp the
        page, so when the LSN moved the walk re-seeks from the root past
        the last sort key it yielded (sort keys are unique) instead of
        trusting the pointer. Entries untouched by the concurrent
        writers are therefore yielded exactly once; what a touched entry
        shows is the caller's business (MVCC resolves it).
        """
        if latch is None:
            latch = nullcontext()
        resume = None if lo_kb is None else (lo_kb, b"")
        yielded = False  # resume itself was yielded: continue after it
        node = None
        lsn = -1
        while True:
            with latch:
                if node is not None and self._page_lsn(node.page_no) == lsn:
                    if node.next == NO_PAGE:
                        return
                    lsn, node = self._read_shared(node.next)
                    start = 0
                else:
                    lsn, node = self._read_shared(self._leaf_for(resume))
                    if resume is None:
                        start = 0
                    elif yielded:
                        start = node.bisect_right(resume)
                    else:
                        start = node.bisect_left(resume)
            kbs = node.kbs
            if hi_kb is None:
                end = len(kbs)
            elif include_hi:
                end = bisect.bisect_right(kbs, hi_kb, start)
            else:
                end = bisect.bisect_left(kbs, hi_kb, start)
            yield from zip(node.keys[start:end], node.vals[start:end])
            if end < len(kbs):
                return
            if end > start:
                resume = node.sort_key(end - 1)
                yielded = True

    def _leaf_for(self, pair: Optional[Tuple[bytes, bytes]]) -> int:
        page_no = self.root_page
        while True:
            node = self._read_shared(page_no)[1]
            if node.leaf:
                return page_no
            if pair is None:
                page_no = node.children[0]
            else:
                page_no = node.children[node.bisect_left(pair)]

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- delete ---------------------------------------------------------------

    def delete(self, txn: int, key: Any, value: Any = None) -> int:
        """Remove entries for *key*.

        With *value* given, removes only ``(key, value)`` pairs; otherwise
        removes every entry under *key*. Returns the number removed.
        Empty non-root nodes are detached from their parents.
        """
        kb = encode_key(key)
        path: List[Tuple[_Node, int]] = []
        page_no = self.root_page
        while True:
            node = self._read(page_no)
            if node.leaf:
                break
            pos = node.bisect_left((kb, b""))
            path.append((node, pos))
            page_no = node.children[pos]
        removed = 0
        while True:
            pos = node.bisect_left((kb, b""))
            changed = False
            while pos < len(node.kbs) and node.kbs[pos] == kb:
                if value is None or node.vals[pos] == value:
                    del node.kbs[pos], node.ties[pos]
                    del node.keys[pos], node.vals[pos]
                    removed += 1
                    changed = True
                else:
                    pos += 1
            past_key = pos < len(node.kbs)
            if changed:
                self._write(txn, node)
                if not node.kbs and node.page_no != self.root_page:
                    self._detach_empty_leaf(txn, node, path)
            if past_key or node.next == NO_PAGE:
                break
            node = self._read(node.next)
            path = []  # parents of chained leaves are unknown; skip detach
        return removed

    def _detach_empty_leaf(self, txn: int, leaf: _Node,
                           path: List[Tuple[_Node, int]]) -> None:
        """Unlink an empty leaf from its parent and the leaf chain."""
        if not path:
            return
        parent, pos = path[-1]
        if pos > 0:
            left = self._read(parent.children[pos - 1])
            if left.leaf and left.next == leaf.page_no:
                left.next = leaf.next
                self._write(txn, left)
            else:
                return  # structure unexpected; keep the empty leaf
        else:
            return  # no left sibling under this parent; keep the empty leaf
        del parent.children[pos]
        sep = max(pos - 1, 0)
        if parent.kbs:
            del parent.kbs[sep], parent.ties[sep], parent.keys[sep]
        self._write(txn, parent)
        self._journal.free_page_deferred(txn, leaf.page_no)
        self._node_cache.pop(leaf.page_no, None)
        # Collapse a root that has decayed to a single child.
        if (parent.page_no == self.root_page and not parent.kbs
                and len(parent.children) == 1 and len(path) == 1):
            self._collapse_root(txn, parent.children[0])

    def _collapse_root(self, txn: int, only_child: int) -> None:
        child = self._read(only_child)
        root = _Node(self.root_page, child.leaf)
        root.kbs, root.ties, root.keys = child.kbs, child.ties, child.keys
        if child.leaf:
            root.vals = child.vals
            root.next = child.next
        else:
            root.children = child.children
        with self._journal.edit(txn, self.root_page) as page:
            page.update(0, root.encoded())
            page.next_page = root.next
            page.page_type = (PageType.BTREE_LEAF if root.leaf
                              else PageType.BTREE_INTERNAL)
        self._node_cache.pop(self.root_page, None)
        self._node_cache.pop(only_child, None)
        self._journal.free_page_deferred(txn, only_child)

    # -- diagnostics --------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate sort-key ordering and structure; raises IndexError_."""
        self._check_node(self.root_page, None, None)
        prev = None
        for key, _val in self._scan_range(None, None, False):
            cur = encode_key(key)
            if prev is not None and cur < prev:
                raise IndexError_("leaf chain out of order")
            prev = cur

    def _check_node(self, page_no: int, lo, hi) -> None:
        node = self._read(page_no)
        for i in range(len(node.kbs)):
            pair = node.sort_key(i)
            if i and pair < node.sort_key(i - 1):
                raise IndexError_("unsorted node %d" % page_no)
            if lo is not None and pair < lo:
                raise IndexError_("key below subtree bound in node %d"
                                  % page_no)
            if hi is not None and pair >= hi:
                raise IndexError_("key above subtree bound in node %d"
                                  % page_no)
        if not node.leaf:
            if len(node.children) != len(node.kbs) + 1:
                raise IndexError_("bad child count in node %d" % page_no)
            bounds = [lo] + [node.sort_key(i)
                             for i in range(len(node.kbs))] + [hi]
            for i, child in enumerate(node.children):
                self._check_node(child, bounds[i], bounds[i + 1])

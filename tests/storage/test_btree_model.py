"""Model test: the B+tree is a sorted multiset of ``(key, value)`` entries.

One hypothesis state machine drives a :class:`BTree` over a real
pagefile / buffer pool / WAL / journal stack — insert, bulk ascending
runs (narrow and wide keys), window deletes, delete by key, delete by
pair, search, range, items, commit, abort
(journal rollback), checkpoint + reopen, and crash + recovery — against
a plain list of entries ordered by ``(encode_key(key), tiebreak(value))``.
A second transaction interleaves with the first on the same tree —
inserting and deleting entries of its own (one-element tuple keys, which
no rule of the first generates, as record locks would keep the two
apart), committing and aborting independently — so every abort undoes
its entries beside the other's splits, detaches and shifted slots.
Key and value strategies are chosen so that every structural path is hit
within a few steps: ints with heavy duplicates, floats equal to ints,
strings up to 600 bytes (three entries to a node, so separators split
internal nodes too), keys over half a node (one separator to an internal
node; an entry no single cut can hold between its neighbours), tuples,
and values long enough to force two-entry pages. ``check_invariants()`` runs after every rule: slot order is sort
order, bounds hold, no empty non-root leaf is reachable, and the leaf
chain is the in-order leaf sequence.

Stubbing ``SlottedPage.insert_at`` to append (ignoring *pos*) fails this
machine within a handful of examples (EXPERIMENTS.md, EXP-25).
"""

import collections
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

import pytest

from repro.errors import DuplicateKeyError, IndexError_
from repro.storage.btree import (_MAX_SEPARATOR_BYTES, MAX_ENTRY_BYTES,
                                 BTree, _leaf_record, _tiebreak)
from repro.storage.buffer import BufferPool
from repro.storage.codec import encode_key
from repro.storage.journal import Journal
from repro.storage.pagefile import PageFile
from repro.storage.recovery import recover
from repro.storage.wal import WriteAheadLog

small_ints = st.integers(min_value=0, max_value=12)      # heavy duplicates
keys = st.one_of(
    small_ints,
    small_ints.map(float),                               # 3.0 beside 3
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.text(max_size=12),
    st.text(alphabet="abc", min_size=400, max_size=600),
    st.text(alphabet="k\x00", min_size=700, max_size=2000),  # some too large
    st.tuples(st.text(max_size=4), small_ints),
)
values = st.one_of(
    small_ints,
    small_ints.map(float),
    st.text(max_size=8),
    st.tuples(small_ints, small_ints),
    st.lists(small_ints, max_size=3),      # no key encoding: codec tiebreak
    st.text(alphabet="xyz", min_size=900, max_size=1900),  # 2-entry pages
)


def wide_key(i):
    return "w%04d" % i + "w" * 500


def big_key(i):
    """Key bytes over half a node (a NUL encodes as two bytes)."""
    return "b%03d" % i + "\x00" * 1100


def too_large(key, value, unique):
    kb = encode_key(key)
    tie = b"" if unique else _tiebreak(value)
    return (len(_leaf_record(kb, key, value)) > MAX_ENTRY_BYTES
            or len(kb) + len(tie) + 10 > _MAX_SEPARATOR_BYTES)


def shape(entries):
    """What a scan must return: the exact key-byte sequence, and the
    ``(key, value)`` pairs as a multiset (order inside a run of equal
    sort keys is incidental; ``repr`` keeps 3 and 3.0 apart)."""
    return ([encode_key(k) for k, _v in entries],
            collections.Counter(repr(e) for e in entries))


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="btree-model-")
        self._open()

    def _open(self):
        self.pagefile = PageFile(self.dir + "/pages")
        self.pool = BufferPool(self.pagefile, capacity=64)
        self.wal = WriteAheadLog(self.dir + "/wal")
        if self.wal.end_lsn > 0:
            recover(self.pool, self.wal)
        self.journal = Journal(self.pool, self.wal)

    def _close(self):
        self.wal.close()
        self.pagefile.close()

    def teardown(self):
        self._close()
        shutil.rmtree(self.dir, ignore_errors=True)

    @initialize(unique=st.booleans())
    def create(self, unique):
        self.unique = unique
        txn = self.journal.begin()
        self.tree = BTree.create(self.journal, txn, unique=unique)
        self.journal.commit(txn)
        self.root_page = self.tree.root_page
        self.model = []          # [(key, value)]
        self.committed = []
        self.txn = self.journal.begin()
        # The second transaction's entries, pending and committed.
        self.model2 = []
        self.committed2 = []
        self.next2 = 0
        self.txn2 = self.journal.begin()

    # -- the model ----------------------------------------------------------

    def _expected(self, lo_kb=None, hi_kb=None, include_hi=False):
        def inside(kb):
            if lo_kb is not None and kb < lo_kb:
                return False
            if hi_kb is None:
                return True
            return kb <= hi_kb if include_hi else kb < hi_kb
        return sorted((e for e in self.model + self.model2
                       if inside(encode_key(e[0]))),
                      key=lambda e: encode_key(e[0]))

    def _insert(self, key, value):
        kb = encode_key(key)
        if too_large(key, value, self.unique):
            with pytest.raises(IndexError_):
                self.tree.insert(self.txn, key, value)
        elif self.unique and any(encode_key(k) == kb for k, _ in self.model):
            with pytest.raises(DuplicateKeyError):
                self.tree.insert(self.txn, key, value)
        else:
            self.tree.insert(self.txn, key, value)
            self.model.append((key, value))

    # -- rules ----------------------------------------------------------------

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self._insert(key, value)

    @rule(start=st.integers(min_value=-50, max_value=500),
          count=st.integers(min_value=1, max_value=300),
          step=st.sampled_from([1, -1, 7]))
    def insert_run(self, start, count, step):
        for i in range(count):
            self._insert(start + i * step, i)

    @rule(start=st.integers(min_value=0, max_value=120),
          count=st.integers(min_value=1, max_value=80))
    def insert_wide_run(self, start, count):
        """Three entries to a leaf, half a dozen separators to an
        internal node: a few dozen of these make a three-level tree."""
        for i in range(start, start + count):
            self._insert(wide_key(i), i)

    @rule(picks=st.lists(st.integers(min_value=0, max_value=300),
                         min_size=1, max_size=40))
    def insert_big(self, picks):
        """One entry to a leaf, one separator to an internal node, in
        any order: splits that cannot take the new record along."""
        for i in picks:
            self._insert(big_key(i), i)

    @rule(lo=st.integers(min_value=0, max_value=200),
          width=st.integers(min_value=1, max_value=120))
    def delete_wide_window(self, lo, width):
        gone = {wide_key(i) for i in range(lo, lo + width)}
        for key in sorted(gone):
            self.tree.delete(self.txn, key)
        self.model = [e for e in self.model if e[0] not in gone]

    @rule(data=st.data(), fresh=keys)
    def delete_key(self, data, fresh):
        key = self._pick_key(data, fresh)
        kb = encode_key(key)
        gone = [e for e in self.model if encode_key(e[0]) == kb]
        assert self.tree.delete(self.txn, key) == len(gone)
        self.model = [e for e in self.model if encode_key(e[0]) != kb]

    @rule(data=st.data(), fresh=keys, value=values)
    def delete_pair(self, data, fresh, value):
        if self.model and data.draw(st.booleans()):
            key, value = data.draw(st.sampled_from(self.model))
        else:
            key = fresh
        kb = encode_key(key)
        keep = [e for e in self.model
                if not (encode_key(e[0]) == kb and e[1] == value)]
        removed = self.tree.delete(self.txn, key, value)
        assert removed == len(self.model) - len(keep)
        self.model = keep

    @rule(lo=st.integers(min_value=-50, max_value=500),
          width=st.integers(min_value=1, max_value=200))
    def delete_window(self, lo, width):
        """The sliding-window pattern: drop a contiguous key range."""
        for key in range(lo, lo + width):
            self.tree.delete(self.txn, key)
        self.model = [e for e in self.model
                      if not (type(e[0]) in (int, float)
                              and lo <= e[0] < lo + width)]

    @rule(data=st.data(), fresh=keys)
    def search(self, data, fresh):
        key = self._pick_key(data, fresh)
        kb = encode_key(key)
        want = collections.Counter(
            repr(v) for k, v in self.model + self.model2
            if encode_key(k) == kb)
        got = self.tree.search(key)
        assert collections.Counter(map(repr, got)) == want
        assert self.tree.contains(key) == bool(want)

    @rule(lo=st.one_of(st.none(), keys), hi=st.one_of(st.none(), keys),
          include_hi=st.booleans())
    def range(self, lo, hi, include_hi):
        got = list(self.tree.range(lo, hi, include_hi=include_hi))
        want = self._expected(None if lo is None else encode_key(lo),
                              None if hi is None else encode_key(hi),
                              include_hi)
        assert shape(got) == shape(want)

    @rule()
    def items(self):
        assert shape(list(self.tree.items())) == shape(self._expected())
        assert len(self.tree) == len(self.model) + len(self.model2)

    @rule()
    def commit(self):
        self.journal.commit(self.txn)
        self.committed = list(self.model)
        self.txn = self.journal.begin()

    @rule()
    def abort(self):
        self.journal.abort(self.txn)
        self.model = list(self.committed)
        self.txn = self.journal.begin()

    # -- the second transaction ----------------------------------------------

    @rule(count=st.integers(min_value=1, max_value=60), value=values)
    def insert2(self, count, value):
        """Entries of the second transaction: a run of fresh keys, wide
        enough now and then to split a leaf or two."""
        for _ in range(count):
            key = (("t2", self.next2),)
            self.next2 += 1
            if too_large(key, value, self.unique):
                continue
            self.tree.insert(self.txn2, key, value)
            self.model2.append((key, value))

    @rule(data=st.data())
    def delete2(self, data):
        if not self.model2:
            return
        picks = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(self.model2) - 1),
            min_size=1, max_size=20, unique=True))
        for key, value in [self.model2[i] for i in picks]:
            assert self.tree.delete(self.txn2, key, value) == 1
            self.model2.remove((key, value))

    @rule()
    def commit2(self):
        self.journal.commit(self.txn2)
        self.committed2 = list(self.model2)
        self.txn2 = self.journal.begin()

    @rule()
    def abort2(self):
        self.journal.abort(self.txn2)
        self.model2 = list(self.committed2)
        self.txn2 = self.journal.begin()

    @rule(crash=st.booleans())
    def reopen(self, crash):
        """Checkpoint and reopen — or crash (dirty pages and the open
        transactions are lost) and recover from the log."""
        if crash:
            self.wal.flush()
            self.model = list(self.committed)
            self.model2 = list(self.committed2)
        else:
            self.journal.commit(self.txn)
            self.journal.commit(self.txn2)
            self.committed = list(self.model)
            self.committed2 = list(self.model2)
            self.journal.checkpoint()
        self._close()
        self._open()
        self.tree = BTree(self.journal, self.root_page, unique=self.unique)
        self.txn = self.journal.begin()
        self.txn2 = self.journal.begin()

    def _pick_key(self, data, fresh):
        if self.model and data.draw(st.booleans()):
            return data.draw(st.sampled_from(self.model))[0]
        return fresh

    @invariant()
    def structure_holds(self):
        if hasattr(self, "tree"):
            self.tree.check_invariants()


TestBTreeModel = BTreeMachine.TestCase
TestBTreeModel.settings = settings(max_examples=200, stateful_step_count=30,
                                   deadline=None)

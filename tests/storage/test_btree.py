"""Unit tests for the B+tree index."""

import random

import pytest

from repro.errors import DuplicateKeyError, IndexError_
from repro.storage.btree import BTree
from repro.storage.page import NO_PAGE, PageType


@pytest.fixture
def tree(stack):
    pool, wal, journal = stack
    txn = journal.begin()
    tree = BTree.create(journal, txn)
    return tree, journal, txn


class TestBasics:
    def test_empty(self, tree):
        bt, journal, txn = tree
        assert bt.search("missing") == []
        assert len(bt) == 0
        assert list(bt.items()) == []

    def test_insert_search(self, tree):
        bt, journal, txn = tree
        bt.insert(txn, "key", "value")
        assert bt.search("key") == ["value"]
        assert bt.contains("key")

    def test_many_keys_random_order(self, tree):
        bt, journal, txn = tree
        keys = list(range(2000))
        random.Random(42).shuffle(keys)
        for k in keys:
            bt.insert(txn, k, k * 10)
        bt.check_invariants()
        assert len(bt) == 2000
        for k in (0, 1, 999, 1999):
            assert bt.search(k) == [k * 10]
        assert [k for k, _ in bt.items()] == list(range(2000))

    def test_duplicates(self, tree):
        bt, journal, txn = tree
        for i in range(10):
            bt.insert(txn, "same", i)
        assert sorted(bt.search("same")) == list(range(10))

    def test_unique_rejects_duplicates(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        bt = BTree.create(journal, txn, unique=True)
        bt.insert(txn, "k", 1)
        with pytest.raises(DuplicateKeyError):
            bt.insert(txn, "k", 2)

    def test_mixed_type_keys(self, tree):
        bt, journal, txn = tree
        bt.insert(txn, 1, "int")
        bt.insert(txn, 1.5, "float")
        bt.insert(txn, "a", "str")
        bt.insert(txn, ("t", 1), "tuple")
        bt.insert(txn, None, "none")
        keys = [k for k, _ in bt.items()]
        assert keys == [None, 1, 1.5, "a", ("t", 1)]


class TestRange:
    def test_range_half_open(self, tree):
        bt, journal, txn = tree
        for i in range(100):
            bt.insert(txn, i, i)
        assert [k for k, _ in bt.range(10, 20)] == list(range(10, 20))

    def test_range_inclusive(self, tree):
        bt, journal, txn = tree
        for i in range(100):
            bt.insert(txn, i, i)
        got = [k for k, _ in bt.range(10, 20, include_hi=True)]
        assert got == list(range(10, 21))

    def test_range_open_bounds(self, tree):
        bt, journal, txn = tree
        for i in range(50):
            bt.insert(txn, i, i)
        assert [k for k, _ in bt.range(lo=45)] == [45, 46, 47, 48, 49]
        assert [k for k, _ in bt.range(hi=5)] == [0, 1, 2, 3, 4]

    def test_range_spanning_splits(self, tree):
        bt, journal, txn = tree
        for i in range(3000):
            bt.insert(txn, i, i)
        got = [k for k, _ in bt.range(1495, 1505)]
        assert got == list(range(1495, 1505))

    def test_string_prefix_range(self, tree):
        bt, journal, txn = tree
        for name in ["adams", "baker", "bates", "clark", "davis"]:
            bt.insert(txn, name, name)
        got = [k for k, _ in bt.range("b", "c")]
        assert got == ["baker", "bates"]


class TestDelete:
    def test_delete_single(self, tree):
        bt, journal, txn = tree
        bt.insert(txn, "k", "v")
        assert bt.delete(txn, "k") == 1
        assert bt.search("k") == []

    def test_delete_missing(self, tree):
        bt, journal, txn = tree
        assert bt.delete(txn, "nope") == 0

    def test_delete_by_value(self, tree):
        bt, journal, txn = tree
        bt.insert(txn, "k", 1)
        bt.insert(txn, "k", 2)
        assert bt.delete(txn, "k", value=1) == 1
        assert bt.search("k") == [2]

    def test_delete_all_duplicates(self, tree):
        bt, journal, txn = tree
        for i in range(20):
            bt.insert(txn, "dup", i)
        assert bt.delete(txn, "dup") == 20
        assert bt.search("dup") == []

    def test_mass_delete_keeps_invariants(self, tree):
        bt, journal, txn = tree
        keys = list(range(1500))
        rng = random.Random(7)
        rng.shuffle(keys)
        for k in keys:
            bt.insert(txn, k, k)
        rng.shuffle(keys)
        for k in keys[:1400]:
            assert bt.delete(txn, k) == 1
        bt.check_invariants()
        remaining = sorted(keys[1400:])
        assert [k for k, _ in bt.items()] == remaining

    def test_delete_everything_then_reinsert(self, tree):
        bt, journal, txn = tree
        for i in range(500):
            bt.insert(txn, i, i)
        for i in range(500):
            bt.delete(txn, i)
        assert len(bt) == 0
        bt.check_invariants()
        for i in range(100):
            bt.insert(txn, i, -i)
        assert [v for _, v in bt.items()] == [-i for i in range(100)]


class TestTransactions:
    def test_abort_rolls_back_inserts(self, stack):
        pool, wal, journal = stack
        setup = journal.begin()
        bt = BTree.create(journal, setup)
        for i in range(100):
            bt.insert(setup, i, i)
        journal.commit(setup)

        txn = journal.begin()
        for i in range(100, 1200):
            bt.insert(txn, i, i)
        journal.abort(txn)
        bt.check_invariants()
        assert len(bt) == 100
        assert bt.search(150) == []

    def test_abort_rolls_back_deletes(self, stack):
        pool, wal, journal = stack
        setup = journal.begin()
        bt = BTree.create(journal, setup)
        for i in range(200):
            bt.insert(setup, i, i)
        journal.commit(setup)

        txn = journal.begin()
        for i in range(200):
            bt.delete(txn, i)
        journal.abort(txn)
        assert len(bt) == 200


class TestStructure:
    def test_root_page_stable_across_splits(self, tree):
        bt, journal, txn = tree
        root_before = bt.root_page
        for i in range(5000):
            bt.insert(txn, i, i)
        assert bt.root_page == root_before
        bt.check_invariants()

    def test_long_values(self, tree):
        bt, journal, txn = tree
        bt.insert(txn, "k", "v" * 2000)
        assert bt.search("k") == ["v" * 2000]


    @pytest.mark.parametrize("pad", ["a" * 1990, "\x00" * 1320, "a" * 1100],
                             ids=["plain", "escaped", "half-node"])
    def test_entries_as_large_as_a_node(self, tree, pad):
        """What the whole-node format (one entry to a node at worst)
        accepted still goes in: one entry to a leaf, one separator to an
        internal node, small entries in between, in any order."""
        bt, journal, txn = tree
        keys = ["k%03d" % i + pad * (i % 3 > 0) for i in range(240)]
        random.Random(5).shuffle(keys)
        for n, key in enumerate(keys):
            bt.insert(txn, key, n)
        bt.check_invariants()
        assert [k for k, _ in bt.items()] == sorted(keys)
        assert bt.search(keys[7]) == [7]
        for key in keys[::2]:
            assert bt.delete(txn, key) == 1
        bt.check_invariants()
        assert [k for k, _ in bt.items()] == sorted(keys[1::2])

    def test_entry_over_a_node_is_refused(self, tree):
        bt, journal, txn = tree
        for key, value in [("a" * 2100, 1), ("\x00" * 1400, 1),
                           (1, "v" * 4100), ("a" * 1500, "\x00" * 1500)]:
            with pytest.raises(IndexError_):
                bt.insert(txn, key, value)
        assert len(bt) == 0


class TestDuplicateHeavyWorkloads:
    """Regression tests for duplicate runs straddling node splits."""

    def test_many_duplicates_keep_invariants(self, tree):
        bt, journal, txn = tree
        # Few distinct keys, many entries each: runs are forced to span
        # splits; the tie-broken sort keys must keep bounds exact.
        for i in range(3000):
            bt.insert(txn, i % 7, "value-%04d" % i)
        bt.check_invariants()
        for k in range(7):
            hits = bt.search(k)
            assert len(hits) == 3000 // 7 + (1 if k < 3000 % 7 else 0)

    def test_run_spanning_many_leaves(self, tree):
        bt, journal, txn = tree
        for i in range(400):
            bt.insert(txn, "before", i)
        for i in range(400):
            bt.insert(txn, "hot", i)
        for i in range(400):
            bt.insert(txn, "zafter", i)
        bt.check_invariants()
        assert sorted(bt.search("hot")) == list(range(400))
        assert len(list(bt.range("hot", "hot", include_hi=True))) == 400

    def test_delete_entire_run(self, tree):
        bt, journal, txn = tree
        for i in range(500):
            bt.insert(txn, "run", i)
        for i in range(100):
            bt.insert(txn, "other", i)
        assert bt.delete(txn, "run") == 500
        bt.check_invariants()
        assert bt.search("run") == []
        assert len(bt.search("other")) == 100

    def test_delete_one_value_from_run(self, tree):
        bt, journal, txn = tree
        for i in range(300):
            bt.insert(txn, "run", i)
        assert bt.delete(txn, "run", value=150) == 1
        hits = bt.search("run")
        assert len(hits) == 299 and 150 not in hits

    def test_identical_key_value_pairs(self, tree):
        bt, journal, txn = tree
        for _ in range(50):
            bt.insert(txn, "same", "same-value")
        assert len(bt.search("same")) == 50
        bt.check_invariants()

    @pytest.mark.parametrize("by_pair", [False, True])
    @pytest.mark.parametrize("before", [[], ["a"]])
    def test_delete_copies_one_to_a_leaf(self, tree, by_pair, before):
        """Copies of one pair, each over half a node, sit one to a leaf
        behind equal separators; a delete removes every copy (the tree
        model found it taking the last leaf for the next one)."""
        bt, journal, txn = tree
        big = "b" + "\x00" * 1100
        for key in before:
            bt.insert(txn, key, 0)
        for _ in range(3):
            bt.insert(txn, big, 0)
        assert bt.delete(txn, big, 0 if by_pair else None) == 3
        assert list(bt.items()) == [(key, 0) for key in before]
        bt.check_invariants()


class TestScanReseek:
    """The lazy leaf walk re-seeks past the last sort key it yielded when
    the leaf it was reading changed under it."""

    @pytest.mark.parametrize("key_of", [lambda i: i, lambda i: "dup"],
                             ids=["distinct", "one-run"])
    def test_changed_leaf_mid_scan_yields_survivors_once(self, tree, key_of):
        bt, journal, txn = tree
        entries = [(key_of(i), i) for i in range(600)]
        for key, value in entries:
            bt.insert(txn, key, value)
        scan = bt.items()
        seen = [next(scan) for _ in range(50)]
        # Stamp every leaf (an insert + delete each side of the cursor),
        # and drop an entry the scan has not reached yet.
        for value in (10_001, 10_002):
            bt.insert(txn, key_of(0), value)
            bt.delete(txn, key_of(0), value)
        bt.insert(txn, key_of(599), 10_003)
        bt.delete(txn, key_of(599), 10_003)
        bt.delete(txn, *entries[300])
        seen.extend(scan)
        assert seen == entries[:300] + entries[301:]


    @pytest.mark.parametrize("cursor", [1, 150, 299, 300, 301, 450, 899])
    def test_identical_pairs_across_leaves_are_not_skipped(self, tree,
                                                           cursor):
        """Identical ``(key, value)`` pairs share a sort key and may sit
        on both sides of a separator equal to it: a re-seek steps over
        as many as the scan yielded, not over all of them."""
        bt, journal, txn = tree
        entries = ([("a", i) for i in range(300)] + [("dup", "v")] * 300
                   + [("z", i) for i in range(300)])
        for key, value in entries:
            bt.insert(txn, key, value)
        scan = bt.items()
        seen = [next(scan) for _ in range(cursor)]
        page_no, leaves = bt._leaf_for(), 0
        while page_no != NO_PAGE:       # stamp every leaf, change none
            with journal.edit(txn, page_no) as page:
                first = page.read(0)
                page.remove_at(0)
            with journal.edit(txn, page_no) as page:
                page.insert_at(0, first)
                page_no = page.next_page
            leaves += 1
        assert leaves > 6
        seen.extend(scan)
        assert seen == entries


def index_pages(store):
    """``(leaves, internal nodes)`` of every B+tree in *store*."""
    counts = {PageType.BTREE_LEAF: 0, PageType.BTREE_INTERNAL: 0}
    for page_no in range(1, store.stats()["pages"]):
        with store._pool.page(page_no) as page:
            if page.page_type in counts:
                counts[page.page_type] += 1
    return counts[PageType.BTREE_LEAF], counts[PageType.BTREE_INTERNAL]


class TestMaintenanceCost:
    """What one index insert or delete costs through the store, as
    counts: pages edited, WAL bytes, whole-node codec calls, entries per
    leaf, pages under a sliding window."""

    LOAD = 9000         # ascending load, the analytics workload's events
    WINDOW = 3000
    TURNOVERS = 10

    def test_one_page_edit_and_entry_sized_log_per_op(self, store,
                                                      monkeypatch):
        from repro.storage import btree as btree_mod
        wal = store._wal
        node_encodes = []
        encode = btree_mod.encode_value

        def counting_encode(value):
            out = encode(value)
            # An entry's key or value is a few bytes here; anything this
            # long is a node's worth of entries.
            if len(out) > 512:
                node_encodes.append(len(out))
            return out

        monkeypatch.setattr(btree_mod, "encode_value", counting_encode)

        def measured(op, key):
            before = wal.end_lsn
            op(txn, "c", "n", key, key)
            pages_logged = {record["page_no"]
                            for _lsn, record in wal.records(before)
                            if record.get("ranges")}
            return len(pages_logged), wal.end_lsn - before

        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "n", kind="btree")
        for key in range(self.LOAD):
            store.index_insert(txn, "c", "n", key, key)
        store.commit(txn)
        leaves, _ = index_pages(store)
        per_leaf = self.LOAD // leaves
        assert per_leaf >= 100                              # 121

        del node_encodes[:]
        txn = store.begin()
        appends = [measured(store.index_insert, self.LOAD + i)
                   for i in range(300)]
        plain = [cost for cost in appends if cost[0] == 1]
        assert len(appends) - len(plain) <= 3               # 2 splits
        assert max(pages for pages, _ in plain) <= 1
        assert max(nbytes for _, nbytes in plain) <= 256    # 222
        deletes = [measured(store.index_delete, key)
                   for key in range(per_leaf // 2)]
        assert max(pages for pages, _ in deletes) <= 1
        assert (max(nbytes for _, nbytes in deletes)        # 1 043
                <= 8 * per_leaf + 256)
        assert node_encodes == []
        store.commit(txn)

    def test_sliding_window_keeps_its_page_count(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "w", kind="btree")
        store.commit(txn)
        window = self.WINDOW
        pages = []
        for turn in range(self.TURNOVERS + 1):
            lo = turn * window
            for base in range(lo, lo + window, 50):
                txn = store.begin()
                for key in range(base, base + 50):
                    store.index_insert(txn, "c", "w", key, key)
                    if key >= window:
                        store.index_delete(txn, "c", "w", key - window,
                                           key - window)
                store.commit(txn)
            pages.append(sum(index_pages(store)))
        assert max(pages[1:]) - min(pages[1:]) <= 2, pages
        store.index("c", "w").check_invariants()


@pytest.mark.concurrency
class TestRangeScanBesideWriters:
    """``Store.index_range`` walks the leaf chain lazily with no logical
    lock (MVCC readers take none), so the walk itself must survive the
    structure changing under it: leaves splitting, emptied leaves being
    detached and their pages reused, rollbacks putting either back."""

    STABLE = [k * 1000 for k in range(40)]
    RUN = 400          # churn keys per gap: several leaves' worth
    CYCLES = 12

    def test_untouched_keys_seen_exactly_once(self, store):
        import threading
        import time

        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "n", kind="btree")
        for key in self.STABLE:
            store.index_insert(txn, "c", "n", key, key)
        store.commit(txn)
        done = threading.Event()
        errors = []

        def writer():
            rng = random.Random(7)
            try:
                for cycle in range(self.CYCLES):
                    base = rng.choice(self.STABLE[:-1])
                    run = [base + 1 + i for i in range(self.RUN)]
                    txn = store.begin()
                    for key in run:             # splits the gap's leaves
                        store.index_insert(txn, "c", "n", key, -key)
                    if cycle % 3 == 2:
                        store.abort(txn)        # rollback un-splits them
                        continue
                    store.commit(txn)
                    txn = store.begin()
                    for key in run:             # empties, then detaches
                        store.index_delete(txn, "c", "n", key, -key)
                    store.commit(txn)           # frees the pages for reuse
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                done.set()

        def reader():
            rng = random.Random(11)
            scans = 0
            try:
                while not done.is_set() or scans < 3:
                    lo = rng.choice([None] + self.STABLE[:20])
                    hi = rng.choice([None] + self.STABLE[20:])
                    want = [k for k in self.STABLE
                            if (lo is None or k >= lo)
                            and (hi is None or k < hi)]
                    got = []
                    for key, value in store.index_range("c", "n", lo, hi):
                        if value == key:
                            got.append(key)
                            time.sleep(0.001)   # let the writer in mid-walk
                    assert got == want, (lo, hi)
                    scans += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "threads hung"
        assert not errors, errors[0]
        store.index(  # the tree itself is intact afterwards
            "c", "n").check_invariants()

"""``kind="hash"`` indexes: the spelling survives, the structure is the
B+tree.

An index created with ``kind="hash"`` is recorded as ``"btree"`` and
behaves as the extendible hash it replaced did — equality probes,
duplicates, unique keys, deletes, items, rollback — and it also serves
ranges. ``TestStableHash`` checks the hash by which the tests' writer of
the retired layout (:mod:`tests.storage.legacy_layouts`) places keys.
"""

import pytest

from repro.errors import DuplicateKeyError
from repro.storage.codec import encode_key

from tests.storage.legacy_layouts import stable_hash


def hash_index(store, unique=False):
    txn = store.begin()
    store.create_cluster(txn, "c")
    info = store.create_index(txn, "c", "f", kind="hash", unique=unique)
    assert info.kind == "btree"
    return store.index("c", "f"), txn


@pytest.fixture
def index(store):
    return hash_index(store)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(encode_key("abc")) == stable_hash(encode_key("abc"))
        assert stable_hash(encode_key(42)) == stable_hash(encode_key(42))

    def test_spread(self):
        hashes = {stable_hash(encode_key(i)) & 0xFF for i in range(1000)}
        assert len(hashes) > 200  # well spread over low bits


class TestBasics:
    def test_empty(self, store, index):
        ix, txn = index
        assert ix.search("nope") == []
        assert len(ix) == 0
        assert store.cluster_info("c").indexes["f"].kind == "btree"

    def test_insert_search(self, index):
        ix, txn = index
        ix.insert(txn, "k", "v")
        assert ix.search("k") == ["v"]
        assert ix.contains("k")

    def test_many_keys_force_splits(self, index):
        ix, txn = index
        for i in range(2000):
            ix.insert(txn, i, i * 2)
        ix.check_invariants()
        assert ix.children(ix.root_page)      # the root has split
        for probe in (0, 1, 999, 1999):
            assert ix.search(probe) == [probe * 2]
        assert len(ix) == 2000
        assert [v for _k, v in ix.range(10, 13)] == [20, 22, 24]

    def test_duplicates(self, index):
        ix, txn = index
        for i in range(5):
            ix.insert(txn, "dup", i)
        assert sorted(ix.search("dup")) == list(range(5))

    def test_unique(self, store):
        ix, txn = hash_index(store, unique=True)
        ix.insert(txn, "k", 1)
        with pytest.raises(DuplicateKeyError):
            ix.insert(txn, "k", 2)

    def test_heavy_duplicate_key_chains(self, index):
        """Hundreds of entries under one key span leaves and stay
        correct."""
        ix, txn = index
        for i in range(800):
            ix.insert(txn, "hot", i)
        assert sorted(ix.search("hot")) == list(range(800))
        assert ix.children(ix.root_page)
        ix.check_invariants()

    def test_mixed_hot_and_cold_keys(self, index):
        ix, txn = index
        for i in range(300):
            ix.insert(txn, "hot", i)
        for i in range(300):
            ix.insert(txn, i, -i)
        assert len(ix.search("hot")) == 300
        for probe in (0, 150, 299):
            assert ix.search(probe) == [-probe]


class TestDelete:
    def test_delete(self, index):
        ix, txn = index
        ix.insert(txn, "k", "v")
        assert ix.delete(txn, "k") == 1
        assert ix.search("k") == []

    def test_delete_by_value(self, index):
        ix, txn = index
        ix.insert(txn, "k", 1)
        ix.insert(txn, "k", 2)
        assert ix.delete(txn, "k", value=2) == 1
        assert ix.search("k") == [1]

    def test_delete_missing(self, index):
        ix, txn = index
        assert ix.delete(txn, "ghost") == 0

    def test_delete_from_chained_bucket(self, index):
        ix, txn = index
        for i in range(600):
            ix.insert(txn, "hot", i)
        assert ix.delete(txn, "hot", value=300) == 1
        assert len(ix.search("hot")) == 599
        assert ix.delete(txn, "hot") == 599
        assert ix.search("hot") == []
        ix.check_invariants()


class TestItems:
    def test_items_complete(self, index):
        ix, txn = index
        expected = {}
        for i in range(500):
            ix.insert(txn, "key%d" % i, i)
            expected["key%d" % i] = i
        assert dict(ix.items()) == expected

    def test_len_after_splits(self, index):
        ix, txn = index
        for i in range(1000):
            ix.insert(txn, i, i)
        assert len(ix) == 1000


class TestTransactions:
    def test_abort_restores(self, store):
        ix, setup = hash_index(store)
        for i in range(50):
            ix.insert(setup, i, i)
        store.commit(setup)

        txn = store.begin()
        for i in range(50, 1000):
            store.index_insert(txn, "c", "f", i, i)
        store.index_delete(txn, "c", "f", 10)
        store.abort(txn)
        ix = store.index("c", "f")
        ix.check_invariants()
        assert len(ix) == 50
        assert ix.search(10) == [10]
        assert ix.search(500) == []

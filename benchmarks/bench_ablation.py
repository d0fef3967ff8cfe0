"""Ablation benchmarks for the design choices DESIGN.md calls out.

Two mechanisms were added during development after profiling; each can be
switched off, and these benches measure both settings so the win is
recorded, not just asserted:

* **The decoded-record cache** of the extendible hash index
  (LSN-validated memoisation of decoded page records). Off = decode the
  record on every access. (The B+tree's decoded-node cache went with
  EXP-25: descent and point search run on page bytes; what is left is a
  decoded-leaf cache for range scans, whose with/without numbers that
  experiment records.)
* **Serial-block allocation** in the Store (object serial numbers are
  reserved from the catalog 64 at a time). Off (block=1) = one catalog
  record rewrite per pnew.
"""

import pytest

from conftest import BenchItem, populate_items

from repro import Oid
from repro.storage.hashindex import HashIndex
from repro.storage.store import Store


@pytest.fixture
def caches_disabled():
    saved = HashIndex.CACHE_SIZE
    HashIndex.CACHE_SIZE = 0
    yield
    HashIndex.CACHE_SIZE = saved


@pytest.fixture
def small_serial_blocks():
    saved = Store.SERIAL_BLOCK
    Store.SERIAL_BLOCK = 1
    yield
    Store.SERIAL_BLOCK = saved


def cold_scan(db, n):
    db._cache.clear()
    count = sum(1 for _ in db.cluster(BenchItem))
    assert count == n
    return count


class TestNodeCacheAblation:
    N = 800

    def test_cold_scan_cache_on(self, benchmark, db):
        populate_items(db, self.N)
        benchmark(lambda: cold_scan(db, self.N))

    def test_cold_scan_cache_off(self, benchmark, db, caches_disabled):
        populate_items(db, self.N)
        benchmark(lambda: cold_scan(db, self.N))

    def test_point_deref_cache_on(self, benchmark, db):
        populate_items(db, self.N)
        oid = Oid("BenchItem", self.N // 2)

        def fault():
            db._cache.clear()
            return db.deref(oid).qty

        benchmark(fault)

    def test_point_deref_cache_off(self, benchmark, db, caches_disabled):
        populate_items(db, self.N)
        oid = Oid("BenchItem", self.N // 2)

        def fault():
            db._cache.clear()
            return db.deref(oid).qty

        benchmark(fault)

    def test_btree_probe(self, benchmark, db):
        """No cache to ablate: the probe binary-searches page bytes."""
        populate_items(db, self.N, with_indexes=[("price", "btree")])
        index = db.store.index("BenchItem", "price")
        benchmark(lambda: index.search(42.0))


class TestSerialBlockAblation:
    def test_pnew_batch_blocks_on(self, benchmark, db):
        from conftest import BenchSupplier
        db.create(BenchSupplier, exist_ok=True)
        db.create(BenchItem, exist_ok=True)

        def batch():
            with db.transaction():
                for _ in range(50):
                    db.pnew(BenchItem, name="x", price=1.0)

        benchmark(batch)

    def test_pnew_batch_blocks_off(self, benchmark, db,
                                   small_serial_blocks):
        from conftest import BenchSupplier
        db.create(BenchSupplier, exist_ok=True)
        db.create(BenchItem, exist_ok=True)

        def batch():
            with db.transaction():
                for _ in range(50):
                    db.pnew(BenchItem, name="x", price=1.0)

        benchmark(batch)

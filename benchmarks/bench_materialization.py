"""EXP-14: the scan & materialization fast path.

Measures the four layers this optimisation stack adds on top of the
baseline engine:

* **cold clustered scan** — a full iteration with the buffer pool and all
  caches dropped first, so every page comes off disk through the batched
  page-at-a-time pipeline plus readahead;
* **hot repeated scan** — the same iteration with the store's decoded
  page cache warm;
* **hot deref** — repeated pointer chasing with the live-object cache
  cleared each round, so every deref goes through the decoded-object
  cache's LSN-token validation instead of two directory probes, two heap
  reads and two ``decode_value`` calls;
* **clustered vs fragmented** — the same scan over a cluster grown alone
  (contiguous extents) and one grown interleaved with a sibling cluster
  (pages alternate), quantifying what cluster-local placement buys;
* **live scan past the page cache** (EXP-21) — every object live, the
  heap larger than the store's scan page cache, so each page is re-read
  and its keys re-peeked on every pass but nothing is decoded.

``--gate`` (run by ``make bench-scan-smoke`` and CI) checks the decode
counts of the late-decoding scan — counts, not timings::

    PYTHONPATH=src python benchmarks/bench_materialization.py --gate
"""

import sys
import tempfile

import pytest

from conftest import BenchItem, populate_items

from repro import A, forall
from repro.core import IntField, OdeObject, StringField

N = 2000


class BenchShadow(OdeObject):
    """Sibling cluster used to interleave page allocation."""

    name = StringField(default="")
    weight = IntField(default=0)


def _drop_caches(db):
    """Make the next operation cold: object, decoded, page, buffer caches."""
    db._cache.clear()
    db._decoded.clear()
    db.store._page_cache.clear()
    pool = db.store._pool
    pool.flush_all()
    pool.invalidate_all()


def _decoded(db):
    return db.stats()["scan"]["records_decoded"]


#: Scan page-cache bound for the "past the page cache" rows: N items
#: fill ~80 heap pages.
SMALL_PAGE_CACHE = 16


@pytest.fixture
def plain_db(db):
    return populate_items(db, N)


@pytest.fixture
def interleaved_db(db):
    """BenchItem pages alternating with BenchShadow pages."""
    db.create(BenchItem, exist_ok=True)
    db.create(BenchShadow, exist_ok=True)
    with db.transaction():
        for i in range(N):
            db.pnew(BenchItem, name="item%06d" % i, price=float(i % 100),
                    qty=i % 1000, category=i % 10)
            db.pnew(BenchShadow, name="pad%06d" % i, weight=i)
    return db


class TestScan:
    def test_cold_clustered_scan(self, benchmark, plain_db):
        handle = plain_db.cluster(BenchItem)

        def scan():
            _drop_caches(plain_db)
            return sum(1 for _ in handle)

        assert benchmark(scan) == N

    def test_hot_repeated_scan(self, benchmark, plain_db):
        handle = plain_db.cluster(BenchItem)
        sum(1 for _ in handle)          # warm every cache

        def scan():
            plain_db._cache.clear()     # re-materialize from page cache
            return sum(1 for _ in handle)

        assert benchmark(scan) == N

    def test_live_scan_past_page_cache(self, benchmark, plain_db):
        # An instance-level bound keeps the build at N objects: the
        # regime is "heap pages > cached pages", whatever the sizes.
        plain_db.store.PAGE_CACHE_PAGES = SMALL_PAGE_CACHE
        handle = plain_db.cluster(BenchItem)
        assert sum(1 for _ in handle) == N      # everything live
        decoded = _decoded(plain_db)
        assert benchmark(lambda: sum(1 for _ in handle)) == N
        assert _decoded(plain_db) == decoded

    def test_scan_with_compiled_residual(self, benchmark, plain_db):
        q = forall(plain_db.cluster(BenchItem)).suchthat(A.category == 3)
        assert benchmark(q.count) == N // 10


class TestDeref:
    def test_hot_deref(self, benchmark, plain_db):
        oids = list(plain_db.cluster(BenchItem).oids())[:200]
        plain_db._cache.clear()
        for oid in oids:                # warm the decoded cache
            plain_db.deref(oid)

        def chase():
            plain_db._cache.clear()
            total = 0
            for oid in oids:
                total += plain_db.deref(oid).qty
            return total

        benchmark(chase)

    def test_cold_deref(self, benchmark, plain_db):
        oids = list(plain_db.cluster(BenchItem).oids())[:200]

        def chase():
            _drop_caches(plain_db)
            total = 0
            for oid in oids:
                total += plain_db.deref(oid).qty
            return total

        benchmark(chase)


class TestPlacement:
    def test_cold_scan_contiguous(self, benchmark, plain_db):
        handle = plain_db.cluster(BenchItem)

        def scan():
            _drop_caches(plain_db)
            return sum(1 for _ in handle)

        assert benchmark(scan) == N

    def test_cold_scan_interleaved(self, benchmark, interleaved_db):
        handle = interleaved_db.cluster(BenchItem)

        def scan():
            _drop_caches(interleaved_db)
            return sum(1 for _ in handle)

        assert benchmark(scan) == N

    def test_cold_scan_interleaved_after_vacuum(self, benchmark,
                                                interleaved_db):
        interleaved_db.vacuum()
        handle = interleaved_db.cluster(BenchItem)

        def scan():
            _drop_caches(interleaved_db)
            return sum(1 for _ in handle)

        assert benchmark(scan) == N


# -- decode-count gate (make bench-scan-smoke / CI) ---------------------------


def run_gate(tmpdir) -> int:
    """The three counts the late-decoding scan promises, on N items."""
    from repro import Database
    path = tmpdir + "/gate.odb"
    db = populate_items(Database(path), N)
    versioned = db.pnew(BenchItem, name="versioned")
    for qty in range(1, 5):
        db.newversion(versioned)
        versioned.qty = qty
    db.close()
    n = N + 1
    failures = []

    def check(label, got, want):
        print("%-44s %6d (want %d)" % (label, got, want))
        if got != want:
            failures.append("%s: %d != %d" % (label, got, want))

    db = Database(path)
    try:
        db.store.PAGE_CACHE_PAGES = SMALL_PAGE_CACHE
        handle = db.cluster(BenchItem)
        batches = list(db.store.scan_batches("BenchItem"))
        # A head whose current state fell on the next page is finished
        # by a deref, which is not a scan decode.
        together = sum(batch.state(serial, batch.head(serial)["current"])
                       is not None
                       for batch in batches for serial in batch.heads)
        before = _decoded(db)
        assert sum(1 for _ in handle) == n
        check("cold scan: head + current state per object",
              _decoded(db) - before, n + together)
        assert len(batches) > 2 * SMALL_PAGE_CACHE
        stats = db.stats()
        peeked, misses = (stats["scan"]["records_peeked"],
                          stats["page_cache"]["misses"])
        before = _decoded(db)
        assert sum(1 for _ in handle) == n
        stats = db.stats()
        check("live scan past the page cache: decodes",
              _decoded(db) - before, 0)
        check("live scan past the page cache: pages re-read",
              stats["page_cache"]["misses"] - misses, len(batches))
        check("live scan past the page cache: keys peeked",
              stats["scan"]["records_peeked"] - peeked,
              sum(len(batch) for batch in batches))
    finally:
        db.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("scan gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--gate"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="scan-gate-") as tmpdir:
        return run_gate(tmpdir)


if __name__ == "__main__":
    sys.exit(main())

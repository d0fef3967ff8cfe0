"""EXP-10 (substrate): storage engine characteristics.

The paper never published numbers for its persistent store; these benches
characterise ours so every higher-level number has a substrate baseline:
commit latency vs payload size, index probe vs heap scan, B+tree vs hash
point lookups, recovery time vs log length, buffer pool hit/miss costs.

``--gate`` (run by ``make bench-index-smoke`` and CI) checks what one
ordered-index maintenance operation costs in *counts* — pages edited, WAL
bytes, whole-node codec calls, entries per leaf, index pages under a
sliding window (EXP-25) — never timings::

    PYTHONPATH=src python benchmarks/bench_storage.py --gate
"""

import os
import sys
import tempfile

import pytest

from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.hashindex import HashIndex
from repro.storage.heap import HeapFile
from repro.storage.journal import Journal
from repro.storage.pagefile import PageFile
from repro.storage.recovery import recover
from repro.storage.wal import WriteAheadLog


@pytest.fixture
def stack(tmp_path):
    pagefile = PageFile(str(tmp_path / "pages"))
    pool = BufferPool(pagefile, capacity=128)
    wal = WriteAheadLog(str(tmp_path / "wal"))
    journal = Journal(pool, wal)
    yield pool, wal, journal
    wal.close()
    pagefile.close()


class TestCommitLatency:
    @pytest.mark.parametrize("size", [64, 1024, 16384])
    def test_insert_commit(self, benchmark, stack, size):
        pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        journal.commit(txn)
        payload = os.urandom(size)

        def insert_commit():
            t = journal.begin()
            heap.insert(t, payload)
            journal.commit(t)

        benchmark(insert_commit)

    def test_batched_inserts_per_commit(self, benchmark, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        journal.commit(txn)
        payload = os.urandom(256)

        def batch():
            t = journal.begin()
            for _ in range(100):
                heap.insert(t, payload)
            journal.commit(t)

        benchmark(batch)


class TestIndexLookups:
    N = 5000

    @pytest.fixture
    def loaded(self, stack):
        pool, wal, journal = stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        btree = BTree.create(journal, txn)
        hindex = HashIndex.create(journal, txn)
        rids = {}
        for i in range(self.N):
            rid = heap.insert(txn, b"record-%06d" % i)
            btree.insert(txn, i, tuple(rid))
            hindex.insert(txn, i, tuple(rid))
            rids[i] = rid
        journal.commit(txn)
        return heap, btree, hindex

    def test_btree_point_lookup(self, benchmark, loaded):
        heap, btree, hindex = loaded
        assert benchmark(lambda: btree.search(self.N // 2))

    def test_hash_point_lookup(self, benchmark, loaded):
        heap, btree, hindex = loaded
        assert benchmark(lambda: hindex.search(self.N // 2))

    def test_btree_range_100(self, benchmark, loaded):
        heap, btree, hindex = loaded
        result = benchmark(lambda: list(btree.range(1000, 1100)))
        assert len(result) == 100

    def test_heap_full_scan(self, benchmark, loaded):
        heap, btree, hindex = loaded
        assert benchmark(lambda: sum(1 for _ in heap.scan())) == self.N

    def test_probe_then_heap_read(self, benchmark, loaded):
        from repro.storage.heap import RID
        heap, btree, hindex = loaded

        def point_read():
            rid = hindex.search(self.N // 3)[0]
            return heap.read(RID(*rid))

        assert benchmark(point_read) == b"record-%06d" % (self.N // 3)


class TestRecovery:
    @pytest.mark.parametrize("txns", [10, 100, 500])
    def test_recovery_time_vs_log_length(self, benchmark, tmp_path, txns):
        base = tmp_path / str(txns)
        base.mkdir()

        def build_then_recover():
            page_path = str(base / "pages")
            wal_path = str(base / "wal")
            for p in (page_path, wal_path):
                if os.path.exists(p):
                    os.unlink(p)
            pagefile = PageFile(page_path)
            pool = BufferPool(pagefile, capacity=64)
            wal = WriteAheadLog(wal_path)
            journal = Journal(pool, wal)
            t = journal.begin()
            heap = HeapFile.create(journal, t)
            journal.commit(t)
            for i in range(txns):
                t = journal.begin()
                heap.insert(t, b"x" * 200)
                journal.commit(t)
            # crash: drop the pool, reopen, recover
            wal.close()
            pagefile.close()
            pagefile2 = PageFile(page_path)
            pool2 = BufferPool(pagefile2, capacity=64)
            wal2 = WriteAheadLog(wal_path)
            report = recover(pool2, wal2)
            wal2.close()
            pagefile2.close()
            return report

        report = benchmark.pedantic(build_then_recover, rounds=3,
                                    iterations=1)
        assert report.redone > 0


class TestBufferPool:
    def test_hit_vs_miss(self, benchmark, tmp_path):
        pagefile = PageFile(str(tmp_path / "bp"))
        pool = BufferPool(pagefile, capacity=8)
        from repro.storage.page import PageType
        pages = [pool.new_page(PageType.HEAP) for _ in range(64)]
        pool.flush_all()

        def sweep():
            for page_no in pages:
                with pool.page(page_no):
                    pass

        benchmark(sweep)
        pagefile.close()


# -- ordered-index count gate (make bench-index-smoke / CI) ---------------------

LOAD = 9000         # ascending load, the analytics workload's event count
WINDOW = 3000       # sliding-window size
TURNOVERS = 10


def run_gate(tmpdir) -> int:
    """What one B+tree insert/delete may cost, as counts."""
    from repro.storage import btree as btree_mod
    from repro.storage.page import PageType
    from repro.storage.store import Store

    store = Store(tmpdir + "/gate.odb")
    wal = store._wal
    failures = []

    def check(label, got, limit, at_least=False):
        ok = got >= limit if at_least else got <= limit
        print("%-62s %8s (want %s %s)"
              % (label, got, ">=" if at_least else "<=", limit))
        if not ok:
            failures.append("%s: %s" % (label, got))

    # Page edits and whole-node codec calls, counted where they happen.
    pages_logged = []
    log_update = wal.log_update

    def counting_log_update(txn, prev_lsn, page_no, *rest):
        pages_logged.append(page_no)
        return log_update(txn, prev_lsn, page_no, *rest)

    wal.log_update = counting_log_update
    node_codec_calls = [0]

    def counting(fn, result_is_bytes):
        def wrapper(value):
            out = fn(value)
            # An entry's own key or value is a few bytes here; anything
            # this long is a node's worth of entries.
            if len(out if result_is_bytes else value) > 512:
                node_codec_calls[0] += 1
            return out
        return wrapper

    btree_mod.encode_value = counting(btree_mod.encode_value, True)
    btree_mod.decode_value = counting(btree_mod.decode_value, False)

    def measured(op, *args):
        del pages_logged[:]
        before = wal.end_lsn
        op(txn, "c", "n", *args)
        return len(set(pages_logged)), wal.end_lsn - before

    def index_pages():
        counts = {PageType.BTREE_LEAF: 0, PageType.BTREE_INTERNAL: 0}
        for page_no in range(1, store.stats()["pages"]):
            with store._pool.page(page_no) as page:
                if page.page_type in counts:
                    counts[page.page_type] += 1
        return counts[PageType.BTREE_LEAF], counts[PageType.BTREE_INTERNAL]

    try:
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "n", kind="btree")
        for key in range(LOAD):
            store.index_insert(txn, "c", "n", key, key)
        store.commit(txn)
        leaves, _ = index_pages()
        per_leaf = LOAD // leaves
        check("int-key entries per leaf after a %d-row ascending load"
              % LOAD, per_leaf, 100, at_least=True)

        node_codec_calls[0] = 0
        txn = store.begin()
        appends = [measured(store.index_insert, LOAD + i, LOAD + i)
                   for i in range(300)]
        plain = [cost for cost in appends if cost[0] == 1]
        check("splits in 300 appends", len(appends) - len(plain), 3)
        check("non-splitting append insert: pages edited",
              max(pages for pages, _ in plain), 1)
        check("non-splitting append insert: WAL bytes",
              max(nbytes for _, nbytes in plain), 256)
        deletes = [measured(store.index_delete, key, key)
                   for key in range(per_leaf // 2)]
        check("delete from an n-entry leaf (n = %d): pages edited"
              % per_leaf, max(pages for pages, _ in deletes), 1)
        check("delete from an n-entry leaf: WAL bytes (8n + 256)",
              max(nbytes for _, nbytes in deletes), 8 * per_leaf + 256)
        check("whole-node encode_value/decode_value calls in %d ops"
              % (len(appends) + len(deletes)), node_codec_calls[0], 0)
        store.commit(txn)

        txn = store.begin()
        store.create_index(txn, "c", "w", kind="btree")
        store.commit(txn)
        measured_pages = []
        for turn in range(TURNOVERS + 1):
            lo = turn * WINDOW
            for base in range(lo, lo + WINDOW, 50):
                txn = store.begin()
                for key in range(base, base + 50):
                    store.index_insert(txn, "c", "w", key, key)
                    if key >= WINDOW:
                        store.index_delete(txn, "c", "w", key - WINDOW,
                                           key - WINDOW)
                store.commit(txn)
            measured_pages.append(sum(index_pages()))
        print("index pages after each turnover: %s" % measured_pages[1:])
        check("index page growth over %d turnovers of a %d-row window"
              % (TURNOVERS, WINDOW),
              max(measured_pages[1:]) - min(measured_pages[1:]), 2)
        store.index("c", "w").check_invariants()
    finally:
        store.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("index gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--gate"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="index-gate-") as tmpdir:
        return run_gate(tmpdir)


if __name__ == "__main__":
    sys.exit(main())

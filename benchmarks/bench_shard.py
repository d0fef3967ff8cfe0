"""EXP-18: sharded-storage scans — trajectory and the facade parity gate.

Benchmarks (pytest-benchmark) track the cold- and warm-scan trajectory
of a 1-shard and a 4-shard store; ``--gate`` mode (run by ``make
bench-shard-smoke`` and CI) asserts the acceptance ratio directly:

* **parity** — a 1-shard store's ``scan_batches`` facade must stay
  within 1.1x of the raw page walk it wraps (the sharding layer may not
  tax the common unsharded case).

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard.py --benchmark-only
    PYTHONPATH=src python benchmarks/bench_shard.py --gate
"""

import os
import sys
import time

N_OBJECTS = 2000
PAYLOAD = {"pad": "x" * 200}
GATE_ROUNDS = 5
PARITY_LIMIT = 1.10


def build_store(path, shards, n=N_OBJECTS):
    from repro.storage.store import Store
    store = Store(path, shards=shards)
    txn = store.begin()
    store.create_cluster(txn, "bench")
    for i in range(n):
        serial = store.allocate_serial(txn, "bench")
        record = {"__key": [serial, 0], "n": i}
        record.update(PAYLOAD)
        store.put(txn, "bench", (serial, 0), record, new=True)
    store.commit(txn)
    return store


def drop_caches(store):
    """Force the next scan cold: no pool frames, no decoded-page cache."""
    pools = (store._pool.pools if store.n_shards > 1 else [store._pool])
    for pool in pools:
        pool.flush_all()
        pool.invalidate_all()
    with store._pc_lock:
        store._page_cache.clear()


def cold_scan(store, n=N_OBJECTS):
    drop_caches(store)
    count = sum(len(batch) for batch in store.scan_batches("bench"))
    assert count >= n
    return count


def direct_walk(store, n=N_OBJECTS):
    """The raw page walk (the pre-sharding scan), gate and facade
    bypassed — the parity baseline."""
    drop_caches(store)
    heap = store._heap("bench", 0)
    count = sum(len(batch) for batch in store._scan_batches_inner(
        heap, [heap.first_page, 0]))
    assert count >= n
    return count


# -- pytest-benchmark trajectory ---------------------------------------------


class TestShardColdScan:
    def test_cold_scan_single_shard(self, benchmark, tmp_path):
        store = build_store(str(tmp_path / "one.pages"), shards=None)
        try:
            benchmark(lambda: cold_scan(store))
        finally:
            store.close()

    def test_cold_scan_4shards(self, benchmark, tmp_path):
        store = build_store(str(tmp_path / "four.pages"), shards=4)
        try:
            benchmark(lambda: cold_scan(store))
        finally:
            store.close()

    def test_warm_scan_4shards(self, benchmark, tmp_path):
        store = build_store(str(tmp_path / "warm.pages"), shards=4)
        try:
            cold_scan(store)  # prime
            benchmark(lambda: sum(len(b)
                                  for b in store.scan_batches("bench")))
        finally:
            store.close()


# -- acceptance gates (make bench-shard-smoke / CI) --------------------------


def _best_of(fn, rounds=GATE_ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_gate(tmpdir) -> int:
    failures = []
    one = build_store(os.path.join(tmpdir, "one.pages"), shards=None)
    try:
        facade = _best_of(lambda: cold_scan(one))
        direct = _best_of(lambda: direct_walk(one))
        parity = facade / direct if direct else float("inf")
        print("parity: facade %.1f ms vs direct %.1f ms -> %.3fx "
              "(limit %.2fx)" % (facade * 1e3, direct * 1e3, parity,
                                 PARITY_LIMIT))
        if parity > PARITY_LIMIT:
            failures.append("single-shard facade overhead %.3fx exceeds "
                            "%.2fx" % (parity, PARITY_LIMIT))
    finally:
        one.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("shard gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse
    import tempfile
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true",
                        help="run the facade-parity acceptance gate")
    args = parser.parse_args(argv)
    if not args.gate:
        parser.error("run under pytest for benchmarks, or pass --gate")
    with tempfile.TemporaryDirectory() as tmpdir:
        return run_gate(tmpdir)


if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    if os.path.isdir(src) and src not in sys.path:
        sys.path.insert(0, src)
    sys.exit(main())

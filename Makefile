PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-concurrency crash-smoke crash-full bench bench-smoke bench-codegen-smoke bench-scan-smoke bench-mvcc-smoke bench-index-smoke bench-shard-smoke bench-macro-smoke bench-macro-full bench-server-smoke bench-server-full bench-baseline

test:
	$(PYTHON) -m pytest tests/ -x -q

# Threaded stress tests only (deadlock/retry, serializability, lock leaks).
test-concurrency:
	$(PYTHON) -m pytest tests/ -x -q -m concurrency

# Crash/recovery cycles: every failpoint at two hit depths plus the WAL
# tail-damage and torn-page suites (~40 subprocess cycles, <15 s).
crash-smoke:
	$(PYTHON) -m pytest tests/crash/ -x -q -m crash

# The full randomized matrix: 2 seeds x 17 failpoints x 6 hit depths
# (204 cycles, ~1 min). Run before touching wal.py/recovery.py/pagefile.py.
crash-full:
	REPRO_CRASH_FULL=1 $(PYTHON) -m pytest tests/crash/ -x -q -m crash

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Fast local perf gate: a ~30 s benchmark subset plus the tier-1 tests,
# so a perf regression or breakage fails before a PR goes up. Also
# exports a metrics snapshot from a scratch database in Prometheus text
# format and lints it, so the exposition endpoint can't silently rot.
bench-smoke:
	$(PYTHON) benchmarks/run_baseline.py --smoke
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) -m repro stats /tmp/bench-smoke.odb --format=prom > metrics.prom
	$(PYTHON) -m repro promlint metrics.prom
	rm -f /tmp/bench-smoke.odb

# Codegen gate (EXP-24): compile and cache-lookup counts of the
# expression compiler — an indexed point query touches no codegen, a
# repeated scan shape is one cache hit and no compile, nothing the
# database does drops an entry. And the O++ gate (EXP-26): a `forall`
# statement runs the plan `explain` prints — a 400 x 400 equijoin reads
# each side once into a hash join of 800 rows in, a clause with one
# interpreted conjunct keeps its index. Counts, not timings. Plus the
# unit tests and the differential harnesses: generated expressions vs
# the predicates' closures, traced vs untraced runs, and O++ `forall`
# statements vs a brute-force model.
bench-codegen-smoke:
	$(PYTHON) benchmarks/bench_codegen.py --gate
	$(PYTHON) benchmarks/bench_opp.py --gate
	$(PYTHON) -m pytest tests/query/test_codegen.py \
		tests/query/test_codegen_differential.py \
		tests/query/test_trace_differential.py \
		tests/opp/test_forall_model.py -x -q

# Late-decoding scan gate (EXP-21): the scan/materialization rows plus
# the decode-count gate — a cold scan decodes one head and one current
# state per object, a live scan past the page cache decodes nothing —
# and the batch-vs-decode_value differential suite. Counts, not timings.
bench-scan-smoke:
	$(PYTHON) -m pytest benchmarks/bench_materialization.py --benchmark-only \
		--benchmark-max-time=0.3 --benchmark-min-rounds=3 -q
	$(PYTHON) benchmarks/bench_materialization.py --gate
	$(PYTHON) -m pytest tests/storage/test_scanbatch.py -x -q

# MVCC gate: readers-vs-writer throughput (snapshot reads must let the
# writer through at >= 2x the S-lock baseline) and the single-thread
# overhead geomean; the index-overlay count gate (EXP-23: an indexed
# point query on 5 000 rows beside one pending write reads <= matches +
# dirty records, compiled and interpreted — counts, not timings); plus
# the snapshot rounds of the differential harness, the index-overlay
# suites and the MVCC behaviour suite.
bench-mvcc-smoke:
	$(PYTHON) -m pytest benchmarks/bench_concurrency.py::TestMvccScanReaders \
		--benchmark-only -q
	$(PYTHON) benchmarks/bench_concurrency.py --gate
	$(PYTHON) -m pytest tests/concurrency/test_mvcc.py \
		"tests/query/test_codegen_differential.py::TestSnapshotDifferential" \
		tests/query/test_index_overlay.py \
		tests/query/test_index_overlay_model.py -x -q

# Ordered-index gate (EXP-25): what one B+tree insert/delete costs, as
# counts — a non-splitting append is 1 page edit and <= 256 WAL bytes, a
# delete from an n-entry leaf 1 page edit and <= 8n + 256, no whole-node
# codec call, >= 100 int-key entries per leaf after an ascending load,
# a flat page count under a sliding window — plus the B+tree unit tests,
# its stateful model (commit/abort/reopen/crash), the format-upgrade
# tests and the index-overlay model.
bench-index-smoke:
	$(PYTHON) benchmarks/bench_storage.py --gate
	$(PYTHON) -m pytest tests/storage/test_btree.py \
		tests/storage/test_btree_model.py \
		tests/storage/test_btree_upgrade.py \
		tests/query/test_index_overlay_model.py -x -q

# Sharded-storage gate (EXP-18): the scan benchmarks plus the one
# acceptance ratio — single-shard facade parity within 1.1x of the raw
# page walk — plus the shard unit tests and the scans-vs-maintenance
# race suite.
bench-shard-smoke:
	$(PYTHON) -m pytest benchmarks/bench_shard.py --benchmark-only \
		--benchmark-max-time=0.3 --benchmark-min-rounds=3 -q
	$(PYTHON) benchmarks/bench_shard.py --gate
	$(PYTHON) -m pytest tests/storage/test_sharding.py \
		tests/concurrency/test_shard_parallel.py -x -q

# Macro workload gate (EXP-19): a tiny tier of every built-in scenario
# (OLTP mix, ingest-then-analyze, trigger/version churn) with per-op
# latency percentiles, one REPRO_FAULTS row proving the driver absorbs
# injected faults, and the paired instrumented-vs-stripped overhead
# check (<= 3%). Also writes a smoke report + timeline for the CI
# artifact and exercises the bench-diff regression gate against itself.
bench-macro-smoke:
	$(PYTHON) benchmarks/bench_macro.py --smoke
	$(PYTHON) -m repro simulate oltp --scale 0.15 --duration 1.0 \
		--report macro-report.json --timeline macro-timeline.jsonl
	$(PYTHON) -m repro top macro-timeline.jsonl --once
	$(PYTHON) -m repro bench-diff macro-report.json macro-report.json

# Full macro tier: scenario specs at full scale, recorded as a
# BENCH-compatible json (per-op p50/p99 in ns + full reports in detail).
bench-macro-full:
	$(PYTHON) benchmarks/bench_macro.py --full

# Network-server gate (EXP-20): N-client open-loop driver against a real
# `repro serve` subprocess over TCP — throughput floor + client-observed
# p99 ceiling, a REPRO_FAULTS row (socket read errors; clients reconnect
# and finish), and the overload drill (1-slot server fast-fails with
# ServerOverloadedError while clients keep progressing). Plus the wire
# protocol / server behavior suites, a remote simulate for the CI
# artifact, and the server kill-and-audit crash cycles.
bench-server-smoke:
	$(PYTHON) benchmarks/bench_server.py --smoke
	$(PYTHON) -m pytest tests/server/ tests/obs/test_workload_remote.py \
		tests/core/test_retry.py tests/storage/test_quiesce.py -x -q
	$(PYTHON) -m pytest tests/crash/test_server_crash.py -x -q -m crash

# Full server tier: 8-client open-loop rounds at full scale, recorded as
# a BENCH-compatible json.
bench-server-full:
	$(PYTHON) benchmarks/bench_server.py --full

# Full suite, recorded as BENCH_<date>.json and diffed against the last
# committed baseline (see benchmarks/run_baseline.py).
bench-baseline:
	$(PYTHON) benchmarks/run_baseline.py --diff

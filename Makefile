PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-concurrency crash-smoke crash-full bench bench-test

# Tier-1: unit, property, model, differential and count tests.
test:
	$(PYTHON) -m pytest tests/ -x -q

# Threaded stress tests only (deadlock/retry, serializability, lock leaks).
test-concurrency:
	$(PYTHON) -m pytest tests/ -x -q -m concurrency

# Crash/recovery cycles: every failpoint at two hit depths, the vacuum,
# old-layout and N-file merge cycles, the WAL tail-damage and torn-page
# suites and the server kill-and-audit cycles (142 tests).
crash-smoke:
	$(PYTHON) -m pytest tests/crash/ -x -q -m crash

# The smoke set plus the full matrix: 2 seeds x 17 failpoints x 6 hit
# depths and the server's full set (370 tests). Run before touching
# wal.py/recovery.py/pagefile.py.
crash-full:
	REPRO_CRASH_FULL=1 $(PYTHON) -m pytest tests/crash/ -x -q -m crash

# The repo's benchmark (BENCHMARK.json): four workloads, every metric by
# name. See bench/README.md for one run, a set of runs and the compare gate.
bench:
	$(PYTHON) bench/run.py

# The benchmark's own checks: workloads run and self-verify, compare.py
# gates as documented.
bench-test:
	$(PYTHON) -m pytest bench/tests -q

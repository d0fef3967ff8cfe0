"""Observability overhead guards (PR 4).

The instrumentation contract is that metrics and tracing cost nothing
measurable when tracing is off: counters on hot paths are the same plain
int bumps that existed before (sampled lazily at snapshot time), and the
traced query paths are only entered behind a per-query ``trace()`` flag.

Two guards enforce it:

* ``test_trace_off_within_2pct`` — iterating a query built with
  ``.trace(False)`` must stay within 2% of the identical query that
  never touched the tracing API (min-of-N to shed scheduler noise).
* ``test_traced_forall`` — records the *traced* cost so BENCH diffs
  show what turning tracing on actually buys/costs.
"""

import timeit

import pytest

from conftest import BenchItem, populate_items

from repro import A, forall

N = 5000


@pytest.fixture
def obs_db(db):
    return populate_items(db, N)


def test_trace_off_within_2pct(obs_db):
    handle = obs_db.cluster(BenchItem)

    def untouched():
        return forall(handle).suchthat(A.price < 50.0).count()

    def traced_off():
        return forall(handle).suchthat(A.price < 50.0).trace(False).count()

    # Both sides must evaluate generated expressions: trace(False) is
    # not tracing and must not switch the evaluator — the 2% gate below
    # then holds with the code generator on.
    assert "execution: compiled" in (
        forall(handle).suchthat(A.price < 50.0).explain())
    assert "execution: compiled" in (
        forall(handle).suchthat(A.price < 50.0).trace(False).explain())
    assert untouched() == traced_off()  # warm caches, same answer
    base = min(timeit.repeat(untouched, number=3, repeat=7))
    off = min(timeit.repeat(traced_off, number=3, repeat=7))
    # 2% tolerance plus a 200us absolute floor: at this scale a single
    # page fault is bigger than the allowed relative slack.
    assert off <= base * 1.02 + 2e-4, (
        "trace(False) forall %.3fms vs untouched %.3fms (> 2%% overhead)"
        % (off * 1e3, base * 1e3))


def test_traced_forall(benchmark, obs_db):
    handle = obs_db.cluster(BenchItem)

    def traced():
        return forall(handle).suchthat(A.price < 50.0).trace().count()

    result = benchmark(traced)
    assert result == N // 2


def test_untraced_forall(benchmark, obs_db):
    handle = obs_db.cluster(BenchItem)
    q = forall(handle).suchthat(A.price < 50.0)
    result = benchmark(q.count)
    assert result == N // 2


def test_trace_empty_cluster_no_div_zero(db):
    """Per-row averages over an empty cluster must not divide by zero."""
    db.create(BenchItem, exist_ok=True)
    q = db.forall(BenchItem, trace=True).suchthat(A.price < 50.0)
    assert list(q) == []
    text = q.explain(analyze=True)
    assert "rows=0" in text

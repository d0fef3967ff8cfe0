"""EXP-17 / EXP-24: generated expressions vs the predicates' closures.

One ``forall`` pipeline runs every query; what differs is what it
evaluates per object. Each shape that has both is measured twice: with
generated filters / join lambdas (the default) and with
``.codegen(False)``, so a BENCH diff shows what compiling an expression
buys per shape — scan/filter, fused hash join, aggregation. An index
lookup with nothing left to check runs no generated code at all, so it
has one row; so does the O++ trigger cascade, whose condition and action
bodies run in the one interpreter (EXP-26).

``--gate`` (run by ``make bench-codegen-smoke`` and CI) checks compile
and cache-lookup *counts* — never timings::

    PYTHONPATH=src python benchmarks/bench_codegen.py --gate
"""

import sys
import tempfile

import pytest

from conftest import BenchItem, populate_items

from repro import A, V, forall
from repro.opp.interp import Interpreter

N = 2000


@pytest.fixture
def plain_db(db):
    return populate_items(db, N)


@pytest.fixture
def indexed_db(db):
    return populate_items(db, N, with_indexes=[("category", "hash")])


class TestFilter:
    def test_scan_filter_compiled(self, benchmark, plain_db):
        q = forall(plain_db.cluster(BenchItem)).suchthat(A.category == 3)
        assert "execution: compiled" in q.explain()
        assert benchmark(q.count) == N // 10

    def test_scan_filter_interpreted(self, benchmark, plain_db):
        q = forall(plain_db.cluster(BenchItem)).suchthat(
            A.category == 3).codegen(False)
        assert "execution: interpreted" in q.explain()
        assert benchmark(q.count) == N // 10

    def test_indexed_filter(self, benchmark, indexed_db):
        q = forall(indexed_db.cluster(BenchItem)).suchthat(A.category == 3)
        assert benchmark(q.count) == N // 10


class TestJoin:
    @pytest.fixture
    def join_db(self, db):
        return populate_items(db, 400)

    def test_fused_join_compiled(self, benchmark, join_db):
        items = join_db.cluster(BenchItem)
        q = forall(items, items).suchthat(V[0].category == V[1].category)
        assert benchmark(q.count) == 10 * 40 * 40

    def test_fused_join_interpreted(self, benchmark, join_db):
        items = join_db.cluster(BenchItem)
        q = forall(items, items).suchthat(
            V[0].category == V[1].category).codegen(False)
        assert benchmark(q.count) == 10 * 40 * 40


class TestAggregate:
    def test_sum_compiled(self, benchmark, plain_db):
        q = forall(plain_db.cluster(BenchItem)).suchthat(A.price < 50.0)

        def agg():
            return sum(item.qty for item in q)

        benchmark(agg)

    def test_sum_interpreted(self, benchmark, plain_db):
        q = forall(plain_db.cluster(BenchItem)).suchthat(
            A.price < 50.0).codegen(False)

        def agg():
            return sum(item.qty for item in q)

        benchmark(agg)


CASCADE_SOURCE = """
class tank {
    public:
        int level;
        int low;
    trigger:
        perpetual watch() : level < low ==> { level = level + 10; };
};

create tank;
persistent tank *t0;
transaction { t0 = pnew tank(100, 5); }
"""


class TestTriggerCascade:
    """Per-commit condition evaluation of O++ trigger bodies.

    A perpetual O++ trigger is activated on many objects; each benchmark
    round commits one write, which re-evaluates every activation's
    condition body in the interpreter.
    """

    ACTIVATIONS = 50

    def test_cascade(self, benchmark, db):
        interp = Interpreter(db)
        interp.run(CASCADE_SOURCE)
        interp.run("transaction { int i; for (i = 0; i < %d; i = i + 1) "
                   "{ tank* t = pnew tank(100, 5); t->watch(); } }\n"
                   % self.ACTIVATIONS)

        def commit():
            interp.run("transaction { t0->level = t0->level + 1; }\n")

        benchmark(commit)


# -- compile / lookup count gate (make bench-codegen-smoke / CI) --------------


def run_gate(tmpdir) -> int:
    """What the expression compiler promises, as counts on N items."""
    from repro import Database
    db = populate_items(Database(tmpdir + "/gate.odb"), N,
                        with_indexes=[("category", "hash")])
    cache = db.codegen_cache
    items = db.cluster(BenchItem)
    failures = []

    def check(label, got, want):
        print("%-58s %6d (want %d)" % (label, got, want))
        if got != want:
            failures.append("%s: %d != %d" % (label, got, want))

    def delta(run):
        hits, misses = cache.hits, cache.misses
        run()
        return cache.hits - hits, cache.misses - misses

    try:
        point = forall(items).suchthat(A.category == 3)
        assert "index eq-lookup" in point.explain()
        hits, misses = delta(lambda: (point.count(), point.to_list(),
                                      list(point), point.first()))
        check("indexed point query, 4 terminals: cache lookups",
              hits + misses, 0)
        scan = forall(items).suchthat(A.price < 50.0)
        _, misses = delta(scan.count)
        assert "full scan" in scan.explain()
        check("scan + filter, first run: compiles", misses, 1)
        hits, misses = delta(lambda: (scan.count(), scan.to_list(),
                                      list(scan), scan.explain()))
        check("same Forall, 3 more terminals + explain: cache lookups",
              hits + misses, 0)
        hits, misses = delta(
            forall(items).suchthat(A.price < 75.0).count)
        check("same expression, another constant: cache hits", hits, 1)
        check("same expression, another constant: compiles", misses, 0)
        join = forall(items, items).suchthat(
            (V[0].category == V[1].category) & (V[0].price < 1.0))
        join.count()
        hits, misses = delta(join.count)
        check("fused join (1 pushed-down filter + join lambdas): hits",
              hits, 2)
        check("fused join, repeated: compiles", misses, 0)
        hits, misses = delta(scan.codegen(False).count)
        check(".codegen(False): cache lookups", hits + misses, 0)
        entries = cache.stats()["entries"]
        db.create_index(BenchItem, "qty", kind="btree")
        db.analyze(BenchItem)
        check("entries dropped by index DDL + analyze",
              entries - cache.stats()["entries"], 0)
    finally:
        db.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("codegen gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--gate"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="codegen-gate-") as tmpdir:
        return run_gate(tmpdir)


if __name__ == "__main__":
    sys.exit(main())

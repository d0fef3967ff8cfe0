"""EXP-11: O++ interpreter overhead vs the direct Python API.

The same workload is run through the language front end and through the
library; the ratio is the cost of the language layer (parse once, then a
tree-walking evaluator per statement).

``--gate`` (run by ``make bench-codegen-smoke`` and CI) checks that an
O++ ``forall`` statement runs the plan ``explain`` prints, as *counts* —
heap pages asked for and operator rows, never timings (EXP-26)::

    PYTHONPATH=src python benchmarks/bench_opp.py --gate
"""

import sys
import tempfile

import pytest

from repro.opp import Interpreter, parse

SCHEMA = r"""
class bitem {
  public:
    char* name;
    double price;
    int qty;
    bitem(char* n, double p, int q) { name = n; price = p; qty = q; }
};
create bitem;
"""

QUERY = r"""
int n = 0;
forall t in bitem suchthat (t->price < 50.0) n++;
"""


class TestParsing:
    def test_parse_schema(self, benchmark):
        benchmark(lambda: parse(SCHEMA))

    def test_parse_large_program(self, benchmark):
        program = SCHEMA + QUERY * 50
        benchmark(lambda: parse(program, known_types={"bitem"}))


class TestExecution:
    @pytest.fixture
    def loaded(self, db):
        interp = Interpreter(db)
        interp.run(SCHEMA)
        interp.run("""
        for (int i = 0; i < 200; i++)
            pnew bitem("part", 1.0 * (i - (i / 100) * 100), i);
        """)
        return db, interp

    def test_query_via_opp(self, benchmark, loaded):
        db, interp = loaded
        benchmark(lambda: interp.run(QUERY))

    def test_query_via_python(self, benchmark, loaded):
        db, interp = loaded
        from repro import A, forall
        from repro.core.objects import class_registry
        cls = class_registry()["bitem"]
        q = forall(db.cluster(cls)).suchthat(A.price < 50.0)
        result = benchmark(q.count)
        assert result == 100

    def test_arithmetic_loop_opp(self, benchmark, loaded):
        db, interp = loaded
        src = """
        int total = 0;
        for (int i = 0; i < 1000; i++) total += i;
        """
        benchmark(lambda: interp.run(src))

    def test_arithmetic_loop_python(self, benchmark):
        def loop():
            total = 0
            for i in range(1000):
                total += i
            return total

        benchmark(loop)

    def test_method_dispatch_opp(self, benchmark, loaded):
        db, interp = loaded
        interp.run("""
        bitem *probe;
        probe = new bitem("x", 1.0, 0);
        """)
        benchmark(lambda: interp.run(
            "for (int i = 0; i < 100; i++) probe->qty;"))


# -- "explain is the executed plan" count gate (make bench-codegen-smoke) ----

GATE_SCHEMA = r"""
class ga { public: int k; int v; };
class gb { public: int k; int v; };
create ga; create gb;
transaction { for (int i = 0; i < 400; i++) { pnew ga(i, i); pnew gb(i, i); } }
int n = 0;
"""
EQUIJOIN = "forall x in ga, forall y in gb suchthat (x->k == y->k)"
MIXED = "forall x in ga suchthat (x->k == 7 && x->v + 0 == 7)"


def run_gate(tmpdir) -> int:
    from repro import Database
    from repro.core.objects import class_registry
    db = Database(tmpdir + "/gate.odb")
    interp = Interpreter(db)
    failures = []

    def check(label, got, want):
        print("%-58s %6d (want %d)" % (label, got, want))
        if got != want:
            failures.append("%s: %d != %d" % (label, got, want))

    def pages(source):
        """Heap pages *source* asks the scan page cache for."""
        def lookups():
            cache = db.stats()["page_cache"]
            return cache["hits"] + cache["misses"]
        before = lookups()
        interp.run(source)
        return lookups() - before

    def explained(statement, operator):
        """``(rows, in)`` of *operator* in ``explain analyze``."""
        interp.run("explain analyze " + statement + " ;")
        line, = [ln for ln in interp.output[-1].splitlines()
                 if ln.strip().startswith(operator)]
        tail = line.rsplit(": rows=", 1)[1]
        return int(tail.split()[0]), int(tail.split("(in=")[1].split(")")[0])

    try:
        interp.run(GATE_SCHEMA)
        one_pass = pages("forall x in ga ;") + pages("forall y in gb ;")
        check("400 x 400 equijoin statement: heap pages asked for",
              pages(EQUIJOIN + " n++;"), one_pass)
        rows, rows_in = explained(EQUIJOIN, "hash join")
        check("its explain analyze: hash join rows out", rows, 400)
        check("its explain analyze: hash join rows in", rows_in, 400 + 400)
        db.create_index(class_registry()["ga"], "k", kind="hash")
        check("lowerable && interpreted conjunct, indexed: heap pages",
              pages(MIXED + " n++;"), 0)
        rows, rows_in = explained(MIXED, "scan")
        check("its explain analyze: index candidates", rows_in, 1)
        interp.run('printf("%d", n);')
        check("rows both statements' bodies saw", int(interp.output[-1]),
              400 + 1)
    finally:
        db.close()
    for failure in failures:
        print("GATE FAIL: %s" % failure, file=sys.stderr)
    print("opp gate %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--gate"]:
        print(__doc__)
        sys.exit(2)
    with tempfile.TemporaryDirectory(prefix="opp-gate-") as gate_dir:
        sys.exit(run_gate(gate_dir))

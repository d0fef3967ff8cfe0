"""Unit tests for the expression compiler (query/codegen.py): cache
keying, what does and does not consult the cache, linecache registration,
explain/dump-code output, metrics wiring, and the disable switches."""

import linecache

import pytest

from repro.core import Database, IntField, OdeObject, StringField
from repro.obs import render_prometheus
from repro.opp.interp import Interpreter
from repro.query import V, forall
from repro.query.predicates import Compare


class CacheRow(OdeObject):
    num = IntField(default=0)
    tag = StringField(default="")


@pytest.fixture
def filled(db):
    db.create(CacheRow)
    with db.transaction():
        for i in range(40):
            db.pnew(CacheRow, num=i, tag="t%d" % (i % 4))
    return db


def lookups(db):
    cache = db.codegen_cache
    return cache.hits + cache.misses


class TestCache:
    def test_repeat_shape_hits_cache(self, filled):
        db = filled
        handle = db.cluster(CacheRow)
        base_misses = db.codegen_cache.misses
        base_hits = db.codegen_cache.hits
        assert forall(handle).suchthat(Compare("num", "<", 10)).count() == 10
        assert db.codegen_cache.misses == base_misses + 1
        # same expression, different constant: the source text matches
        assert forall(handle).suchthat(Compare("num", "<", 20)).count() == 20
        assert db.codegen_cache.misses == base_misses + 1
        assert db.codegen_cache.hits == base_hits + 1

    def test_lookup_and_compile_counts(self, filled):
        """An index plan with nothing left to check touches no codegen at
        all; a scan shape costs one compile ever, one lookup per Forall
        (its filter lives with its plan) and none when that is reused."""
        db = filled
        db.create_index(CacheRow, "num", kind="hash")
        handle = db.cluster(CacheRow)
        point = forall(handle).suchthat(Compare("num", "==", 7))
        assert "index eq-lookup" in point.explain()
        before = lookups(db)
        assert [r.num for r in point] == [7]
        assert point.count() == 1
        assert len(point.to_list()) == 1
        assert point.first().num == 7
        assert lookups(db) == before
        cache = db.codegen_cache
        misses = cache.misses
        scan = forall(handle).suchthat(Compare("tag", "==", "t1"))
        assert scan.count() == 10
        assert cache.misses == misses + 1
        hits, misses, compile_ns = cache.hits, cache.misses, cache.compile_ns
        assert compile_ns > 0
        for terminal in (scan.count, scan.to_list, lambda: list(scan),
                         scan.explain):
            terminal()
            assert (cache.hits, cache.misses, cache.compile_ns) == (
                hits, misses, compile_ns)
        again = forall(handle).suchthat(Compare("tag", "==", "t2"))
        assert again.count() == 10
        assert (cache.hits, cache.misses, cache.compile_ns) == (
            hits + 1, misses, compile_ns)

    def test_join_and_closure_lookup_counts(self, filled):
        """A fused join looks its pushed-down filter and its join lambdas
        up on every run, and a repeat compiles nothing; ``.codegen(False)``
        does not consult the cache."""
        db = filled
        handle = db.cluster(CacheRow)
        cache = db.codegen_cache
        join = forall(handle, handle).suchthat(
            (V[0].tag == V[1].tag) & (V[0].num < 5))
        assert join.count() == 5 * 10
        hits, misses = cache.hits, cache.misses
        assert join.count() == 5 * 10
        assert (cache.hits, cache.misses) == (hits + 2, misses)
        scan = forall(handle).suchthat(Compare("num", "<", 9))
        before = lookups(db)
        assert scan.codegen(False).count() == 9
        assert lookups(db) == before

    def test_code_outlives_ddl_analyze_and_abort(self, filled):
        """Generated code is a pure function of its source text: nothing
        the database does invalidates it."""
        db = filled
        q = forall(db.cluster(CacheRow)).suchthat(Compare("tag", "!=", "t0"))
        assert q.count() == 30
        cache = db.codegen_cache
        entries, misses = cache.stats()["entries"], cache.misses
        db.create_index(CacheRow, "num", kind="btree")
        db.analyze(CacheRow)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.pnew(CacheRow, num=99, tag="t9")
                raise RuntimeError("abort")
        assert q.count() == 30
        assert (cache.stats()["entries"], cache.misses) == (entries, misses)

    def test_generated_source_in_linecache(self, filled):
        db = filled
        q = forall(db.cluster(CacheRow)).suchthat(Compare("num", ">", 35))
        assert q.count() == 4
        entry = next(iter(db.codegen_cache._entries.values()))
        assert entry.filename.startswith("<ode-codegen:")
        lines = linecache.getlines(entry.filename)
        assert lines and lines[0].startswith("def __ode_make(_c0")
        assert any('obj.__dict__["_f_num"] > _c0' in ln for ln in lines)

    def test_compile_ns_accounted(self, filled):
        db = filled
        forall(db.cluster(CacheRow)).suchthat(Compare("num", "<", 3)).count()
        assert db.codegen_cache.stats()["compile_ns"] > 0

    def test_generator_bug_raises(self, filled, monkeypatch):
        """Only _CannotLower means "no lowering"; anything else is a bug
        and must not be swallowed into the closure path."""
        from repro.query import codegen as qcodegen

        def broken(*args, **kwargs):
            raise ZeroDivisionError("generator bug")
        monkeypatch.setattr(qcodegen, "_lower", broken)
        q = forall(filled.cluster(CacheRow)).suchthat(Compare("num", "<", 3))
        with pytest.raises(ZeroDivisionError):
            q.count()
        assert q.codegen(False).count() == 3


class TestExplain:
    def test_explain_shows_mode_and_code(self, filled):
        db = filled
        q = forall(db.cluster(CacheRow)).suchthat(Compare("num", "<", 7))
        text = q.explain()
        assert "execution: compiled (1 generated expression(s))" in text
        with_code = q.explain(code=True)
        assert "def __ode_make(_c0, _safe):" in with_code
        assert '[obj for obj in objs if (obj.__dict__["_f_num"] < _c0)]' \
            in with_code
        q2 = forall(db.cluster(CacheRow)).suchthat(
            Compare("num", "<", 7)).codegen(False)
        assert "execution: interpreted" in q2.explain()
        assert "generated code: none" in q2.explain(code=True)

    def test_explain_analyze_times_the_same_pipeline(self, filled):
        db = filled
        q = forall(db.cluster(CacheRow)).suchthat(Compare("num", "<", 7))
        hits = db.codegen_cache.hits + db.codegen_cache.misses
        text = q.explain(analyze=True)
        assert "execution: compiled" in text
        assert "fallback" not in text
        assert "rows=7 (in=40)" in text
        # one lookup: the traced run reuses the filter explain described
        assert lookups(db) == hits + 1

    def test_join_explain_mode(self, filled):
        db = filled
        handle = db.cluster(CacheRow)
        q = forall(handle, handle).suchthat(
            (V[0].num == V[1].num) & (V[0].tag != V[1].tag))
        assert "execution: compiled" in q.explain()
        code = q.explain(code=True)
        assert "lambda row: row[0].num, lambda obj: obj.num" in code
        assert "lambda row, obj: (row[0].tag != obj.tag)" in code

    def test_opp_explain_dumps_expression_source(self, filled):
        interp = Interpreter(filled, dump_code=True)
        interp.run("explain forall r in CacheRow suchthat (r->num < 3);\n")
        text = "".join(interp.output)
        assert "execution: compiled" in text
        assert "def __ode_make(" in text


class TestMetrics:
    def test_prometheus_exposition(self, filled):
        db = filled
        forall(db.cluster(CacheRow)).suchthat(Compare("num", "<", 9)).count()
        text = render_prometheus(db.metrics)
        assert "codegen_cache_hits" in text
        assert "codegen_cache_misses" in text
        assert "codegen_compile_ns" in text
        assert 'query_exec_mode_total{mode="compiled"}' in text

    def test_exec_mode_counters(self, filled):
        db = filled
        handle = db.cluster(CacheRow)
        compiled_before = db._q_mode_compiled.value
        interp_before = db._q_mode_interpreted.value
        forall(handle).suchthat(Compare("num", "<", 9)).count()
        assert db._q_mode_compiled.value == compiled_before + 1
        forall(handle).suchthat(Compare("num", "<", 9)).codegen(False).count()
        assert db._q_mode_interpreted.value == interp_before + 1


class TestPredicateTriggerCondition:
    def test_predicate_condition_compiles(self, db):
        from repro.core.triggers import Trigger
        from repro.query.predicates import A

        fired = []

        class CodegenWidget(OdeObject):
            qty = IntField(default=0)
            poke = Trigger(condition=A.qty <= 2,
                           action=lambda self, *a: fired.append(self.qty))

        decl = CodegenWidget.__dict__["poke"]
        assert hasattr(decl.condition, "_ode_predicate")
        db.create(CodegenWidget)
        with db.transaction():
            w = db.pnew(CodegenWidget, qty=10)
        w.poke()
        with db.transaction():
            w.qty = 1
        assert fired == [1]

"""The interpreter's statement cache: a repeated statement shape is not
lexed or parsed again, and nothing a run can observe changes."""

import os
import tempfile
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Database, IntField, OdeObject, class_registry
from repro.errors import OppError, OppNameError, OppSyntaxError
from repro.opp import Interpreter
from repro.opp.interp import STMT_CACHE_SIZE

LOOKUP = 'forall t in citem suchthat (t->k == %d) printf("%%s\\n", t->s);'

SCHEMA = """
class citem { public: int k; char* s; double f; };
create citem;
"""


@pytest.fixture
def interp(db):
    interp = Interpreter(db)
    interp.run(SCHEMA)
    interp.run('int i = 0; while (i < 20) { pnew citem(i, "s", 0.5); i++; }')
    interp._statements.clear()
    return interp


def counts(db):
    return (db.metrics.get("opp.stmt_cache.hits") or 0,
            db.metrics.get("opp.stmt_cache.misses") or 0)


class TestHitsAndMisses:
    def test_one_shape_is_parsed_once(self, db, interp):
        hits, misses = counts(db)
        for i in range(20):
            interp.output.clear()
            interp.run(LOOKUP % i)
            assert interp.output == ["s\n"]
        assert counts(db) == (hits + 19, misses + 1)
        assert db.stats()["opp"] == {"stmt_cache_hits": hits + 19,
                                     "stmt_cache_misses": misses + 1}

    def test_literals_rebind_per_run(self, interp):
        interp.run('pnew citem(100, "a\\tb", 1.5e2);')
        interp.run("pnew citem(101, 'c', .5);")
        interp.output.clear()
        for k in (100, 101):
            interp.run('forall t in citem suchthat (t->k == %d) '
                       'printf("%%s|%%g\\n", t->s, t->f);' % k)
        assert interp.output == ["a\tb|150\n", "c|0.5\n"]

    def test_negative_numbers_go_through_unary_minus(self, interp):
        interp.output.clear()
        for value in ("5", "-5", "-2.5e1"):
            interp.run('printf("%%g\\n", %s * 2);' % value)
        assert interp.output == ["10\n", "-10\n", "-50\n"]

    def test_true_false_null_are_part_of_the_shape(self, db, interp):
        hits, misses = counts(db)
        interp.output.clear()
        for word in ("true", "false", "null", "true"):
            interp.run('printf("%%d\\n", %s == true);' % word)
        assert interp.output == ["1\n", "0\n", "0\n", "1\n"]
        assert counts(db) == (hits + 1, misses + 3)

    def test_declarations_are_not_cached(self, interp):
        interp.run("int twice(int n) { return 2 * n; }")
        interp.run("class other { public: int a; };")
        assert len(interp._statements) == 0
        interp.run('printf("%d\\n", twice(4));')
        assert len(interp._statements) == 1

    def test_literal_with_a_newline_is_not_cached(self, interp):
        interp.output.clear()
        interp.run("printf(\"%s|\", '\n');")
        interp.run('printf("%s|", "a\\\nb");')
        assert interp.output == ["\n|", "a\nb|"]
        assert len(interp._statements) == 0

    def test_literal_in_a_comment_is_not_cached(self, interp):
        interp.output.clear()
        interp.run('printf("%d\\n", 1); // 2')
        interp.run('printf("%d\\n", 3); // 4')
        assert interp.output == ["1\n", "3\n"]
        assert len(interp._statements) == 0

    def test_spans_must_be_the_literal_tokens(self, interp):
        # `in.5`: the shape keeps a number after a letter or dot, but the
        # lexer reads the float .5; the comment's .5 balances count and
        # value, so only the positions tell the spans apart.
        interp.run("if (false) for x in.5 ; /* .5 */")
        assert len(interp._statements) == 0

    def test_number_inside_an_identifier_stays_in_the_shape(self, interp):
        interp.output.clear()
        interp.run('int v1 = 7; printf("%d\\n", v1);')
        interp.run('int v2 = 8; printf("%d\\n", v2);')
        interp.run('printf("%d\\n", v1 + v2);')
        assert interp.output == ["7\n", "8\n", "15\n"]

    def test_line_numbers_follow_the_source(self, interp):
        for value in ("1", "2"):
            with pytest.raises(OppError) as err:
                interp.run('int a = %s;\n\nprintf("%%d", a + "x");' % value)
            assert err.value.line == 3


class TestKnownTypes:
    # Class names are process-wide: each test declares a name no other
    # test has used.

    def test_class_declared_between_runs_makes_a_declaration(self, interp):
        name = "widget_%s" % uuid.uuid4().hex[:8]
        shape = '%s *w; printf("%%d\\n", w == null);' % name
        with pytest.raises(OppNameError):
            interp.run(shape)         # `widget * w`: an expression
        interp.run("class %s { public: int a; };" % name)
        interp.output.clear()
        interp.run(shape)             # now a declaration of w
        assert interp.output == ["1\n"]

    def test_python_class_defined_between_runs(self, interp):
        name = "gadget_%s" % uuid.uuid4().hex[:8]
        shape = '%s *g; printf("%%d\\n", g == null);' % name
        with pytest.raises(OppNameError):
            interp.run(shape)
        type(name, (OdeObject,), {"n": IntField(default=0)})
        interp.output.clear()
        interp.run(shape)
        assert interp.output == ["1\n"]

    def test_class_removed_from_the_registry(self, interp):
        name = "removed_%s" % uuid.uuid4().hex[:8]
        type(name, (OdeObject,), {"n": IntField(default=0)})
        shape = '%s *g; printf("%%d\\n", g == null);' % name
        interp.output.clear()
        interp.run(shape)
        assert interp.output == ["1\n"]
        del class_registry()[name]
        with pytest.raises(OppNameError):
            interp.run(shape)         # an expression again

    def test_global_alias_of_a_class(self, interp):
        name = "aliased_%s" % uuid.uuid4().hex[:8]
        interp.run("class %s { public: int a; };" % name)
        shape = 'alias *q; printf("%d\\n", q == null);'
        interp.run("alias = %s;" % name)
        interp.output.clear()
        interp.run(shape)             # a declaration of q
        assert interp.output == ["1\n"]
        interp.run("alias = 5;")
        with pytest.raises(OppError):
            interp.run(shape)         # `alias * q`: 5 * null

    def test_known_types_recomputed_only_on_change(self, interp):
        interp.run(LOOKUP % 1)
        known = interp._known
        interp.run(LOOKUP % 2)
        interp.run("int x = 5;")
        assert interp._known is known
        name = "fresh_%s" % uuid.uuid4().hex[:8]
        interp.run("class %s { public: int a; };" % name)
        interp.run(LOOKUP % 3)
        assert interp._known is not known
        assert name in interp._known[1]


class TestErrors:
    def test_syntax_error_raises_the_same_error_twice(self, db, interp):
        errors = []
        for _ in range(2):
            with pytest.raises(OppSyntaxError) as err:
                interp.run("x = 1 +;")
            errors.append((str(err.value), err.value.line, err.value.column))
        assert errors[0] == errors[1]
        assert len(interp._statements) == 0

    def test_failed_run_leaves_the_entry_usable(self, interp):
        for value in ("0", "2"):
            try:
                interp.run('printf("%%d\\n", 10 / %s);' % value)
            except OppError:
                pass
        interp.output.clear()
        interp.run('printf("%d\\n", 10 / 5);')
        assert interp.output == ["2\n"]


class TestReentrancy:
    def test_nested_run_does_not_rebind_a_running_program(self, db, interp):
        shape = 'r = nested(%d); printf("%%d:%%d\\n", %d, r);'

        def nested(n):
            if n < 3:
                interp.run(shape % (n + 1, n + 1))
            return n

        interp.globals.declare("nested", nested)
        interp.output.clear()
        interp.run(shape % (1, 1))
        assert interp.output == ["3:3\n", "2:2\n", "1:1\n"]
        hits, misses = counts(db)
        interp.output.clear()
        interp.run(shape % (1, 1))
        assert interp.output == ["3:3\n", "2:2\n", "1:1\n"]
        # The top-level run hits; the two nested ones parse their own.
        assert counts(db) == (hits + 1, misses + 2)


class TestBound:
    def test_cache_holds_at_most_the_bound(self, db, interp):
        for i in range(STMT_CACHE_SIZE + 44):
            interp.run("int v%d = 1;" % i)
            assert len(interp._statements) <= STMT_CACHE_SIZE
        assert len(interp._statements) == STMT_CACHE_SIZE
        hits, misses = counts(db)
        interp.run("int v0 = 2;")     # least recently used: evicted
        interp.run("int v%d = 2;" % (STMT_CACHE_SIZE + 43))
        assert counts(db) == (hits + 1, misses + 1)

    def test_least_recently_used_goes_first(self, db, interp):
        for i in range(STMT_CACHE_SIZE):
            interp.run("int v%d = 1;" % i)
        interp.run("int v0 = 2;")     # a hit: now the most recently used
        interp.run("int w = 1;")      # evicts v1's shape
        hits, misses = counts(db)
        interp.run("int v0 = 3;")
        interp.run("int v1 = 3;")
        assert counts(db) == (hits + 1, misses + 1)


# -- equivalence: a warm interpreter behaves as one that parses every run --

SHAPES = [
    'printf("%s|%s\\n", {0}, {1});',
    'int v = {0}; v = v + {1}; printf("%s\\n", v);',
    "pnew citem({0}, {1}, {2});",
    'forall t in citem suchthat (t->k == {0}) printf("%s %s\\n", t->s, t->f);',
    "forall t in citem suchthat (t->k == {0}) t->f = {1};",
    'if ({0} < {1}) printf("lt\\n"); else printf("ge %s\\n", {2});',
    'printf("a\\n");\nx9 = {0};\n\nprintf("%s\\n", x9 * {1});',
    'forall t in citem suchthat (t->s == {0} && t->f > {1}) '
    'printf("%s\\n", t->k);',
    'printf("%s\\n", -{0});',
    '/* {2} */ printf("%s\\n", {0}); // {1}',
    "forall t in citem suchthat (t->k == {0}) pdelete t;",
]


def c_string(text):
    return '"%s"' % (text.replace("\\", "\\\\").replace('"', '\\"')
                     .replace("\t", "\\t"))


LITERALS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(1, 10 ** 6).map(lambda i: "-%d" % i),
    st.sampled_from(["1.5", "0.25", "7.", ".5", "1e3", "2.5E-3", "6.02e+23",
                     "-1.5e2"]),
    st.text(alphabet="ab z%\\\"\t'", max_size=6).map(c_string),
    st.sampled_from(["'a'", "'\\n'", "'\\''", "'\"'", "'\\\\'"]),
    st.sampled_from(["true", "false", "null"]),
)

STATEMENTS = st.lists(
    st.tuples(st.sampled_from(SHAPES),
              st.lists(LITERALS, min_size=3, max_size=3)),
    min_size=1, max_size=14)


def outcome(interp, source):
    interp.output.clear()
    try:
        interp.run(source)
    except OppError as exc:
        return ("error", type(exc).__name__, str(exc))
    except Exception as exc:  # the same failure on both sides
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", list(interp.output))


def state(db):
    cls = db.cluster("citem").cls
    return sorted(repr((obj.k, obj.s, obj.f))
                  for obj in db.cluster(cls))


@given(STATEMENTS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_warm_interpreter_matches_a_parse_every_time_one(statements):
    sources = [shape.format(*lits) for shape, lits in statements]
    with tempfile.TemporaryDirectory() as tmp:
        dbs = [Database(os.path.join(tmp, name)) for name in "ab"]
        try:
            warm, cold = (Interpreter(db) for db in dbs)
            for interp in (warm, cold):
                interp.run(SCHEMA)
                interp.run('int i = 0; while (i < 5) '
                           '{ pnew citem(i, "s", 0.5); i++; }')
            for source in sources:
                cold._statements.clear()
                assert outcome(warm, source) == outcome(cold, source), source
            assert state(dbs[0]) == state(dbs[1])
        finally:
            for db in dbs:
                db.close()

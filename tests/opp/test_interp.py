"""Tests for the O++ interpreter: language semantics end to end."""

import pytest

from repro.core import Database
from repro.errors import (ConstraintViolation, OppNameError, OppRuntimeError,
                          OppTypeError)
from repro.opp import Interpreter


@pytest.fixture
def interp(db):
    return Interpreter(db)


def run(interp, source):
    interp.output.clear()
    interp.run(source)
    return "".join(interp.output)


class TestExpressionsAndStatements:
    def test_arithmetic_printf(self, interp):
        out = run(interp, 'printf("%d %g %d\\n", 2 + 3 * 4, 7.0 / 2, 7 % 3);')
        assert out == "14 3.5 1\n"

    def test_integer_division(self, interp):
        assert run(interp, 'printf("%d\\n", 7 / 2);') == "3\n"

    def test_division_by_zero(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, "1 / 0;")

    def test_variables_and_scope(self, interp):
        out = run(interp, """
        int x = 1;
        { int x = 2; printf("%d", x); }
        printf("%d", x);
        """)
        assert out == "21"

    def test_if_else_while(self, interp):
        out = run(interp, """
        int n = 0;
        int total = 0;
        while (n < 5) { total += n; n++; }
        if (total == 10) printf("ten"); else printf("other");
        """)
        assert out == "ten"

    def test_classic_for_with_break_continue(self, interp):
        out = run(interp, """
        for (int i = 0; i < 10; i++) {
            if (i == 2) continue;
            if (i == 5) break;
            printf("%d", i);
        }
        """)
        assert out == "0134"

    def test_functions(self, interp):
        out = run(interp, """
        int fib(int n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        printf("%d", fib(10));
        """)
        assert out == "55"

    def test_conditional_expression(self, interp):
        assert run(interp, 'printf("%s", 1 < 2 ? "yes" : "no");') == "yes"

    def test_logical_short_circuit(self, interp):
        out = run(interp, """
        int boom() { printf("BOOM"); return 1; }
        if (false && boom()) printf("x");
        if (true || boom()) printf("ok");
        """)
        assert out == "ok"

    def test_string_ops(self, interp):
        out = run(interp, 'printf("%d %d", strlen("hello"), strcmp("a", "b"));')
        assert out == "5 -1"

    def test_undefined_name(self, interp):
        with pytest.raises(OppNameError):
            run(interp, "nosuchvar + 1;")


class TestClasses:
    def test_volatile_object(self, interp):
        out = run(interp, """
        class point {
          public:
            int x; int y;
            point(int a, int b) { x = a; y = b; }
            int manhattan() { return x + y; }
        };
        point *p;
        p = new point(3, 4);
        printf("%d", p->manhattan());
        """)
        assert out == "7"

    def test_default_constructor_positional(self, interp):
        out = run(interp, """
        class pair { public: int a; int b; };
        pair *p;
        p = new pair(1, 2);
        printf("%d%d", p->a, p->b);
        """)
        assert out == "12"

    def test_wrong_arity(self, interp):
        with pytest.raises(OppTypeError):
            run(interp, """
            class pt { public: int x; pt(int a) { x = a; } };
            new pt(1, 2, 3);
            """)

    def test_inheritance_and_dispatch(self, interp):
        out = run(interp, """
        class person {
          public:
            char* name;
            double income() { return 0.0; }
        };
        class faculty : public person {
          public:
            double salary;
            double income() { return salary; }
        };
        faculty *f;
        f = new faculty();
        f->salary = 50.0;
        f->name = "prof";
        printf("%s earns %g", f->name, f->income());
        """)
        assert out == "prof earns 50"

    def test_this(self, interp):
        out = run(interp, """
        class node {
          public:
            int v;
            node *me() { return this; }
        };
        node *n;
        n = new node();
        n->v = 9;
        printf("%d", n->me()->v);
        """)
        assert out == "9"

    def test_null_deref(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, """
            class a { public: int x; };
            a *p;
            p->x;
            """)

    def test_is_operator(self, interp):
        out = run(interp, """
        class animal { public: int x; };
        class dog : public animal { public: int y; };
        animal *a;
        a = new dog();
        if (a is dog*) printf("dog");
        if (a is animal*) printf(" animal");
        if (a is persistent dog*) printf(" persistent");
        """)
        assert out == "dog animal"


class TestPersistenceFromOpp:
    def test_pnew_and_forall(self, interp):
        out = run(interp, """
        class item { public: char* name; int qty; };
        create item;
        pnew item("a", 3);
        pnew item("b", 1);
        pnew item("c", 2);
        forall t in item suchthat (t->qty >= 2) by (t->qty)
            printf("%s%d", t->name, t->qty);
        """)
        assert out == "c2a3"

    def test_constraints_abort(self, interp):
        with pytest.raises(ConstraintViolation):
            run(interp, """
            class acct {
              public:
                int bal;
                int take(int n) { bal = bal - n; return bal; }
              constraint:
                bal >= 0;
            };
            create acct;
            acct *a;
            a = pnew acct(10);
            a->take(100);
            """)

    def test_triggers_fire(self, interp):
        out = run(interp, """
        class tank {
          public:
            int level;
            int drain(int n) { level = level - n; return level; }
          trigger:
            low(int mark) : level <= mark ==> printf("LOW %d", level);
        };
        create tank;
        tank *t;
        t = pnew tank(100);
        t->low(10);
        transaction { t->drain(95); }
        """)
        assert out == "LOW 5"

    def test_trigger_activation_checks_arity(self, interp, db):
        """Like methods, functions and constructors — not an undefined
        name when the condition first reads the missing parameter."""
        run(interp, """
        class vat {
          public:
            int level;
          trigger:
            watch(int n) : level <= n ==> printf("LOW %d", level);
        };
        create vat;
        vat *t;
        t = pnew vat(100);
        """)
        for call, got in (("t->watch();", 0), ("t->watch(1, 2);", 2)):
            with pytest.raises(OppTypeError,
                               match=r"watch\(\) takes 1 arguments, got %d"
                               % got):
                run(interp, call)
        assert db.triggers.active_count() == 0
        run(interp, "t->watch(200);")
        assert "".join(interp.output) == "LOW 100"

    def test_versions_from_opp(self, interp):
        out = run(interp, """
        class doc { public: char* text; };
        create doc;
        doc *d;
        d = pnew doc("first");
        newversion(d);
        d->text = "second";
        printf("%s/%s", deref(vfirst(d))->text, d->text);
        """)
        assert out == "first/second"

    def test_sets_from_opp(self, interp):
        out = run(interp, """
        class bag { public: set<int> items; };
        bag *b;
        b = new bag();
        b->items << 3 << 1 << 3 << 2;
        int total = 0;
        for x in b->items total += x;
        printf("%d", total);
        """)
        assert out == "6"

    def test_pdelete_from_opp(self, interp, db):
        run(interp, """
        class item { public: int n; };
        create item;
        item *p;
        p = pnew item(1);
        pnew item(2);
        pdelete p;
        """)
        assert db.cluster("item").count() == 1

    def test_join_forall(self, interp):
        out = run(interp, """
        class emp { public: char* name; };
        class kid { public: char* parent; char* kname; };
        create emp;
        create kid;
        pnew emp("smith");
        pnew emp("ng");
        pnew kid("smith", "tom");
        pnew kid("smith", "ann");
        pnew kid("other", "zed");
        forall e in emp, forall c in kid suchthat (e->name == c->parent)
            by (c->kname)
            printf("%s->%s ", e->name, c->kname);
        """)
        assert out == "smith->ann smith->tom "

    def test_deep_forall_with_is(self, interp):
        out = run(interp, """
        class person { public: char* name; };
        class student : public person { public: int year; };
        create person;
        create student;
        pnew person("a");
        pnew student("b", 2);
        pnew student("c", 3);
        int total = 0; int studs = 0;
        forall p in person* {
            total++;
            if (p is student*) studs++;
        }
        printf("%d %d", total, studs);
        """)
        assert out == "3 2"


class TestInterop:
    def test_python_sees_opp_objects(self, interp, db):
        run(interp, """
        class gadget { public: char* name; int size; };
        create gadget;
        pnew gadget("widget", 42);
        """)
        from repro.core.objects import class_registry
        gadget_cls = class_registry()["gadget"]
        objs = list(db.cluster(gadget_cls))
        assert len(objs) == 1
        assert objs[0].name == "widget" and objs[0].size == 42

    def test_opp_sees_python_objects(self, interp, db):
        from repro.core import IntField, OdeObject, StringField

        class Tool(OdeObject):
            label = StringField(default="")
            weight = IntField(default=0)

        db.create(Tool)
        db.pnew(Tool, label="hammer", weight=3)
        out = run(interp, """
        forall t in Tool printf("%s:%d", t->label, t->weight);
        """)
        assert out == "hammer:3"


class TestLanguageExtensions:
    def test_do_while(self, interp):
        out = run(interp, """
        int i = 0;
        do { i++; } while (i < 5);
        printf("%d", i);
        int j = 100;
        do { j++; } while (false);
        printf(" %d", j);
        """)
        assert out == "5 101"

    def test_do_while_break(self, interp):
        out = run(interp, """
        int i = 0;
        do { i++; if (i == 3) break; } while (true);
        printf("%d", i);
        """)
        assert out == "3"

    def test_string_builtins(self, interp):
        out = run(interp, """
        printf("%s %s %s %d %g", toupper("abc"), tolower("XYZ"),
               substr("hello", 1, 3), atoi("42"), atof("2.5"));
        """)
        assert out == "ABC xyz ell 42 2.5"

    def test_min_max(self, interp):
        assert run(interp, 'printf("%d %d", min(3, 7), max(3, 7));') == "3 7"


class TestSuchthatCompilation:
    """O++ suchthat clauses compile to predicates that use indexes."""

    @pytest.fixture
    def stocked(self, interp, db):
        run(interp, """
        class widget { public: char* name; double price; int grade; };
        create widget;
        for (int i = 0; i < 60; i++)
            pnew widget("w", 1.0 * (i - (i/20)*20), i - (i/3)*3);
        """)
        from repro.core.objects import class_registry
        return db, class_registry()["widget"]

    def test_compiled_equality_uses_index(self, interp, stocked):
        db, widget = stocked
        db.create_index(widget, "grade", kind="hash")
        out = run(interp, """
        int n = 0;
        forall w in widget suchthat (w->grade == 1) n++;
        printf("%d", n);
        """)
        assert out == "20"

    def test_compiled_range_matches_interpreted(self, interp, stocked):
        db, widget = stocked
        db.create_index(widget, "price", kind="btree")
        out = run(interp, """
        int a = 0; int b = 0;
        forall w in widget suchthat (w->price >= 5.0 && w->price < 8.0) a++;
        forall w in widget suchthat (5.0 <= w->price && 8.0 > w->price) b++;
        printf("%d %d", a, b);
        """)
        assert out == "9 9"

    def test_uncompilable_clause_still_correct(self, interp, stocked):
        out = run(interp, """
        int n = 0;
        forall w in widget suchthat (w->price + w->grade > 18.0) n++;
        printf("%d", n);
        """)
        db, widget = stocked
        expected = sum(1 for w in db.cluster(widget)
                       if w.price + w.grade > 18.0)
        assert out == str(expected)

    def test_constant_side_from_variable(self, interp, stocked):
        out = run(interp, """
        double limit = 2.0;
        int n = 0;
        forall w in widget suchthat (w->price < limit) n++;
        printf("%d", n);
        """)
        assert out == "6"

    def test_mixed_clause_uses_index(self, interp, stocked):
        """Lowering is per conjunct: the one the interpreter keeps does
        not cost the other its index."""
        db, widget = stocked
        db.create_index(widget, "grade", kind="hash")
        clause = "(w->grade == 1 && w->price + 0.0 < 5.0)"
        plan = run(interp, "explain forall w in widget suchthat %s ;"
                   % clause)
        assert plan.startswith("index eq-lookup widget.grade == 1")
        assert "<opaque interpreted>" in plan
        pages = db.stats()["page_cache"]
        out = run(interp, """
        int n = 0;
        forall w in widget suchthat %s n++;
        printf("%%d", n);
        """ % clause)
        assert db.stats()["page_cache"] == pages    # no heap page walked
        expected = sum(1 for w in db.cluster(widget)
                       if w.grade == 1 and w.price < 5.0)
        assert 0 < expected < 20 and out == str(expected)

    def test_failing_constant_raises_on_first_row(self, interp, stocked):
        """A constant side that cannot be evaluated is not lowered (and
        not swallowed): the interpreter raises, with the line."""
        with pytest.raises(OppNameError, match="line 2.*nosuch"):
            run(interp, """
            forall w in widget suchthat (w->grade == nosuch) ;""")
        run(interp, """
        class hollow { public: int grade; };
        create hollow;
        forall h in hollow suchthat (h->grade == nosuch) ;
        """)

    def test_repeated_shape_is_one_generated_filter(self, interp, stocked):
        db, _ = stocked
        query = "forall w in widget suchthat (w->price > %s) ;"
        base = db.codegen_cache.misses
        run(interp, query % "2.0")
        assert db.codegen_cache.misses == base + 1
        hits = db.codegen_cache.hits
        run(interp, query % "7.0")
        assert (db.codegen_cache.misses, db.codegen_cache.hits) == (
            base + 1, hits + 1)


class TestAccessControl:
    """O++ enforces the class's access sections (paper: encapsulation)."""

    SOURCE = """
    class account {
        int secret;
      public:
        int shown;
        account(int a, int b) { secret = a; shown = b; }
        int reveal() { return secret; }
      private:
        int internal_helper() { return secret * 2; }
    };
    account *acc;
    acc = new account(42, 7);
    """

    def test_public_member_visible(self, interp):
        out = run(interp, self.SOURCE + 'printf("%d", acc->shown);')
        assert out == "7"

    def test_private_field_hidden(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, self.SOURCE + "acc->secret;")

    def test_private_field_unwritable(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, self.SOURCE + "acc->secret = 0;")

    def test_private_method_hidden(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, self.SOURCE + "acc->internal_helper();")

    def test_member_functions_see_private(self, interp):
        out = run(interp, self.SOURCE + 'printf("%d", acc->reveal());')
        assert out == "42"

    def test_default_class_access_is_private(self, interp):
        """Members before the first access label are private (C++ rule)."""
        with pytest.raises(OppRuntimeError):
            run(interp, """
            class c { int hidden; public: c(int h) { hidden = h; } };
            c *p;
            p = new c(1);
            p->hidden;
            """)

    def test_inherited_private_stays_private(self, interp):
        with pytest.raises(OppRuntimeError):
            run(interp, self.SOURCE + """
            class child : public account {
              public:
                int noop() { return 0; }
            };
            child *k;
            k = new child(1, 2);
            k->secret;
            """)

    @pytest.mark.parametrize("clause", [
        "suchthat (a->secret == 42)",           # lowered to a predicate
        "suchthat (a->secret + 0 == 42)",       # left to the interpreter
        "suchthat (a->shown == 7 && 42 == a->secret)",
        "by (a->secret)",
        "suchthat (a->shown == 7) by (a->secret + 0) desc",
    ])
    def test_private_member_hidden_from_forall_clauses(self, interp, clause):
        run(interp, self.SOURCE + "create account; pnew account(42, 7);")
        with pytest.raises(OppRuntimeError, match="'secret' is a private"):
            run(interp, "forall a in account %s ;" % clause)

    def test_member_function_may_query_private_members(self, interp):
        out = run(interp, """
        class vault {
            int secret;
          public:
            vault(int s) { secret = s; }
            int twins() {
                int n = 0;
                forall v in vault suchthat (v->secret == secret) n++;
                return n;
            }
        };
        create vault;
        vault *v0;
        v0 = pnew vault(3); pnew vault(3); pnew vault(4);
        printf("%d", v0->twins());
        """)
        assert out == "2"

    def test_python_classes_unrestricted(self, interp, db):
        """Only O++-declared access sections are enforced; Python classes
        follow Python conventions."""
        from repro.core import IntField, OdeObject

        class PyOpen(OdeObject):
            anything = IntField(default=5)

        db.create(PyOpen)
        db.pnew(PyOpen)
        out = run(interp, 'forall p in PyOpen printf("%d", p->anything);')
        assert out == "5"


class TestByDesc:
    def test_descending_order(self, interp):
        out = run(interp, """
        class score { public: char* who; int pts; };
        create score;
        pnew score("a", 10);
        pnew score("b", 30);
        pnew score("c", 20);
        forall s in score by (s->pts) desc
            printf("%s", s->who);
        """)
        assert out == "bca"

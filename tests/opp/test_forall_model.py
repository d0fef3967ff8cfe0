"""O++ ``forall`` statements against a brute-force model, and ``explain``
against what a statement executes.

Every ``forall`` statement is lowered by ``Interpreter._lower_forall`` to
one :class:`repro.query.Forall`; the property below draws statements of
every shape that lowering distinguishes — 1–3 sources over clusters, deep
extents and a set-valued field; ``suchthat`` clauses whose conjuncts the
optimizer reads, the interpreter keeps, or both; ``by`` / ``desc``;
``as of``; a body that ``pnew``s into the scanned cluster — and compares
the rows the body sees with a nested Python loop over the same objects.
Without ``by`` the comparison is of multisets: section 3.1 leaves the
order unspecified.
"""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Database
from repro.core.objects import class_registry
from repro.opp import Interpreter

SCHEMA = """
class fnode { public: int id; int k; int v; };
class fleaf : public fnode { public: int w; };
class fhold { public: set<fnode*> kids; };
create fnode; create fleaf; create fhold;
fhold *hold; hold = pnew fhold();
"""

#: v stops growing here: the fixpoint of the growth body.
GROW_TO = 4

small = st.integers(min_value=0, max_value=4)
OPS = {"==": lambda a, b: a == b, "!=": lambda a, b: a != b,
       "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
       ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


@st.composite
def worlds(draw):
    """Objects as dicts; ``kids`` the ids in the set-valued field; then
    what happens after the snapshot token is taken."""
    objs = [dict(id=i, cls=draw(st.sampled_from(["fnode", "fleaf"])),
                 k=draw(small), v=draw(small), w=draw(small))
            for i in range(draw(st.integers(min_value=0, max_value=9)))]
    ids = [o["id"] for o in objs]
    kids = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    updates = draw(st.dictionaries(st.sampled_from(ids), small,
                                   max_size=3)) if ids else {}
    loose = [i for i in ids if i not in kids]
    deleted = draw(st.lists(st.sampled_from(loose), unique=True,
                            max_size=2)) if loose else []
    added = [dict(id=100 + i, cls="fnode", k=draw(small), v=draw(small), w=0)
             for i in range(draw(st.integers(min_value=0, max_value=2)))]
    return objs, kids, updates, deleted, added


@st.composite
def conjuncts(draw, n_vars, leaf_vars):
    """``(text, check(row))`` of one ``suchthat`` conjunct."""
    def field(i):
        return draw(st.sampled_from(("k", "v", "w") if i in leaf_vars
                                    else ("k", "v")))
    i = draw(st.integers(min_value=0, max_value=n_vars - 1))
    j = draw(st.integers(min_value=0, max_value=n_vars - 1))
    f, g = field(i), field(j)
    op = draw(st.sampled_from(sorted(OPS)))
    c = draw(small)
    test = OPS[op]
    kind = draw(st.sampled_from(
        ["const", "const_flipped", "equi", "arith", "cross", "either"]))
    if kind == "const":                       # the optimizer reads these
        return ("x%d->%s %s %d" % (i, f, op, c),
                lambda row: test(row[i][f], c))
    if kind == "const_flipped":
        return ("%d %s x%d->%s" % (c, op, i, f),
                lambda row: test(c, row[i][f]))
    if kind == "equi":
        return ("x%d->%s == x%d->%s" % (i, f, j, g),
                lambda row: row[i][f] == row[j][g])
    if kind == "arith":                       # the interpreter keeps these
        return ("x%d->%s + x%d->%s %s %d" % (i, f, j, g, op, c + 2),
                lambda row: test(row[i][f] + row[j][g], c + 2))
    if kind == "cross":
        return ("x%d->%s %s x%d->%s" % (i, f, op, j, g),
                lambda row: test(row[i][f], row[j][g]))
    return ("(x%d->%s == %d || x%d->%s %s %d)" % (i, f, c, j, g, op, c),
            lambda row: row[i][f] == c or test(row[j][g], c))


@st.composite
def statements(draw):
    sources = draw(st.lists(st.sampled_from(
        ["fnode", "fnode*", "fleaf", "hold->kids"]), min_size=1, max_size=3))
    n = len(sources)
    leaf_vars = [i for i, s in enumerate(sources) if s == "fleaf"]
    clause = draw(st.lists(conjuncts(n, leaf_vars), max_size=3))
    by = None
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        by = draw(st.sampled_from([
            ("x%d->v" % i, lambda row: row[i]["v"]),
            ("x%d->k * 10 + x%d->v" % (i, j),
             lambda row: row[i]["k"] * 10 + row[j]["v"])]))
    desc = by is not None and draw(st.booleans())
    clustered = any(s != "hold->kids" for s in sources)
    as_of = clustered and draw(st.booleans())
    # Section 3.2 growth: one scanned cluster, read in the present (a
    # deep extent: test_growth_the_scan_does_not_visit).
    grow = (sources in (["fnode"], ["fleaf"]) and not as_of
            and draw(st.booleans()))
    index = None if grow else draw(st.sampled_from(
        [None, ("k", "hash"), ("v", "btree")]))
    return dict(sources=sources, clause=clause, by=by, desc=desc,
                as_of=as_of, grow=grow, index=index)


def setup_source(world):
    objs, kids, updates, deleted, added = world
    lines = [SCHEMA]
    for o in objs + added:
        lines.append("%s *o%d;" % (o["cls"], o["id"]))
    lines.append("transaction {")
    for o in objs:
        lines.append("o%(id)d = pnew %(cls)s(%(id)d, %(k)d, %(v)d);" % o)
        if o["cls"] == "fleaf":
            lines.append("o%(id)d->w = %(w)d;" % o)
    for i in kids:
        lines.append("hold->kids << o%d;" % i)
    lines.append("}\nint tok = snapshot_token();\ntransaction {")
    for i, v in sorted(updates.items()):
        lines.append("o%d->v = %d;" % (i, v))
    for i in deleted:
        lines.append("pdelete o%d;" % i)
    for o in added:
        lines.append("o%(id)d = pnew fnode(%(id)d, %(k)d, %(v)d);" % o)
    return "\n".join(lines + ["}"])


def statement_source(stmt):
    n = len(stmt["sources"])
    text = ", ".join("forall x%d in %s" % (i, s)
                     for i, s in enumerate(stmt["sources"]))
    if stmt["as_of"]:
        text += " as of (tok)"
    if stmt["clause"]:
        text += " suchthat (%s)" % " && ".join(t for t, _ in stmt["clause"])
    if stmt["by"]:
        text += " by (%s)%s" % (stmt["by"][0], " desc" if stmt["desc"] else "")
    body = 'printf("%s;", %s);' % (
        ",".join(["%d"] * n), ", ".join("x%d->id" % i for i in range(n)))
    if stmt["grow"]:
        body += (" if (x0->v < %d) pnew fnode(x0->id + 1000, x0->k, "
                 "x0->v + 1);" % GROW_TO)
    return text + " { " + body + " }"


def model_rows(world, stmt):
    """What the statement must visit: tuples of model objects."""
    objs, kids, updates, deleted, added = world
    past = {o["id"]: o for o in objs}
    now = {i: dict(o, v=updates.get(i, o["v"])) for i, o in past.items()
           if i not in deleted}
    now.update((o["id"], o) for o in added)
    extent = past if stmt["as_of"] else now

    def source(name):
        if name == "hold->kids":
            return [now[i] for i in kids]
        if name == "fnode*":
            return list(extent.values())
        return [o for o in extent.values() if o["cls"] == name]

    def keep(row):
        return all(check(row) for _, check in stmt["clause"])

    rows = [row for row in itertools.product(*map(source, stmt["sources"]))
            if keep(row)]
    if stmt["grow"]:
        # The body's inserts land in cluster fnode: a scan of it (or of
        # its deep extent) visits them, unless `by` made it a snapshot.
        visits = stmt["sources"][0] != "fleaf" and not stmt["by"]
        for (o,) in rows:               # grows while it is walked
            if o["v"] < GROW_TO:
                new = dict(id=o["id"] + 1000, cls="fnode", k=o["k"],
                           v=o["v"] + 1, w=0)
                if visits and keep((new,)):
                    rows.append((new,))
    return rows


def run_statement(tmp_path_factory, world, stmt):
    db = Database(str(tmp_path_factory.mktemp("forall") / "m.odb"))
    try:
        interp = Interpreter(db)
        interp.run(setup_source(world))
        if stmt["index"] is not None:
            field, kind = stmt["index"]
            db.create_index(class_registry()["fnode"], field, kind=kind)
        interp.output.clear()
        interp.run(statement_source(stmt))
        return [tuple(map(int, row.split(",")))
                for row in "".join(interp.output).split(";") if row]
    finally:
        db.close()


@given(world=worlds(), stmt=statements())
@settings(max_examples=150, deadline=None)
def test_forall_statement_matches_model(tmp_path_factory, world, stmt):
    # test_growth_the_scan_does_not_visit: not this property's subject
    assume(not (stmt["grow"] and world[3]))
    got = run_statement(tmp_path_factory, world, stmt)
    want = model_rows(world, stmt)
    ids = [tuple(o["id"] for o in row) for row in want]
    assert Counter(got) == Counter(ids), statement_source(stmt)
    if stmt["by"]:
        key = stmt["by"][1]
        by_id = {tuple(o["id"] for o in row): key(row) for row in want}
        keys = [by_id[row] for row in got]
        assert keys == sorted(keys, reverse=stmt["desc"])


@pytest.mark.xfail(strict=True, reason="core/storage, see ROADMAP: a page "
                   "scan resumes from its high-water slot and a deep "
                   "extent walks each cluster once")
@pytest.mark.parametrize("setup, source", [
    # the insert reuses a slot freed behind the scan cursor
    ("fgrow *gone; gone = pnew fgrow(9); pnew fgrow(0); pdelete gone;",
     "fgrow"),
    # the insert lands in a cluster of the hierarchy already walked
    ("pnew fgrown(0);", "fgrow*"),
])
def test_growth_the_scan_does_not_visit(db, setup, source):
    """Section 3.2 cases the property above found and now steers around."""
    interp = Interpreter(db)
    interp.run("""
    class fgrow { public: int v; };
    class fgrown : public fgrow { };
    create fgrow; create fgrown;
    %s
    forall x in %s { printf("%%d;", x->v); if (x->v < 2) pnew fgrow(x->v + 1); }
    """ % (setup, source))
    assert "".join(interp.output) == "0;1;2;"


# -- explain is the executed plan ---------------------------------------------

JOIN_SCHEMA = """
class ja { public: int k; int v; };
class jb { public: int k; int v; };
create ja; create jb;
transaction { for (int i = 0; i < 400; i++) { pnew ja(i, i); pnew jb(i, i); } }
int n = 0;
"""

SHAPES = [
    "forall x in ja, forall y in jb suchthat (x->k == y->k)",
    "forall x in ja, forall y in jb suchthat (x->k == y->k && x->v + y->v > 9)",
    "forall x in ja, forall y in jb suchthat (x->k + 0 == y->k && x->v < 3)",
    "forall x in ja suchthat (x->k == 7 && x->v + 0 == 7)",
    "forall x in ja suchthat (x->k < 9) by (x->v) desc",
    "forall x in ja as of (tok)",
]


def operators(span):
    return [span.op] + [op for child in span.children
                        for op in operators(child)]


def test_explain_analyze_names_the_executed_operators(db, monkeypatch):
    """The operators ``explain analyze`` reports for a statement are
    those of the ``Forall`` that produces the statement's rows."""
    interp = Interpreter(db)
    interp.run(JOIN_SCHEMA + "int tok = snapshot_token();")
    db.create_index(class_registry()["ja"], "k", kind="hash")
    lowered = []
    lower = Interpreter._lower_forall

    def traced(self, node, scope):
        lowered.append(lower(self, node, scope).trace())
        return lowered[-1]
    monkeypatch.setattr(Interpreter, "_lower_forall", traced)
    for shape in SHAPES:
        interp.output.clear()
        interp.run(shape + " n++;")
        interp.run("explain analyze " + shape + " ;")
        executed, explained = lowered[-2:]
        assert executed is not explained
        report = interp.output[-1].split("analyze:\n")[1].splitlines()
        ops = operators(executed.last_trace)
        assert len(report) == len(ops) > 1, shape
        for line, op in zip(report, ops):
            assert re.match(r" *%s( \[.*\])?: rows=" % re.escape(op),
                            line), (shape, line, op)
        assert (executed.last_trace.rows_out
                == explained.last_trace.rows_out), shape


def page_lookups(db, interp, source):
    """Heap pages a statement asks the scan page cache for."""
    def lookups():
        cache = db.stats()["page_cache"]
        return cache["hits"] + cache["misses"]
    before = lookups()
    interp.run(source)
    return lookups() - before


def test_equijoin_statement_is_a_hash_join(db):
    """400 x 400 on an equality: each side is read once, and hashed or
    probed once — page and operator row counts, not timings."""
    interp = Interpreter(db)
    interp.run(JOIN_SCHEMA)
    one_pass = (page_lookups(db, interp, "forall x in ja ;")
                + page_lookups(db, interp, "forall y in jb ;"))
    assert page_lookups(db, interp, SHAPES[0] + " n++;") == one_pass > 0
    interp.run('printf("%d", n);')
    assert interp.output[-1] == "400"
    interp.run("explain analyze " + SHAPES[0] + " ;")
    join = [line for line in interp.output[-1].splitlines()
            if line.strip().startswith("hash join")]
    assert len(join) == 1 and "rows=400 (in=800)" in join[0]


def test_mixed_clause_statement_probes_the_index(db):
    """An indexed conjunct beside one the interpreter keeps: no heap page
    is asked for, and the index hands the scan its one candidate."""
    interp = Interpreter(db)
    interp.run(JOIN_SCHEMA)
    db.create_index(class_registry()["ja"], "k", kind="hash")
    assert page_lookups(db, interp, SHAPES[3] + " n++;") == 0
    interp.run('printf("%d", n);')
    assert interp.output[-1] == "1"
    interp.run("explain analyze " + SHAPES[3] + " ;")
    scan = [line for line in interp.output[-1].splitlines()
            if line.strip().startswith("scan")]
    assert len(scan) == 1 and "(in=1)" in scan[0]

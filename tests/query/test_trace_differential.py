"""Differential: a traced run is the untraced run, observed.

``trace()`` / ``explain(analyze=True)`` attach spans to the one
``forall`` pipeline, so a traced query must return the same rows in the
same order as the untraced one — as lazily: a set that grows during the
loop has its new members visited either way — and a scan span's
``rows_in`` / ``rows_out`` must be the lengths of the chunks the plan
produced and the batch filter kept. Shapes: the five of
``test_index_overlay_model.py`` (hash equality, btree range, range +
``by`` + ``limit``, ``count()``, fused join) plus ``cluster*``,
``as_of``, a growing set or list source, ``limit(0)`` and ``by`` with
the sort elided; each with generated expressions and with
``.codegen(False)``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Database, IntField, OdeObject, OdeSet
from repro.query import A, V, forall
from repro.query.optimizer import INDEX_BATCH, IndexRange

N_KEYS = 5
R_MAX = 60


class TraceRow(OdeObject):
    k = IntField(default=0)      # hash-indexed
    r = IntField(default=0)      # btree-indexed
    note = IntField(default=0)   # never indexed


class TraceKid(TraceRow):
    age = IntField(default=0)


class TraceTag(OdeObject):
    k = IntField(default=0)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Rows, a derived extent, tags — and a snapshot token taken before
    a round of updates, deletes and inserts, so the as-of view differs
    from the present."""
    db = Database(str(tmp_path_factory.mktemp("trace_diff") / "t.odb"))
    for cls in (TraceRow, TraceKid, TraceTag):
        db.create(cls)
    db.create_index(TraceRow, "k", kind="hash")
    db.create_index(TraceRow, "r", kind="btree")
    with db.transaction():
        rows = [db.pnew(TraceRow, k=i % N_KEYS, r=(i * 7) % R_MAX, note=i % 3)
                for i in range(150)]
        for i in range(20):
            db.pnew(TraceKid, k=i % N_KEYS, r=i, note=i % 3, age=i)
        for i in range(12):
            db.pnew(TraceTag, k=i % (N_KEYS + 1))
    token = db.snapshot_token()
    with db.transaction():
        for row in rows[:30:3]:
            row.k = (row.k + 1) % N_KEYS
            row.r = (row.r + 11) % R_MAX
        for row in rows[40:50]:
            db.pdelete(row)
        for i in range(10):
            db.pnew(TraceRow, k=i % N_KEYS, r=i, note=2)
    yield db, token
    db.close()


def image(row):
    if isinstance(row, tuple):
        return tuple(obj.oid.serial for obj in row)
    return row.oid.serial


def both(make, codegen):
    """``(untraced rows, traced rows, traced query)`` of the same query."""
    plain = [image(row) for row in make().codegen(codegen)]
    traced_q = make().codegen(codegen).trace()
    traced = [image(row) for row in traced_q]
    return plain, traced, traced_q


def check_scan_span(q, rows, limited=False):
    """The scan span counted the plan's chunks and what the filter kept."""
    root = q.last_trace
    scan = root.children[0]
    assert scan.op.startswith("scan")
    plan = q._single_plan()
    elided = isinstance(plan, IndexRange) and bool(q._order)
    candidates = sum(len(chunk)
                     for chunk in plan.chunks(INDEX_BATCH, elided))
    assert root.rows_out == len(rows)
    assert root.rows_in == scan.rows_in
    if limited:
        assert len(rows) <= scan.rows_out <= scan.rows_in <= candidates
    else:
        assert (scan.rows_in, scan.rows_out) == (candidates, len(rows))


SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
keys = st.integers(min_value=0, max_value=N_KEYS - 1)
bounds = st.integers(min_value=0, max_value=R_MAX)
widths = st.integers(min_value=0, max_value=R_MAX)
notes = st.integers(min_value=0, max_value=2)
limits = st.integers(min_value=0, max_value=12)


class TestTracedEqualsUntraced:
    @given(k=keys, note=notes, residual=st.booleans(), codegen=st.booleans())
    @settings(**SETTINGS)
    def test_hash_equality(self, world, k, note, residual, codegen):
        db, _ = world
        pred = (A.k == k) & (A.note == note) if residual else (A.k == k)
        plain, traced, q = both(
            lambda: forall(db.cluster(TraceRow)).suchthat(pred), codegen)
        assert traced == plain
        check_scan_span(q, plain)

    @given(lo=bounds, width=widths, note=notes, codegen=st.booleans())
    @settings(**SETTINGS)
    def test_btree_range(self, world, lo, width, note, codegen):
        db, _ = world
        pred = (A.r >= lo) & (A.r < lo + width) & (A.note != note)
        plain, traced, q = both(
            lambda: forall(db.cluster(TraceRow)).suchthat(pred), codegen)
        assert traced == plain
        check_scan_span(q, plain)

    @given(lo=bounds, width=widths, n=st.none() | limits,
           codegen=st.booleans())
    @settings(**SETTINGS)
    def test_range_by_elided_sort_and_limit(self, world, lo, width, n,
                                            codegen):
        db, _ = world

        def make():
            q = forall(db.cluster(TraceRow)).suchthat(
                (A.r >= lo) & (A.r < lo + width)).by(A.r)
            return q if n is None else q.limit(n)
        plain, traced, q = both(make, codegen)
        assert traced == plain
        if isinstance(q._single_plan(), IndexRange):
            assert q._sort_elided()
            assert all(c.op != "sort" for c in q.last_trace.children)
            check_scan_span(q, plain, limited=n is not None)

    @given(k=keys, desc=st.booleans(), n=st.none() | limits,
           codegen=st.booleans())
    @settings(**SETTINGS)
    def test_sorted_and_limited(self, world, k, desc, n, codegen):
        db, _ = world

        def make():
            q = forall(db.cluster(TraceRow)).suchthat(A.k != k).by(
                A.note, desc=desc)
            return q if n is None else q.limit(n)
        plain, traced, q = both(make, codegen)
        assert traced == plain
        ops = [c.op for c in q.last_trace.children]
        assert ops == ["scan", "sort"] + (["limit"] if n is not None else [])

    @given(k=keys, codegen=st.booleans())
    @settings(**SETTINGS)
    def test_limit_zero_pulls_nothing(self, world, k, codegen):
        db, _ = world
        plain, traced, q = both(
            lambda: forall(db.cluster(TraceRow)).suchthat(
                A.note == k % 3).limit(0), codegen)
        assert traced == plain == []
        assert q.last_trace.children[0].rows_in == 0

    @given(k=keys, lo=bounds, codegen=st.booleans())
    @settings(**SETTINGS)
    def test_count(self, world, k, lo, codegen):
        db, _ = world
        for pred in (A.k == k, (A.k == k) & (A.note > 0), A.r >= lo,
                     A.note == k % 3):
            def make():
                return forall(db.cluster(TraceRow)).suchthat(
                    pred).codegen(codegen)
            q = make().trace()
            assert q.count() == make().count() == len(make().to_list())
            assert q.last_trace.rows_out == make().count()
            assert q.last_trace.children[0].rows_out == make().count()

    @given(hi=bounds, codegen=st.booleans())
    @settings(**SETTINGS)
    def test_fused_join(self, world, hi, codegen):
        db, _ = world
        plain, traced, q = both(
            lambda: forall(db.cluster(TraceRow), db.cluster(TraceTag))
            .suchthat((V[0].k == V[1].k) & (V[0].r < hi)), codegen)
        assert traced == plain
        root = q.last_trace
        scans = [c for c in root.children if c.op.startswith("scan")]
        joins = [c for c in root.children if "join" in c.op]
        assert len(scans) == 2 and len(joins) == 1
        assert joins[0].rows_in == scans[0].rows_out + scans[1].rows_out
        assert joins[0].rows_out == root.rows_out == len(plain)

    @given(k=keys, note=notes, codegen=st.booleans())
    @settings(**SETTINGS)
    def test_deep_view(self, world, k, note, codegen):
        db, _ = world
        plain, traced, q = both(
            lambda: forall(db.cluster(TraceRow).deep()).suchthat(
                (A.k == k) & (A.note >= note)), codegen)
        assert traced == plain
        shallow = forall(db.cluster(TraceRow)).suchthat(
            (A.k == k) & (A.note >= note)).count()
        kids = forall(db.cluster(TraceKid)).suchthat(
            (A.k == k) & (A.note >= note)).count()
        assert len(plain) == shallow + kids
        check_scan_span(q, plain)

    @given(k=keys, deep=st.booleans(), codegen=st.booleans())
    @settings(**SETTINGS)
    def test_as_of(self, world, k, deep, codegen):
        db, token = world
        source = db.cluster(TraceRow).deep() if deep else db.cluster(TraceRow)

        def keyed(rows):
            return [(row.oid.cluster, row.oid.serial, row.k, row.r)
                    for row in rows]
        make = lambda: forall(source).as_of(token).suchthat(  # noqa: E731
            A.k == k).codegen(codegen)
        plain = keyed(make())
        traced_q = make().trace()
        assert keyed(traced_q) == plain
        assert plain != keyed(forall(source).suchthat(A.k == k))
        check_scan_span(traced_q, plain)

    @given(seed=st.lists(st.integers(min_value=0, max_value=40),
                         min_size=1, max_size=6, unique=True),
           step=st.integers(min_value=1, max_value=9),
           codegen=st.booleans())
    @settings(**SETTINGS)
    def test_growing_set_source(self, seed, step, codegen):
        """Section 3.2 under trace: members inserted by the loop body are
        visited, in the same order as untraced."""
        def run(trace):
            working = OdeSet(seed)
            q = forall(working).suchthat(lambda x: x % 2 == 0).codegen(
                codegen).trace(trace)
            visited = []
            for x in q:
                visited.append(x)
                if x < 60:
                    working.insert(x + step)
                    working.insert(x + 2 * step)
            return visited, len(working), q

        plain, size, _ = run(False)
        traced, traced_size, q = run(True)
        assert traced == plain and traced_size == size
        if 0 in seed:  # 0 -> 2*step -> 4*step ... until past 60
            assert set(range(0, 61, 2 * step)) <= set(plain)
        scan = q.last_trace.children[0]
        assert (scan.rows_in, scan.rows_out) == (size, len(plain))

    @given(n=st.integers(min_value=0, max_value=3 * INDEX_BATCH),
           step=st.integers(min_value=1, max_value=9),
           codegen=st.booleans())
    @settings(**SETTINGS)
    def test_growing_list_source(self, n, step, codegen):
        """A list is read in slices; what the loop body appends is
        visited, traced or not, and the span counts every element."""
        def run(trace):
            working = list(range(n))
            q = forall(working).suchthat(lambda x: x % 2 == 0).codegen(
                codegen).trace(trace)
            visited = []
            for x in q:
                visited.append(x)
                if x < n:
                    working.append(x + n + step)
            return visited, working, q

        plain, working, _ = run(False)
        traced, traced_working, q = run(True)
        assert traced == plain and traced_working == working
        assert plain == [x for x in working if x % 2 == 0]
        assert len(working) == n + (n + 1) // 2
        scan = q.last_trace.children[0]
        assert (scan.rows_in, scan.rows_out) == (len(working), len(plain))


"""Differential harness: generated expressions and the predicates' own
closures must agree.

Every query here runs twice — once with generated filters and join
lambdas (the default) and once with ``q.codegen(False)`` evaluating the
``Predicate.compiled()`` closures in the same pipeline — and the two row
sets must be identical.  Randomized predicates, multi-key joins,
aggregates, ordering, limits and fixpoint (growth-during-iteration)
shapes are covered, plus behavior under a concurrent writer thread and a
mid-query abort. A bug in the generator raises: nothing falls back.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Database, FloatField, IntField, OdeObject, StringField
from repro.errors import DanglingReferenceError
from repro.query import A, V, forall
from repro.query.predicates import And, Compare, Not, Or

class DiffRow(OdeObject):
    alpha = IntField(default=0)
    beta = FloatField(default=0.0)
    gamma = StringField(default="")


class DiffLink(OdeObject):
    src = IntField(default=0)
    dst = IntField(default=0)
    weight = IntField(default=0)


FIELDS = {
    "alpha": st.integers(min_value=0, max_value=9),
    "beta": st.floats(min_value=0.0, max_value=5.0).map(
        lambda x: round(x * 2) / 2.0),
    "gamma": st.sampled_from(["red", "green", "blue"]),
}

OPS = ["==", "!=", "<", "<=", ">", ">="]


def comparison_for(field):
    return st.tuples(st.sampled_from(OPS), FIELDS[field]).map(
        lambda ov: Compare(field, ov[0], ov[1]))


predicates = st.recursive(
    st.sampled_from(list(FIELDS)).flatmap(comparison_for),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: And(*ab)),
        st.tuples(children, children).map(lambda ab: Or(*ab)),
        children.map(Not),
    ),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("codegen_diff") / "d.odb"
    db = Database(str(path))
    db.create(DiffRow)
    db.create(DiffLink)
    with db.transaction():
        for i in range(120):
            db.pnew(DiffRow, alpha=i % 10, beta=(i % 11) / 2.0,
                    gamma=["red", "green", "blue"][i % 3])
        for i in range(60):
            db.pnew(DiffLink, src=i % 10, dst=(i * 3) % 10, weight=i % 7)
    db.create_index(DiffRow, "alpha", kind="hash")
    db.create_index(DiffRow, "beta", kind="btree")
    yield db
    db.close()


def serials(rows):
    return [r.oid.serial for r in rows]


def pair_serials(rows):
    return [tuple(o.oid.serial for o in row) for row in rows]


class TestFilters:
    @given(pred=predicates)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_filters_identical(self, dataset, pred):
        handle = dataset.cluster(DiffRow)
        fast = sorted(serials(forall(handle).suchthat(pred)))
        slow = sorted(serials(forall(handle).suchthat(pred).codegen(False)))
        assert fast == slow

    @given(pred=predicates)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_count_identical(self, dataset, pred):
        handle = dataset.cluster(DiffRow)
        assert (forall(handle).suchthat(pred).count()
                == forall(handle).suchthat(pred).codegen(False).count())

    @given(pred=predicates, field=st.sampled_from(list(FIELDS)),
           desc=st.booleans(), n=st.integers(min_value=0, max_value=15))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ordered_limit_identical(self, dataset, pred, field, desc, n):
        handle = dataset.cluster(DiffRow)

        def run(q):
            return [(getattr(r, field), r.oid.serial) for r in q]

        key = lambda r: (getattr(r, field), r.oid.serial)  # noqa: E731
        fast = run(forall(handle).suchthat(pred).by(key, desc=desc).limit(n))
        slow = run(forall(handle).suchthat(pred).by(key, desc=desc)
                   .limit(n).codegen(False))
        assert fast == slow


class TestJoins:
    @given(op=st.sampled_from(OPS), wmin=st.integers(min_value=0,
                                                     max_value=6))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_two_way_join_identical(self, dataset, op, wmin):
        rows = dataset.cluster(DiffRow)
        links = dataset.cluster(DiffLink)
        pred = (V[0].alpha._compare(op, V[1].src)
                & (V[1].weight >= wmin))
        fast = sorted(pair_serials(forall(rows, links).suchthat(pred)))
        slow = sorted(pair_serials(
            forall(rows, links).suchthat(pred).codegen(False)))
        assert fast == slow

    @given(wmin=st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_multi_key_hash_join_identical(self, dataset, wmin):
        links = dataset.cluster(DiffLink)
        q = (forall(links, links)
             .join_on(lambda a: (a.src, a.weight),
                      lambda b: (b.dst, b.weight))
             .suchthat(lambda a, b: a.weight >= wmin))
        fast = sorted(pair_serials(q))
        slow = sorted(pair_serials(q.codegen(False)))
        assert fast == slow

    def test_three_way_join_identical(self, dataset):
        links = dataset.cluster(DiffLink)
        pred = (V[0].dst == V[1].src) & (V[1].dst == V[2].src)
        fast = sorted(tuple(o.oid.serial for o in row)
                      for row in forall(links, links, links).suchthat(pred))
        slow = sorted(tuple(o.oid.serial for o in row)
                      for row in forall(links, links, links)
                      .suchthat(pred).codegen(False))
        assert fast == slow
        assert len(fast) > 0


class TestAggregates:
    @given(pred=predicates)
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sum_and_count_identical(self, dataset, pred):
        handle = dataset.cluster(DiffRow)
        fast_rows = forall(handle).suchthat(pred).to_list()
        slow_rows = forall(handle).suchthat(pred).codegen(False).to_list()
        assert sum(r.alpha for r in fast_rows) \
            == sum(r.alpha for r in slow_rows)
        assert len(fast_rows) == len(slow_rows)


class TestFixpointGrowth:
    """Section 3.2: rows inserted mid-loop are visited (both paths)."""

    def _grow(self, db, q):
        seen = 0
        added = 0
        for obj in q:
            seen += 1
            if obj.alpha == 0 and added < 5:
                added += 1
                db.pnew(GrowRow, alpha=7)
        return seen

    def test_growth_during_scan_identical(self, tmp_path):
        results = {}
        for mode, enabled in (("fast", True), ("slow", False)):
            db = Database(str(tmp_path / ("g_%s.odb" % mode)))
            db.create(GrowRow)
            with db.transaction():
                for i in range(40):
                    db.pnew(GrowRow, alpha=i % 5)
                q = forall(db.cluster(GrowRow)).suchthat(
                    Compare("alpha", ">=", 0))
                if not enabled:
                    q = q.codegen(False)
                results[mode] = self._grow(db, q)
            db.close()
        assert results["fast"] == results["slow"]
        assert results["fast"] > 40  # the inserts were visited


class GrowRow(OdeObject):
    alpha = IntField(default=0)


class SnapRow(OdeObject):
    alpha = IntField(default=0)
    rank = IntField(default=0)


class TestUnderWriter:
    """Compiled scans take the same scan locks as interpreted ones."""

    def _run_with_writer(self, db, enabled):
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                try:
                    with db.transaction():
                        db.pnew(GrowRow, alpha=100 + i)
                    i += 1
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            counts = []
            for _ in range(15):
                q = forall(db.cluster(GrowRow)).suchthat(
                    Compare("alpha", "<", 100))
                if not enabled:
                    q = q.codegen(False)
                try:
                    counts.append(q.count())
                except DanglingReferenceError:
                    # Pre-existing engine race (a scanned head record
                    # whose state lands mid-commit) — hit identically by
                    # the interpreted path; not a codegen difference.
                    continue
        finally:
            stop.set()
            thread.join()
        assert not errors
        return counts

    def test_consistent_under_concurrent_writer(self, tmp_path):
        for mode, enabled in (("fast", True), ("slow", False)):
            db = Database(str(tmp_path / ("w_%s.odb" % mode)))
            db.create(GrowRow)
            with db.transaction():
                for i in range(50):
                    db.pnew(GrowRow, alpha=i % 5)
            counts = self._run_with_writer(db, enabled)
            # the filter excludes everything the writer adds, so every
            # snapshot the query takes must see exactly the seed rows
            assert len(counts) >= 10
            assert counts == [50] * len(counts)
            db.close()


class TestMidQueryAbort:
    """Aborting the surrounding transaction mid-iteration behaves the
    same whether the pipeline is compiled or interpreted."""

    def _iterate_then_abort(self, db, enabled):
        rows_before_abort = 0
        outcome = None
        try:
            with db.transaction():
                db.pnew(GrowRow, alpha=999)
                q = forall(db.cluster(GrowRow)).suchthat(
                    Compare("alpha", ">=", 0))
                if not enabled:
                    q = q.codegen(False)
                for _ in q:
                    rows_before_abort += 1
                    if rows_before_abort == 10:
                        raise RuntimeError("abort now")
        except RuntimeError as exc:
            outcome = str(exc)
        # the transaction rolled back: the uncommitted row is gone
        count = forall(db.cluster(GrowRow)).count()
        return rows_before_abort, outcome, count

    def test_abort_identical(self, tmp_path):
        results = {}
        for mode, enabled in (("fast", True), ("slow", False)):
            db = Database(str(tmp_path / ("a_%s.odb" % mode)))
            db.create(GrowRow)
            with db.transaction():
                for i in range(30):
                    db.pnew(GrowRow, alpha=i)
            results[mode] = self._iterate_then_abort(db, enabled)
            db.close()
        assert results["fast"] == results["slow"]
        assert results["fast"][1] == "abort now"
        assert results["fast"][2] == 30


class TestSnapshotDifferential:
    """ISSUE 7 rounds: MVCC snapshot reads must be indistinguishable
    from S-lock (2PL) reads on a quiesced database, and stably
    repeatable under a concurrent writer — identical on the compiled
    and interpreted paths."""

    def _seed(self, db, n=60):
        db.create(GrowRow)
        with db.transaction():
            for i in range(n):
                db.pnew(GrowRow, alpha=i % 7)

    @staticmethod
    def _join(threads):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "threads hung"

    def test_quiesced_snapshot_equals_slock_reads(self, tmp_path):
        """With no concurrent writer, every (mode, path) combination
        returns byte-identical row sets for the same predicate."""
        rowsets = {}
        for mode in ("mvcc", "2pl"):
            db = Database(str(tmp_path / ("q_%s.odb" % mode)))
            db._mvcc_on = mode == "mvcc"
            self._seed(db)
            for path in ("fast", "slow"):
                q = forall(db.cluster(GrowRow)).suchthat(
                    Compare("alpha", ">=", 3))
                if path == "slow":
                    q = q.codegen(False)
                with db.transaction():
                    rowsets[(mode, path)] = sorted(serials(q))
            db.close()
        base = rowsets[("mvcc", "fast")]
        assert len(base) > 0
        assert all(rows == base for rows in rowsets.values()), rowsets

    def test_repeatable_read_under_writer_both_paths(self, tmp_path):
        """Phased: a reader transaction counts matching rows, a writer
        commits an update + insert, the reader counts again — both
        counts (compiled and interpreted) must repeat the snapshot;
        a fresh transaction then sees the writer's result."""
        db = Database(str(tmp_path / "rr.odb"))
        self._seed(db)
        in_txn = threading.Event()
        committed = threading.Event()
        results = {}
        errors = []

        def counts():
            base = lambda: forall(db.cluster(GrowRow)).suchthat(  # noqa: E731
                Compare("alpha", "==", 3))
            return (base().count(), base().codegen(False).count())

        def writer():
            try:
                assert in_txn.wait(timeout=30)
                with db.transaction():
                    for obj in forall(db.cluster(GrowRow)).suchthat(
                            Compare("alpha", "==", 3)):
                        obj.alpha = 100
                    db.pnew(GrowRow, alpha=3)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                committed.set()

        def reader():
            try:
                with db.transaction():
                    results["before"] = counts()
                    in_txn.set()
                    assert committed.wait(timeout=30)
                    results["repeat"] = counts()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        self._join([threading.Thread(target=reader),
                    threading.Thread(target=writer)])
        assert not errors
        # 60 rows, alpha = i % 7 == 3 -> 9 seed matches.
        assert results["before"] == (9, 9)
        assert results["repeat"] == (9, 9)   # snapshot repeated, both paths
        with db.transaction():
            assert counts() == (1, 1)        # writer's world afterwards
        db.close()

    def test_index_plan_snapshot_correct_under_writer(self, tmp_path):
        """Index probes inside a reader transaction must not leak the
        writer's index entries — pending first, then committed past the
        snapshot — and must not walk the extent to avoid them: both paths
        repeat the snapshot's rows with ``scan.records_peeked`` unmoved.
        The writer inserts a match, moves one row's key out of the probed
        value and another's into it, deletes a match, and reshuffles the
        range key a ``by`` reader relies on for its elided sort."""
        db = Database(str(tmp_path / "idx.odb"))
        db.create(SnapRow)
        db.create_index(SnapRow, "alpha", kind="hash")
        db.create_index(SnapRow, "rank", kind="btree")
        with db.transaction():
            for i in range(40):
                db.pnew(SnapRow, alpha=i % 5, rank=i)
        in_txn, pending, resume, committed = (threading.Event()
                                              for _ in range(4))
        results = {}
        errors = []

        def both(make):
            return (make(), make(codegen=False))

        def eq_rows(codegen=True):
            q = forall(db.cluster(SnapRow)).suchthat(
                Compare("alpha", "==", 2)).codegen(codegen)
            return (q.count(), sorted(r.rank for r in q))

        def range_rows(codegen=True):
            q = forall(db.cluster(SnapRow)).suchthat(
                And(Compare("rank", ">=", 10), Compare("rank", "<", 20))
            ).by(A.rank).codegen(codegen)
            return ([r.rank for r in q], [r.rank for r in q.limit(3)])

        def peeked():
            return db.stats()["scan"]["records_peeked"]

        def by_rank(rank):
            return forall(db.cluster(SnapRow)).suchthat(
                Compare("rank", "==", rank)).first()

        def writer():
            try:
                assert in_txn.wait(timeout=30)
                with db.transaction():
                    db.pnew(SnapRow, alpha=2, rank=15)   # new match
                    by_rank(2).alpha = 99                # key out
                    by_rank(3).alpha = 2                 # key in
                    db.pdelete(by_rank(7))               # match deleted
                    by_rank(12).rank = 500               # out of the range
                    by_rank(30).rank = 11                # into the range
                    by_rank(19).rank = 10                # reordered inside
                    assert by_rank(500).alpha == 2       # flushed
                    pending.set()
                    assert resume.wait(timeout=30)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                pending.set()
                committed.set()

        def reader():
            try:
                with db.transaction():
                    results["before"] = (both(eq_rows), both(range_rows))
                    in_txn.set()
                    assert pending.wait(timeout=30)
                    before = peeked()
                    results["pending"] = (both(eq_rows), both(range_rows))
                    resume.set()
                    assert committed.wait(timeout=30)
                    results["committed"] = (both(eq_rows),
                                            both(range_rows))
                    results["peeked"] = peeked() - before
                    text = forall(db.cluster(SnapRow)).suchthat(
                        Compare("alpha", "==", 2)).explain(analyze=True)
                    results["explain"] = text
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                in_txn.set()
                resume.set()

        self._join([threading.Thread(target=reader),
                    threading.Thread(target=writer)])
        assert not errors
        eq = (8, [2, 7, 12, 17, 22, 27, 32, 37])
        rng = (list(range(10, 20)), [10, 11, 12])
        for phase in ("before", "pending", "committed"):
            assert results[phase] == ((eq, eq), (rng, rng)), phase
        assert results["peeked"] == 0
        # 6 rows written + 1 created; the three that matched at the
        # snapshot (ranks 2, 7, 12) are served from their images.
        assert "overlay: 7 dirty, 3 resolved" in results["explain"]
        with db.transaction():                # the writer's world afterwards
            eq = (8, [3, 15, 17, 22, 27, 32, 37, 500])
            rng = ([10, 10, 11, 11, 13, 14, 15, 15, 16, 17, 18],
                   [10, 10, 11])
            assert (both(eq_rows), both(range_rows)) == ((eq, eq),
                                                         (rng, rng))
        db.close()


class TestDisableSwitches:
    """Disabling codegen at either level selects the closures."""

    def test_db_and_query_switch(self, tmp_path):
        db = Database(str(tmp_path / "flag.odb"))
        db.create(GrowRow)
        with db.transaction():
            for i in range(10):
                db.pnew(GrowRow, alpha=i)
        q = forall(db.cluster(GrowRow)).suchthat(Compare("alpha", ">", 2))
        db.codegen_enabled = False
        before = db.codegen_cache.stats()
        assert "execution: interpreted" in q.explain()
        assert len(q.to_list()) == 7
        assert db.codegen_cache.stats() == before  # never consulted
        db.codegen_enabled = True
        assert "execution: compiled" in q.explain()
        assert len(q.to_list()) == 7
        before = db.codegen_cache.stats()
        assert len(q.codegen(False).to_list()) == 7
        assert "execution: interpreted" in q.explain()
        assert db.codegen_cache.stats() == before
        db.close()

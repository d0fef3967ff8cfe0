"""Tests for the cluster statistics driving the cost-based optimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Database, FloatField, IntField, OdeObject, StringField
from repro.query import A, forall
from repro.query.stats import ClusterStats, FieldStats


class StatsGadget(OdeObject):
    name = StringField(default="")
    price = FloatField(default=0.0)
    grade = IntField(default=0)


@pytest.fixture
def gadget_db(db):
    db.create(StatsGadget)
    db.create_index(StatsGadget, "grade", kind="btree")
    for i in range(60):
        db.pnew(StatsGadget, name="g%d" % i, price=float(i), grade=i % 6)
    return db


class TestFieldStats:
    def test_exact_counts_and_bounds(self):
        fs = FieldStats(counts={})
        for v in [3, 1, 4, 1, 5]:
            fs.record(v, +1)
        assert fs.n_distinct == 4
        assert fs.min == 1 and fs.max == 5

    def test_delete_shrinks_distinct_and_bounds(self):
        fs = FieldStats(counts={})
        for v in [1, 2, 3]:
            fs.record(v, +1)
        fs.record(3, -1)
        assert fs.n_distinct == 2
        assert fs.max == 2

    def test_unhashable_degrades_gracefully(self):
        fs = FieldStats(counts={})
        fs.record([1, 2], +1)
        assert fs.counts is None  # degraded to summary precision

    def test_summary_never_shrinks(self):
        fs = FieldStats(n_distinct=5, lo=0, hi=10)
        fs.record(10, -1)
        assert fs.n_distinct == 5  # deletes invisible without counts
        fs.record(20, +1)
        assert fs.max == 20


class TestLazyBounds:
    """A delete of the current minimum or maximum marks the bounds stale;
    the next read recomputes them once."""

    @given(st.lists(st.tuples(st.booleans(),
                              st.one_of(st.none(),
                                        st.integers(-5, 5))),
                    max_size=60),
           st.lists(st.integers(0, 60), max_size=8))
    @settings(max_examples=300)
    def test_bounds_read_equal_the_brute_force_min_and_max(self, ops,
                                                           reads):
        fs = FieldStats(counts={})
        bag = []
        for step, (insert, value) in enumerate(ops):
            if insert or value not in bag:
                fs.record(value, +1)
                bag.append(value)
            else:
                fs.record(value, -1)
                bag.remove(value)
            if step in reads:
                present = [v for v in bag if v is not None]
                assert (fs.min, fs.max) == (
                    (min(present), max(present)) if present
                    else (None, None))
        present = [v for v in bag if v is not None]
        assert (fs.min, fs.max) == ((min(present), max(present))
                                    if present else (None, None))
        assert fs.n_distinct == len(set(bag))

    def test_a_sliding_window_recomputes_once_per_read(self):
        window = 500
        fs = FieldStats(counts={})
        for v in range(window):
            fs.record(v, +1)
        # 1 000 turnovers: the new maximum comes in, the minimum goes
        for v in range(window, window + 1000):
            fs.record(v, +1)
            fs.record(v - window, -1)
        assert fs.refreshes == 0
        assert (fs.min, fs.max) == (1000, 1499)
        assert fs.refreshes == 1
        assert (fs.min, fs.max) == (1000, 1499)     # not stale again
        assert fs.refreshes == 1
        reads = 0
        for v in range(window + 1000, window + 2000):
            fs.record(v, +1)
            fs.record(v - window, -1)
            if v % 10 == 0:
                assert fs.min == v - window + 1
                reads += 1
        assert fs.refreshes <= 1 + reads
        assert fs.max == window + 1999


class TestIncrementalMaintenance:
    def test_counts_track_pnew_and_pdelete(self, gadget_db):
        stats = gadget_db.cluster_stats.get("StatsGadget")
        assert stats.count == 60
        assert stats.exact
        victim = forall(gadget_db.cluster(StatsGadget)).first()
        gadget_db.pdelete(victim)
        assert gadget_db.cluster_stats.get("StatsGadget").count == 59

    def test_field_distincts_maintained(self, gadget_db):
        stats = gadget_db.cluster_stats.get("StatsGadget")
        fs = stats.field("grade")
        assert fs.n_distinct == 6
        assert fs.min == 0 and fs.max == 5
        gadget_db.pnew(StatsGadget, name="x", grade=99)
        assert stats.field("grade").n_distinct == 7
        assert stats.field("grade").max == 99

    def test_update_moves_value(self, gadget_db):
        obj = forall(gadget_db.cluster(StatsGadget)).suchthat(
            A.grade == 0).first()
        with gadget_db.transaction():
            obj.grade = 42
        fs = gadget_db.cluster_stats.get("StatsGadget").field("grade")
        assert fs.max == 42

    def test_count_fast_path_matches_scan(self, gadget_db):
        handle = gadget_db.cluster(StatsGadget)
        scanned = sum(1 for _ in handle)
        assert handle.count() == scanned == 60

    def test_abort_invalidates(self, gadget_db):
        try:
            with gadget_db.transaction():
                gadget_db.pnew(StatsGadget, name="doomed", grade=3)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # After the abort statistics are reloaded lazily; the rolled-back
        # insert must not be counted.
        assert gadget_db.cluster(StatsGadget).count() == 60


class TestPersistence:
    def test_summary_survives_reopen(self, db_path):
        db = Database(db_path)
        db.create(StatsGadget)
        db.create_index(StatsGadget, "grade", kind="btree")
        for i in range(40):
            db.pnew(StatsGadget, name="g%d" % i, grade=i % 4)
        db.close()

        db2 = Database(db_path)
        stats = db2.cluster_stats.get("StatsGadget")
        assert stats is not None
        assert stats.count == 40
        assert not stats.exact  # summary precision after reopen
        assert stats.field("grade").n_distinct == 4
        db2.close()

    def test_analyze_restores_exact(self, db_path):
        db = Database(db_path)
        db.create(StatsGadget)
        db.create_index(StatsGadget, "grade", kind="btree")
        for i in range(30):
            db.pnew(StatsGadget, name="g%d" % i, grade=i % 3)
        db.close()

        db2 = Database(db_path)
        snapshot = db2.analyze(StatsGadget)
        assert snapshot["StatsGadget"]["precision"] == "exact"
        stats = db2.cluster_stats.get("StatsGadget")
        assert stats.exact
        assert stats.field("grade").counts == {0: 10, 1: 10, 2: 10}
        db2.close()

    def test_db_stats_shape(self, gadget_db):
        stats = gadget_db.stats()
        assert {"buffer_pool", "wal", "plan_cache", "clusters",
                "locks", "pages"} <= set(stats)
        assert stats["wal"]["durability"] == "full"
        assert stats["clusters"]["StatsGadget"]["objects"] == 60

    def test_cluster_stats_state_roundtrip(self):
        stats = ClusterStats("X", exact=True)
        fs = stats.track_field("f")
        for v in [1, 1, 2]:
            fs.record(v, +1)
        stats.count = 3
        restored = ClusterStats.from_state("X", stats.to_state())
        assert restored.count == 3
        assert restored.field("f").n_distinct == 2
        assert not restored.exact  # counts are not persisted

"""Tests for clusters: type extents and hierarchy iteration (2.5, 3.1.1)."""

import pytest

from repro.core import (AnyField, Database, FloatField, IntField, OdeObject,
                        StringField)


class UniPerson(OdeObject):
    name = StringField(default="")
    base = FloatField(default=10.0)

    def income(self):
        return self.base


class UniStudent(UniPerson):
    stipend = FloatField(default=5.0)

    def income(self):
        return self.base + self.stipend


class UniFaculty(UniPerson):
    salary = FloatField(default=50.0)

    def income(self):
        return self.base + self.salary


class UniTA(UniStudent):
    """Deeper level: UniTA derives from UniStudent derives from UniPerson."""
    hours = IntField(default=0)


class UniBlob(OdeObject):
    blob = AnyField(default=None)


@pytest.fixture
def uni(db):
    db.create(UniPerson)
    db.create(UniStudent)
    db.create(UniFaculty)
    db.create(UniTA)
    for i in range(6):
        db.pnew(UniPerson, name="p%d" % i)
    for i in range(4):
        db.pnew(UniStudent, name="s%d" % i)
    for i in range(3):
        db.pnew(UniFaculty, name="f%d" % i)
    for i in range(2):
        db.pnew(UniTA, name="t%d" % i)
    return db


class TestShallowIteration:
    def test_exact_extent_only(self, uni):
        names = sorted(p.name for p in uni.cluster(UniPerson))
        assert names == ["p0", "p1", "p2", "p3", "p4", "p5"]

    def test_counts(self, uni):
        assert uni.cluster(UniPerson).count() == 6
        assert uni.cluster(UniStudent).count() == 4
        assert uni.cluster(UniTA).count() == 2

    def test_iteration_yields_live_objects(self, uni):
        for p in uni.cluster(UniPerson):
            assert p.is_persistent and isinstance(p, UniPerson)

    def test_empty_cluster(self, db):
        db.create(UniPerson)
        assert list(db.cluster(UniPerson)) == []

    def test_nonexistent_cluster_iterates_empty(self, db):
        assert list(db.cluster(UniPerson)) == []


class TestDeepIteration:
    def test_hierarchy_names(self, uni):
        names = uni.cluster(UniPerson).hierarchy()
        assert names[0] == "UniPerson"
        assert set(names) == {"UniPerson", "UniStudent", "UniFaculty", "UniTA"}

    def test_deep_count(self, uni):
        assert uni.cluster(UniPerson).count(deep=True) == 15
        assert uni.cluster(UniStudent).count(deep=True) == 6

    def test_deep_iteration_virtual_dispatch(self, uni):
        """The paper's 3.1.1 income program: forall p in person*."""
        incomes = {}
        counts = {}
        for p in uni.cluster(UniPerson).deep():
            key = type(p).__name__
            incomes[key] = incomes.get(key, 0.0) + p.income()
            counts[key] = counts.get(key, 0) + 1
        assert counts == {"UniPerson": 6, "UniStudent": 4, "UniFaculty": 3, "UniTA": 2}
        assert incomes["UniFaculty"] == 3 * 60.0

    def test_is_type_narrowing(self, uni):
        """`p is persistent student*` -> isinstance(p, UniStudent)."""
        students = [p for p in uni.cluster(UniPerson).deep()
                    if isinstance(p, UniStudent)]
        assert len(students) == 6  # Students + TAs

    def test_deep_view_reiterable(self, uni):
        view = uni.cluster(UniPerson).deep()
        assert len(list(view)) == len(list(view)) == 15

    def test_oids_without_materialising(self, uni):
        oids = list(uni.cluster(UniPerson).oids(deep=True))
        assert len(oids) == 15
        assert all(o.cluster in ("UniPerson", "UniStudent", "UniFaculty", "UniTA")
                   for o in oids)


class TestGrowthDuringIteration:
    def test_insertions_visible_to_scan(self, db):
        """Section 3.2 applied to clusters."""
        db.create(UniPerson)
        db.pnew(UniPerson, name="seed")
        seen = []
        for p in db.cluster(UniPerson):
            seen.append(p.name)
            if len(seen) < 5:
                db.pnew(UniPerson, name="gen%d" % len(seen))
        assert len(seen) == 5

    def test_in_txn_updates_visible(self, db):
        db.create(UniPerson)
        p = db.pnew(UniPerson, name="old")
        with db.transaction():
            p.name = "new"
            names = [q.name for q in db.cluster(UniPerson)]
            assert names == ["new"]


class TestScanReturnsPrivateValues:
    def test_mutating_a_scanned_value_cannot_reach_the_next_scan(self, db):
        """A materialized object must not share nested values with what
        the store keeps for the page: an in-place edit that was never
        written back would otherwise show up in later scans while the
        disk still holds the original."""
        db.create(UniBlob)
        db.pnew(UniBlob, blob=[1, 2, 3])

        def drop_live_caches():
            db._cache.clear()
            db._decoded.clear()

        drop_live_caches()
        (obj,) = list(db.cluster(UniBlob))
        obj.blob.append(99)             # in place: not a field write
        drop_live_caches()
        (again,) = list(db.cluster(UniBlob))
        assert again is not obj
        assert again.blob == [1, 2, 3]
        states = [record["state"]["blob"]
                  for _rid, record in db.store.scan("UniBlob")]
        assert states == [[1, 2, 3]]
        states[0].append(7)             # nor through store.scan itself
        assert [record["state"]["blob"]
                for _rid, record in db.store.scan("UniBlob")] == [[1, 2, 3]]


class TestCatalogHierarchy:
    def test_hierarchy_survives_reopen(self, db_path):
        db = Database(db_path)
        db.create(UniTA)  # creates UniPerson, UniStudent too (ancestors)
        assert db.has_cluster(UniPerson)
        assert db.has_cluster(UniStudent)
        db.pnew(UniTA, name="t")
        db.close()

        db2 = Database(db_path)
        assert db2.cluster(UniPerson).count(deep=True) == 1
        assert db2.cluster(UniPerson).count() == 0
        db2.close()

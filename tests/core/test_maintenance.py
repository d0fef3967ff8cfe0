"""Tests for Database-level maintenance: vacuum, verify, schema."""

import pytest

from repro.core import (Database, IntField, OdeObject, StringField, Trigger,
                        constraint, newversion)


class MArticle(OdeObject):
    title = StringField(default="")
    views = IntField(default=0)

    def bump(self):
        self.views += 1

    @constraint
    def views_nonneg(self):
        return self.views >= 0

    popular = Trigger(condition=lambda self: self.views > 100,
                      action=lambda self: None)


class MComment(MArticle):
    body = StringField(default="")


class TestVacuum:
    def test_vacuum_single_cluster(self, db):
        db.create(MArticle)
        arts = [db.pnew(MArticle, title="a%d" % i) for i in range(60)]
        for art in arts[::2]:
            db.pdelete(art)
        report = db.vacuum(MArticle)
        assert report["MArticle"]["objects"] == 30  # one record per object
        assert db.cluster(MArticle).count() == 30

    def test_vacuum_all(self, db):
        db.create(MComment)
        db.pnew(MArticle, title="x")
        db.pnew(MComment, title="y", body="z")
        reports = db.vacuum()
        assert set(reports) == {"MArticle", "MComment"}

    def test_vacuum_flushes_pending(self, db):
        db.create(MArticle)
        art = db.pnew(MArticle, title="before")
        art.title = "after"  # unflushed
        db.vacuum(MArticle)
        db._cache.clear()
        assert db.deref(art.oid).title == "after"

    def test_vacuum_preserves_versions(self, db):
        db.create(MArticle)
        art = db.pnew(MArticle, title="v1")
        old = art.vref
        newversion(art)
        art.title = "v2"
        db.vacuum(MArticle)
        assert db.deref(old).title == "v1"
        assert db.deref(art.oid).title == "v2"

    def test_queries_work_after_vacuum(self, db):
        from repro import A, forall
        db.create(MArticle)
        db.create_index(MArticle, "views", kind="btree")
        for i in range(40):
            db.pnew(MArticle, title="t%d" % i, views=i)
        db.vacuum(MArticle)
        q = forall(db.cluster(MArticle)).suchthat(A.views >= 35)
        assert q.count() == 5
        assert "range-scan" in q.explain()


class TestVerify:
    def test_clean_database(self, db):
        db.create(MComment)
        art = db.pnew(MArticle, title="x")
        newversion(art)
        db.pnew(MComment, title="y")
        assert db.verify() == []

    def test_after_churn_and_vacuum(self, db):
        db.create(MArticle)
        arts = [db.pnew(MArticle, title="a%d" % i) for i in range(30)]
        for art in arts[::3]:
            db.pdelete(art)
        for art in arts[1::3]:
            newversion(art)
        db.vacuum()
        assert db.verify() == []

    def test_detects_corrupt_head(self, db):
        db.create(MArticle)
        art = db.pnew(MArticle, title="x")
        serial = art.oid.serial
        # Corrupt the head record directly through the store.
        with db._implicit_txn() as txn:
            db.store.put(txn, "MArticle", (serial, 0),
                         {"__key": [serial, 0], "current": 99,
                          "chain": [1]})
        problems = db.verify()
        assert any("current version 99" in p for p in problems)


class TestSchema:
    def test_describes_clusters(self, db):
        db.create(MComment)
        db.create_index(MArticle, "views", kind="btree")
        db.pnew(MArticle, title="x")
        schema = db.schema()
        art = schema["MArticle"]
        assert art["fields"]["title"] == "StringField"
        assert art["constraints"] == ["views_nonneg"]
        assert art["triggers"] == ["popular"]
        assert art["indexes"] == {"views": "btree"}
        assert art["objects"] == 1
        assert schema["MComment"]["parents"] == ["MArticle"]
        assert "body" in schema["MComment"]["fields"]


class TestUniqueIndexes:
    def test_duplicate_pnew_aborts(self, db):
        from repro.errors import DuplicateKeyError
        db.create(MArticle)
        db.create_index(MArticle, "title", kind="hash", unique=True)
        db.pnew(MArticle, title="unique-one")
        with pytest.raises(DuplicateKeyError):
            db.pnew(MArticle, title="unique-one")
        # The failed pnew rolled back: only one object, index consistent.
        assert db.cluster(MArticle).count() == 1
        assert db.verify() == []

    def test_duplicate_update_aborts_txn(self, db):
        from repro.errors import DuplicateKeyError
        db.create(MArticle)
        db.create_index(MArticle, "title", kind="btree", unique=True)
        a = db.pnew(MArticle, title="first")
        b = db.pnew(MArticle, title="second")
        with pytest.raises(DuplicateKeyError):
            with db.transaction():
                b.title = "first"
        assert db.deref(b.oid).title == "second"
        assert db.verify() == []

    def test_update_to_fresh_value_allowed(self, db):
        db.create(MArticle)
        db.create_index(MArticle, "title", kind="hash", unique=True)
        a = db.pnew(MArticle, title="old")
        with db.transaction():
            a.title = "new"
        db.pnew(MArticle, title="old")  # freed by the rename
        assert db.verify() == []

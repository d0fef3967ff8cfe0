"""Tests for object versioning (paper section 4)."""

import pytest

from repro.core import (Database, FloatField, OdeObject, StringField, Vref,
                        newversion, versions, vfirst, vlast, vnext, vprev)
from repro.errors import (DanglingReferenceError, NotPersistentError,
                          VersionError)


class Design(OdeObject):
    name = StringField(default="")
    spec = StringField(default="")
    rev = FloatField(default=0.0)


@pytest.fixture
def design_db(db):
    db.create(Design)
    return db


class TestNewVersion:
    def test_pnew_starts_at_version_one(self, design_db):
        d = design_db.pnew(Design, name="chip")
        assert d.version == 1
        assert design_db.versions(d) == [d.vref]

    def test_newversion_bumps_current(self, design_db):
        d = design_db.pnew(Design, name="chip", rev=1.0)
        v2 = newversion(d)
        assert d.version == 2
        assert v2 == Vref("Design", d.oid.serial, 2)

    def test_old_version_keeps_state(self, design_db):
        db = design_db
        d = db.pnew(Design, name="chip", spec="v1 spec")
        old = d.vref
        newversion(d)
        d.spec = "v2 spec"
        with db.transaction():
            pass
        assert db.deref(old).spec == "v1 spec"
        assert db.deref(d.oid).spec == "v2 spec"

    def test_generic_ref_tracks_current(self, design_db):
        """Section 4: a generic reference follows the current version."""
        db = design_db
        d = db.pnew(Design, spec="a")
        oid = d.oid
        newversion(d)
        d.spec = "b"
        with db.transaction():
            pass
        db._cache.clear()
        assert db.deref(oid).spec == "b"

    def test_pending_changes_flushed_before_copy(self, design_db):
        db = design_db
        d = db.pnew(Design, spec="start")
        d.spec = "modified"      # unflushed
        old = d.vref
        newversion(d)
        assert db.deref(old).spec == "modified"

    def test_volatile_rejected(self, design_db):
        with pytest.raises(NotPersistentError):
            newversion(Design())


class TestNavigation:
    def test_chain_navigation(self, design_db):
        db = design_db
        d = db.pnew(Design, name="x")
        v1 = d.vref
        v2 = newversion(d)
        v3 = newversion(d)
        assert vfirst(d) == v1
        assert vlast(d) == v3
        assert db.vnext(v1) == v2
        assert db.vnext(v2) == v3
        assert db.vnext(v3) is None
        assert db.vprev(v3) == v2
        assert db.vprev(v1) is None

    def test_versions_listing(self, design_db):
        d = design_db.pnew(Design)
        newversion(d)
        newversion(d)
        chain = versions(d)
        assert [v.version for v in chain] == [1, 2, 3]

    def test_old_versions_read_only(self, design_db):
        db = design_db
        d = db.pnew(Design, spec="one")
        old = d.vref
        newversion(d)
        hist = db.deref(old)
        with pytest.raises(NotPersistentError):
            hist.spec = "tamper"

    def test_current_version_writable_via_vref(self, design_db):
        db = design_db
        d = db.pnew(Design)
        newversion(d)
        cur = db.current_version(d.oid)
        live = db.deref(cur)
        live.spec = "ok"  # current: writable
        assert live.spec == "ok"


class TestVersionDeletion:
    def test_delete_middle_version_relinks(self, design_db):
        db = design_db
        d = db.pnew(Design)
        v1 = d.vref
        v2 = newversion(d)
        v3 = newversion(d)
        db.pdelete(v2)
        assert [v.version for v in db.versions(d.oid)] == [1, 3]
        assert db.vnext(v1) == v3
        with pytest.raises(DanglingReferenceError):
            db.deref(v2)

    def test_delete_current_promotes_previous(self, design_db):
        db = design_db
        d = db.pnew(Design, spec="old")
        v1 = d.vref
        v2 = newversion(d)
        live = db.deref(d.oid)
        live.spec = "newest"
        with db.transaction():
            pass
        db.pdelete(v2)
        assert db.current_version(d.oid) == v1
        db._cache.clear()
        assert db.deref(d.oid).spec == "old"

    def test_deleting_an_old_version_keeps_a_pending_field_write(
            self, design_db):
        db = design_db
        d = db.pnew(Design, spec="v1")
        v2 = newversion(d)
        newversion(d)
        d.spec = "v3"               # autocommitted, not flushed yet
        db.pdelete(v2)
        db._cache.clear()
        assert db.deref(d.oid).spec == "v3"

    def test_delete_last_version_deletes_object(self, design_db):
        db = design_db
        d = db.pnew(Design)
        only = d.vref
        db.pdelete(only)
        with pytest.raises(DanglingReferenceError):
            db.deref(d.oid if d.is_persistent else only.oid)

    def test_pdelete_object_removes_all_versions(self, design_db):
        db = design_db
        d = db.pnew(Design)
        v1 = d.vref
        newversion(d)
        db.pdelete(d.oid)
        with pytest.raises(DanglingReferenceError):
            db.deref(v1)

    def test_vref_to_deleted_version_rejected_in_navigation(self, design_db):
        db = design_db
        d = db.pnew(Design)
        v1 = d.vref
        newversion(d)
        db.pdelete(v1)
        with pytest.raises(VersionError):
            db.vnext(v1)


class TestVersionDurability:
    def test_versions_survive_reopen(self, db_path):
        db = Database(db_path)
        db.create(Design)
        d = db.pnew(Design, spec="first")
        oid = d.oid
        old = d.vref
        newversion(d)
        d.spec = "second"
        db.close()

        db2 = Database(db_path)
        assert db2.deref(old).spec == "first"
        assert db2.deref(oid).spec == "second"
        assert len(db2.versions(oid)) == 2
        db2.close()

    def test_unbounded_versions(self, design_db):
        """Paper: 'no pre-defined limit on the number of versions'."""
        d = design_db.pnew(Design)
        for _ in range(40):
            newversion(d)
        assert len(versions(d)) == 41
        assert d.version == 41


class TestModuleFunctions:
    """The module-level macros, including raw-reference forms."""

    def test_docstring_example_runs(self):
        """The module docstring is an executable doctest; run it."""
        import doctest
        import importlib

        # ``repro.core`` re-exports the ``versions`` *function*, shadowing
        # the submodule attribute; resolve the module explicitly.
        versions_module = importlib.import_module("repro.core.versions")
        results = doctest.testmod(versions_module, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0

    def test_vnext_vprev_accept_raw_vref_with_db(self, design_db):
        db = design_db
        d = db.pnew(Design, name="x")
        v1 = d.vref
        v2 = newversion(d)
        assert vnext(v1, db) == v2
        assert vnext(v2, db) is None
        assert vprev(v2, db) == v1
        assert vprev(v1, db) is None

    def test_raw_vref_without_db_rejected(self, design_db):
        d = design_db.pnew(Design)
        with pytest.raises(NotPersistentError):
            vnext(d.vref)
        with pytest.raises(NotPersistentError):
            vprev(d.vref)

    def test_non_reference_rejected(self):
        with pytest.raises(NotPersistentError):
            vnext("not a ref")


class _NoIteration(dict):
    """A cache entry table that fails the test if anything walks it."""

    def __iter__(self):
        raise AssertionError("the version cache was iterated")

    def keys(self):
        raise AssertionError("the version cache was iterated")

    def items(self):
        raise AssertionError("the version cache was iterated")

    def values(self):
        raise AssertionError("the version cache was iterated")


class TestVersionCacheIsPerObject:
    """``pdelete`` and an abort find an object's pinned versions through
    the cache's per-object index, never by walking every entry."""

    PINNED = 2000

    def _fill(self, db):
        """2 000 cached pinned versions of objects the test never
        touches, behind an entry table that refuses iteration."""
        filler = Design(name="filler")
        for serial in range(10 ** 6, 10 ** 6 + self.PINNED):
            db._vcache.put(Vref("Design", serial, 1), filler)
        db._vcache._entries = _NoIteration(db._vcache._entries)

    def test_pdelete_and_abort_never_walk_the_cache(self, design_db):
        db = design_db
        d = db.pnew(Design, name="chip", spec="a")
        old = d.vref
        newversion(d)
        d.spec = "b"
        pinned = db.deref(old)
        assert pinned.spec == "a"
        plain = db.pnew(Design, name="plain")
        self._fill(db)
        assert len(db._vcache) == self.PINNED + 1

        # an abort that touched the versioned object reloads its pinned
        # version from the store
        with pytest.raises(RuntimeError):
            with db.transaction():
                d.spec = "c"
                newversion(d)
                raise RuntimeError("roll back")
        assert db.deref(old) is pinned and pinned.spec == "a"
        assert db.deref(d.oid).spec == "b"

        serial = d.oid.serial
        db.pdelete(plain)
        db.pdelete(d)
        # the deleted object's pinned version is unbound and uncached
        assert not pinned.is_persistent
        assert len(db._vcache) == self.PINNED
        assert db._vcache.versions_of("Design", serial) == []

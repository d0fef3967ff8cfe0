"""Older stores open as format 6: each object's two records become one,
and every object record becomes positional.

Formats 2-4 kept every object as a version head without the state plus a
record of its own for the current version's state; formats 2-5 wrote
every record as a codec dict spelling out its field names. The
conversion that every open runs (``repro.storage.upgrade.relayout``,
inside the one conversion transaction) folds the current state into the
head, drops that record, and rewrites each record as a header plus the
values of a layout built from the dict's own keys; non-current versions
keep their records. Every answer the object layer gives — derefs,
version navigation, scans, index probes, counts, trigger activations —
is the same before and after. The ``[4]`` cases start from a store an
older binary split over four page files (``tests/storage/fixtures``),
which the open first merges into one file."""

import pytest

from repro import A, Database, IntField, OdeObject, StringField, Trigger
from repro.core.oid import Vref
from repro.storage.store import Store

from tests.storage.fixtures import comparable, extra_files, unpack
from tests.storage.legacy_layouts import (head_layouts, header_version,
                                          stamp_version, to_two_records,
                                          to_version_5)

#: Trigger actions append here.
fired = []


class FoldItem(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)

    low = Trigger(condition=lambda self, mark: self.qty < mark,
                  action=lambda self, mark: fired.append((self.name, mark)))


#: Objects created; one is deleted before the conversion.
N = 40


@pytest.fixture(autouse=True)
def clear_fired():
    fired.clear()


def build(path):
    """A store with plain objects, a versioned object whose middle
    version is deleted, a deleted object, an index and two trigger
    activations; returns the open database and the interesting oids."""
    db = Database(path)
    db.create(FoldItem)
    db.create_index(FoldItem, "qty")
    with db.transaction():
        objs = [db.pnew(FoldItem, name="i%02d" % i, qty=10 + i % 7)
                for i in range(N)]
    versioned = objs[0]
    for qty in (20, 21, 22):                   # versions 2, 3 and 4
        db.newversion(versioned)
        versioned.qty = qty
    oid = versioned.oid
    db.pdelete(Vref(oid.cluster, oid.serial, 2))
    db.pdelete(objs[1])
    objs[2].low(5)                             # qty 12: stays active
    objs[3].low(12)                            # qty 13: stays active
    return db, versioned.oid, objs[2].oid


def answers(db, versioned):
    """Everything the object layer answers about the extent."""
    oids = sorted(db.cluster(FoldItem).oids(), key=lambda o: o.serial)
    objs = [db.deref(o) for o in oids]
    chain = db.versions(versioned)
    return {
        "deref": [(o.serial, x.name, x.qty) for o, x in zip(oids, objs)],
        "versions": [(v.version, db.deref(v).qty) for v in chain],
        "vprev": [db.vprev(v) for v in chain],
        "vnext": [db.vnext(v) for v in chain],
        "current": db.current_version(versioned),
        "forall": sorted((o.name, o.qty) for o in db.forall(FoldItem)),
        "index": {q: sorted(db.store.index_search("FoldItem", "qty", q))
                  for q in range(10, 23)},
        "indexed_query": sorted(
            o.name for o in db.forall(FoldItem).suchthat(A.qty == 12)),
        "count": db.cluster(FoldItem).count(),
        "activations": db.stats()["triggers"]["active"],
    }


def records(store):
    """Every object key of FoldItem."""
    return sorted(key for key, _rid in store._directory("FoldItem").items())


def old_file(tmp_path, files, version):
    """A FoldItem store at format *version*: built here when it is one
    file, else the fixture an older binary wrote over four files.
    Returns ``(path, versioned oid, watched oid, answers before)``."""
    if files == 4:
        path, meta = unpack("v%d_4" % version, tmp_path)
        return (path, meta["versioned"], meta["watched"],
                meta["answers"])
    path = str(tmp_path / ("f%d.odb" % version))
    db, versioned, watched = build(path)
    before = answers(db, versioned)
    assert before["versions"] == [(1, 10), (3, 21), (4, 22)]
    assert before["count"] == N - 1
    assert before["activations"] == 2
    db.close()

    store = Store(path)
    if version == 4:
        assert to_two_records(store) == N - 1
        assert head_layouts(store, "FoldItem") == (N - 1, 0, 0)
        # a head and a current-state record per object, plus versions 1, 3
        assert len(records(store)) == 2 * (N - 1) + 2
    else:
        # the heads and the two non-current versions
        assert to_version_5(store) == N + 1
        assert head_layouts(store, "FoldItem") == (0, N - 1, 0)
    store.close()
    stamp_version(path, version)
    return path, versioned, watched, comparable(before)


@pytest.mark.parametrize("shards", [1, 4])
def test_a_format_4_store_converts_at_open(tmp_path, shards):
    path, versioned, watched, before = old_file(tmp_path, shards, 4)

    db = Database(path)
    try:
        assert header_version(path) == 6
        assert extra_files(path) == []
        assert db.stats()["storage"]["format_version"] == 6
        (event,) = db.events.snapshot("format_upgrade")
        data = event["data"]
        # the heads and the two non-current versions are rewritten
        assert (data["from_format"], data["to_format"],
                data["objects_folded"], data["records_relaid"]) == (
                    4, 6, N - 1, N + 1)
        assert data["ms"] >= 0
        assert head_layouts(db.store, "FoldItem") == (0, 0, N - 1)
        # one record per object, plus the two non-current versions
        assert len(records(db.store)) == (N - 1) + 2
        assert comparable(answers(db, versioned)) == before
        assert db.verify() == []
        # the activations survived: the watched object's write fires one
        with db.transaction():
            db.deref(watched).qty = 1
        assert fired == [("i02", 5)]
    finally:
        db.close()

    db = Database(path)                        # nothing left to convert
    try:
        assert db.events.snapshot("format_upgrade") == []
        assert db.events.snapshot("files_merged") == []
        assert db.verify() == []
    finally:
        db.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_a_format_5_store_converts_at_open(tmp_path, monkeypatch, shards):
    path, versioned, watched, before = old_file(tmp_path, shards, 5)

    begun = []
    real_begin = Store.begin
    monkeypatch.setattr(Store, "begin",
                        lambda self: begun.append(1) or real_begin(self))
    from repro.storage.journal import Journal
    journal_begin = Journal.begin
    monkeypatch.setattr(Journal, "begin",
                        lambda self: begun.append(2) or journal_begin(self))
    db = Database(path)
    try:
        # the whole rewrite is the conversion's one transaction, after
        # the merge's one when there were four files
        assert begun == [2] * (1 + (shards > 1))
        assert db.stats()["storage"]["format_version"] == 6
        (event,) = db.events.snapshot("format_upgrade")
        data = event["data"]
        assert (data["from_format"], data["to_format"],
                data["objects_folded"], data["records_relaid"]) == (
                    5, 6, 0, N + 1)
        assert head_layouts(db.store, "FoldItem") == (0, 0, N - 1)
        # the dicts' own keys are the layout the class writes
        assert db.store.catalog.layouts("FoldItem") == [
            tuple(FoldItem._ode_fields)]
        assert comparable(answers(db, versioned)) == before
        assert db.verify() == []
        with db.transaction():
            db.deref(watched).qty = 1
        assert fired == [("i02", 5)]
    finally:
        db.close()


def test_a_current_store_converts_nothing(db_path):
    db = Database(db_path)
    db.create(FoldItem)
    db.pnew(FoldItem, name="new")
    db.close()
    assert header_version(db_path) == 6
    db = Database(db_path)
    try:
        assert db.events.snapshot("format_upgrade") == []
        assert db.stats()["storage"]["format_version"] == 6
    finally:
        db.close()

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
is the same before and after."""

import pytest

from repro import A, Database, IntField, OdeObject, StringField, Trigger
from repro.core.oid import Vref
from repro.storage.sharding import shard_path
from repro.storage.store import Store

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


def build(path, shards):
    """A store with plain objects, a versioned object whose middle
    version is deleted, a deleted object, an index and two trigger
    activations; returns the open database and the interesting oids."""
    db = Database(path, shards=shards)
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
    """Every object key of FoldItem over all shards."""
    return sorted(key for sid in range(store.n_shards)
                  for key, _rid in store._directory("FoldItem", sid).items())


@pytest.mark.parametrize("shards", [1, 4])
def test_a_format_4_store_converts_at_open(tmp_path, shards):
    path = str(tmp_path / "f4.odb")
    db, versioned, watched = build(path, shards)
    before = answers(db, versioned)
    assert before["versions"] == [(1, 10), (3, 21), (4, 22)]
    assert before["count"] == N - 1
    assert before["activations"] == 2
    db.close()

    store = Store(path)
    assert to_two_records(store) == N - 1
    assert head_layouts(store, "FoldItem") == (N - 1, 0, 0)
    # a head and a current-state record per object, plus versions 1, 3
    assert len(records(store)) == 2 * (N - 1) + 2
    store.close()
    stamp_version(path, 4, shards)

    db = Database(path)
    try:
        assert [header_version(shard_path(path, sid))
                for sid in range(shards)] == [6] * shards
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
        assert answers(db, versioned) == before
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
        assert db.verify() == []
    finally:
        db.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_a_format_5_store_converts_at_open(tmp_path, monkeypatch, shards):
    path = str(tmp_path / "f5.odb")
    db, versioned, watched = build(path, shards)
    before = answers(db, versioned)
    db.close()

    store = Store(path)
    # the heads and the two non-current versions
    assert to_version_5(store) == N + 1
    assert head_layouts(store, "FoldItem") == (0, N - 1, 0)
    layouts = store.catalog.layouts("FoldItem")
    store.close()
    stamp_version(path, 5, shards)

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
        # the whole rewrite is the conversion's one transaction
        assert begun == [2]
        assert db.stats()["storage"]["format_version"] == 6
        (event,) = db.events.snapshot("format_upgrade")
        data = event["data"]
        assert (data["from_format"], data["to_format"],
                data["objects_folded"], data["records_relaid"]) == (
                    5, 6, 0, N + 1)
        assert head_layouts(db.store, "FoldItem") == (0, 0, N - 1)
        # the dicts' own keys are the layout the class writes
        assert db.store.catalog.layouts("FoldItem") == layouts
        assert answers(db, versioned) == before
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

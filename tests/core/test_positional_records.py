"""Positional object records (page-file format 6).

A stored object record is a fixed header plus the values of one of its
cluster's layouts — a tuple of field names kept in the catalog, written
by the first transaction that stores a record in it. These tests pin the
record and log sizes, compare what a store/close/reopen round trip gives
back with what the codec's own dict encoding gives back, evolve a class's
field list between opens, and race the first writers of a new layout."""

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (AnyField, Database, FloatField, IntField, OdeObject,
                   StringField, newversion)
from repro.core.oid import Oid
from repro.storage.codec import decode_value, encode_value


class SizeItem(OdeObject):
    """The benchmark's stock item, field for field."""

    id = IntField(default=0)
    name = StringField(default="")
    price = FloatField(default=0.0)
    qty = IntField(default=100)
    category = IntField(default=0)
    supplier_id = IntField(default=0)
    reorder_level = IntField(default=10)
    fired = IntField(default=0)


class SizeEvent(OdeObject):
    """The benchmark's measurement row."""

    seq = IntField(default=0)
    detector = IntField(default=0)
    energy = FloatField(default=0.0)


def _stored(db, cluster):
    """Every record of *cluster* as stored, in heap order."""
    return [raw for heap in db.store._all_heaps(cluster)
            for _rid, raw in heap.scan()]


def _dict_record_size(db, cluster, serial):
    """Bytes the head would take as the codec dict format 5 stored."""
    head = db.store.get(cluster, (serial, 0))
    return len(encode_value(dict([("__key", [serial, 0])]
                                 + list(head.items()))))


class TestRecordSize:
    def test_heads_store_values_not_field_names(self, db):
        db.create(SizeItem)
        db.create(SizeEvent)
        item = db.pnew(SizeItem, id=5, name="item00005", price=12.5,
                       qty=300, category=5, supplier_id=5)
        event = db.pnew(SizeEvent, seq=5, detector=3, energy=1.5)
        # 11 header bytes + eight tagged values (a 9-character name)
        assert [len(raw) for raw in _stored(db, "SizeItem")] == [88]
        assert _dict_record_size(db, "SizeItem", item.oid.serial) == 266
        # 11 header bytes + three 9-byte values
        assert [len(raw) for raw in _stored(db, "SizeEvent")] == [38]
        assert _dict_record_size(db, "SizeEvent", event.oid.serial) == 157

    def test_a_second_version_spells_out_the_chain(self, db):
        db.create(SizeEvent)
        event = db.pnew(SizeEvent, seq=1)
        newversion(event)
        # the head grows by a u32 count and two u32 versions; the old
        # version's record has the same 11-byte header
        assert sorted(len(raw) for raw in _stored(db, "SizeEvent")) == [
            38, 50]

    def test_wal_bytes_of_one_field_update(self, db):
        db.create(SizeItem)
        item = db.pnew(SizeItem, id=5, name="item00005", price=12.5,
                       qty=300, category=5, supplier_id=5)
        wal = db.store._wal
        start = wal.end_lsn
        with db.transaction():
            item.qty = 301
        # BEGIN, one heap-update OP record (redo ranges + the old head as
        # its undo), COMMIT, END; 664 bytes with dict records
        assert wal.end_lsn - start == 308


# -- differential: the round trip against the codec's dict encoding ---------

class RoundTrip(OdeObject):
    a = AnyField()
    b = AnyField()
    c = AnyField()


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=2 ** 63, max_value=2 ** 90),        # big ints
    st.integers(max_value=-(2 ** 63) - 1, min_value=-(2 ** 90)),
    st.floats(allow_nan=False), st.text(max_size=20),
    st.binary(max_size=12))
hashables = st.one_of(st.integers(-50, 50), st.text(max_size=6))
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4)),
    max_leaves=12)
#: "ref" stands for a reference to the object created just before.
field_values = st.one_of(values, st.just("ref"))


class TestDifferential:
    @given(st.lists(st.tuples(field_values, field_values, field_values),
                    min_size=1, max_size=6),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_reopened_state_equals_the_dict_codec_round_trip(
            self, tmp_path_factory, rows, versions):
        path = str(tmp_path_factory.mktemp("rt") / "rt.odb")
        db = Database(path)
        db.create(RoundTrip)
        expected = {}
        previous = None
        with db.transaction():
            for row in rows:
                row = [Oid("RoundTrip", previous) if v == "ref"
                       and previous is not None else v for v in row]
                obj = db.pnew(RoundTrip, a=row[0], b=row[1], c=row[2])
                previous = obj.oid.serial
                expected[previous] = obj._p_state_dict()
        last = db.deref(Oid("RoundTrip", previous))
        for _ in range(versions):          # older versions get records too
            newversion(last)
        db.close()
        db = Database(path)
        try:
            for serial, state in expected.items():
                want = decode_value(encode_value(state))
                assert db.store.get("RoundTrip", (serial, 0))[
                    "state"] == want
                obj = db.deref(Oid("RoundTrip", serial))
                assert obj._p_state_dict() == want
            for vref in db.versions(Oid("RoundTrip", previous)):
                assert db.deref(vref)._p_state_dict() == decode_value(
                    encode_value(expected[previous]))
            assert db.verify() == []
        finally:
            db.close()


# -- schema evolution between opens -----------------------------------------

POOL = ("p", "q", "r", "s")


def _evolving(fields):
    """(Re)declare the class ``Evolving`` with *fields*, in order; the
    registry keeps the latest declaration."""
    return type("Evolving", (OdeObject,),
                {name: AnyField(default="default-" + name)
                 for name in fields})


class TestSchemaEvolution:
    @given(st.lists(
        st.tuples(st.permutations(POOL).flatmap(
                      lambda order: st.integers(0, len(order)).map(
                          lambda n: tuple(order[:n]))),
                  st.lists(st.tuples(st.integers(0, 5),
                                     st.sampled_from(POOL),
                                     st.integers(-3, 3)),
                           max_size=6),
                  st.integers(0, 2)),
        min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fields_gained_lost_or_reordered_between_opens(
            self, tmp_path_factory, opens):
        """Each open declares the class with another field list, checks
        every object against a model, writes some fields and creates some
        objects. A record decodes through its own layout: a field it
        lacks takes the default, a field the class lost is ignored."""
        path = str(tmp_path_factory.mktemp("evo") / "evo.odb")
        model = {}          # serial -> the field values last stored
        try:
            for fields, writes, creates in opens:
                cls = _evolving(fields)
                db = Database(path)
                try:
                    db.create(cls, exist_ok=True)

                    def visible(stored):
                        return {f: stored.get(f, "default-" + f)
                                for f in fields}
                    for serial, stored in model.items():
                        obj = db.deref(Oid("Evolving", serial))
                        assert obj._p_state_dict() == visible(stored)
                    serials = sorted(model)
                    with db.transaction():
                        for k, name, value in writes:
                            if not serials or name not in fields:
                                continue
                            serial = serials[k % len(serials)]
                            obj = db.deref(Oid("Evolving", serial))
                            setattr(obj, name, value)
                            stored = visible(model[serial])
                            stored[name] = value
                            model[serial] = stored
                        for i in range(creates):
                            obj = db.pnew(cls, **{f: i for f in fields})
                            model[obj.oid.serial] = {f: i for f in fields}
                    assert sorted(
                        o.oid.serial for o in db.cluster(cls)) == sorted(
                            model)
                    assert db.verify() == []
                    layouts = db.store.catalog.layouts("Evolving")
                    assert len(set(layouts)) == len(layouts)
                finally:
                    db.close()
        finally:
            _evolving(POOL)


# -- racing first writers of a new layout ----------------------------------

def _two_of(db_path, fields):
    cls = _evolving(("p",))
    db = Database(db_path)
    db.create(cls)
    first = db.pnew(cls, p=1).oid
    second = db.pnew(cls, p=2).oid
    db.close()
    return _evolving(fields), first, second


class TestFirstWriters:
    """The first writer of a layout registers it in a nested top action
    of its own transaction: a concurrent writer that finds it there may
    commit records naming it before the first writer ends, so neither an
    abort nor a crash of the first writer may take it back."""

    def _race(self, db, first, second, end_first, expected=RuntimeError):
        """Thread A writes *first* in the new layout (registering it)
        and waits; this thread writes *second* in the same layout and
        commits; then *end_first* ends A's transaction, raising
        *expected*."""
        registered, committed = threading.Event(), threading.Event()
        errors = []

        def writer_a():
            try:
                with db.transaction():
                    db.deref(first).q = "a"
                    list(db.cluster(type(db.deref(first))))  # flushes
                    registered.set()
                    committed.wait(10)
                    end_first()
            except expected:
                pass
            except Exception as exc:        # pragma: no cover - reported
                errors.append(exc)

        thread = threading.Thread(target=writer_a)
        thread.start()
        assert registered.wait(10)
        layouts = list(db.store.catalog.layouts("Evolving"))
        with db.transaction():
            db.deref(second).q = "b"
        # the second writer found the layout the first one registered
        assert db.store.catalog.layouts("Evolving") == layouts
        committed.set()
        thread.join(10)
        assert not errors, errors
        return layouts

    def test_an_abort_of_the_first_writer_keeps_the_layout(self, db_path):
        cls, first, second = _two_of(db_path, ("p", "q"))
        try:
            db = Database(db_path)

            def abort():
                raise RuntimeError("the first writer rolls back")
            layouts = self._race(db, first, second, abort)
            assert layouts == [("p",), ("p", "q")]
            db.close()
            db = Database(db_path)
            assert db.store.catalog.layouts("Evolving") == layouts
            assert db.deref(second)._p_state_dict() == {"p": 2, "q": "b"}
            assert db.deref(first)._p_state_dict() == {
                "p": 1, "q": "default-q"}
            assert db.verify() == []
            db.close()
        finally:
            _evolving(POOL)

    def test_a_crash_before_the_first_writer_ends_keeps_the_layout(
            self, db_path):
        cls, first, second = _two_of(db_path, ("q", "p"))
        try:
            db = Database(db_path)
            def crash():
                db.store.crash()
                raise RuntimeError("the process dies")
            # the abort that follows finds the files closed
            layouts = self._race(db, first, second, crash, Exception)
            assert layouts == [("p",), ("q", "p")]
            db = Database(db_path)          # recovery: A is a loser
            assert db.store.catalog.layouts("Evolving") == layouts
            assert db.deref(second)._p_state_dict() == {"q": "b", "p": 2}
            assert db.deref(first)._p_state_dict() == {
                "q": "default-q", "p": 1}
            assert db.verify() == []
            db.close()
        finally:
            _evolving(POOL)

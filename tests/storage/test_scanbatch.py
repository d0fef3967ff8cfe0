"""Late-decoding scan batches: the lazy batch against ``decode_value``
record for record, page-cache freshness, and exact decode counts."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FloatField, IntField, OdeObject, RefField, StringField
from repro.core.database import Database
from repro.storage.codec import decode_value, encode_value
from repro.storage.heap import RID
from repro.storage.records import encode_head, encode_version
from repro.storage.scanbatch import ScanBatch
from repro.storage.store import Store

from .test_properties import values


def reference_key(record):
    """What the peek must agree with, read off the decoded record."""
    if isinstance(record, dict):
        key = record.get("__key")
        if isinstance(key, (list, tuple)) and len(key) == 2:
            return key[0], key[1]
    return None


def counter_value(store, name):
    return store.metrics.get(name) or 0


# -- the batch alone ----------------------------------------------------------

key_parts = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=2 ** 63, max_value=2 ** 70),   # codec big-int
    st.booleans(), st.text(max_size=4), st.floats(allow_nan=False))

object_records = st.builds(
    lambda key, first, rest: (dict([("__key", key)] + list(rest.items()))
                              if first else dict(rest, __key=key)),
    st.one_of(st.lists(key_parts, min_size=1, max_size=3),
              st.tuples(key_parts, key_parts)),
    st.booleans(),
    st.dictionaries(st.text(max_size=6).filter(lambda k: k != "__key"),
                    values, max_size=4))


class TestBatchEqualsDecode:
    @given(st.lists(st.one_of(object_records, values), max_size=12))
    @settings(max_examples=300)
    def test_keys_heads_and_records(self, records):
        payloads = [encode_value(r) for r in records]
        batch = ScanBatch(7, list(range(len(payloads))), payloads,
                          itertools.count())
        assert len(batch) == len(records)
        assert batch.keys == [reference_key(r) for r in records]
        assert batch.heads == [k[0] for k in batch.keys
                               if k is not None and k[1] == 0]
        assert list(batch) == [(RID(7, i), decode_value(p))
                               for i, p in enumerate(payloads)]
        by_serial = {}
        for key, record in zip(batch.keys, records):
            if key is not None and key[1] == 0:
                by_serial[key[0]] = record   # last head of a serial wins
        for serial, record in by_serial.items():
            assert batch.head(serial) == record

    def test_peek_reads_the_layout_every_writer_emits(self):
        decodes = itertools.count()
        layouts = [("x",)]
        head = {"current": 3, "chain": [1, 2, 3], "state": {"x": 3}}
        older = {"state": {"x": 2}}
        lone = {"current": 1, "chain": [1], "state": {"x": 1}}
        batch = ScanBatch(1, [0, 1, 2], [
            encode_head(41, 3, [1, 2, 3], 0, {"x": 3}),
            encode_version(41, 2, 0, {"x": 2}),
            encode_head(42, 1, [1], 0, {"x": 1})], decodes, layouts)
        assert batch.keys == [(41, 0), (41, 2), (42, 0)]
        assert batch.heads == [41, 42]
        assert next(decodes) == 0          # no decode so far
        assert batch.head(41) == head and batch.head(42) == lone
        assert batch.head(43) is None
        assert [record for _rid, record in batch] == [head, older, lone]
        # a page of heads only (the usual one) takes a shortcut
        heads_only = ScanBatch(2, [3, 4], [
            encode_head(42, 1, [1], 0, {"x": 1}),
            encode_head(41, 3, [1, 2, 3], 0, {"x": 3})], decodes, layouts)
        assert heads_only.keys == [(42, 0), (41, 0)]
        assert heads_only.heads == [42, 41]
        assert heads_only.head(41) == head and heads_only.head(42) == lone
        assert [rid for rid, _record in heads_only] == [RID(2, 3),
                                                        RID(2, 4)]

    def test_every_decode_is_a_fresh_value(self):
        payload = encode_value({"__key": [1, 0], "state": {"l": [1, 2]}})
        batch = ScanBatch(1, [0], [payload], itertools.count())
        batch.head(1)["state"]["l"].append(3)
        next(iter(batch))[1]["state"]["l"].append(4)
        assert batch.head(1)["state"]["l"] == [1, 2]


# -- through the store: forwarded, overflow, deleted, keyless -----------------

store_ops = st.lists(
    st.tuples(st.sampled_from([1, 2, 3, 4, 5, 2 ** 66]),   # serial
              st.integers(min_value=0, max_value=3),        # version
              st.sampled_from(["put", "put", "put", "delete"]),
              st.sampled_from([0, 40, 700, 2500, 9000]),    # payload pad
              st.sampled_from(["key-first", "key-last", "no-key"])),
    max_size=40)


def _apply(store, txn, ops):
    for serial, version, what, pad, shape in ops:
        # The directory's key encoding stops at 2**53; the payload's
        # embedded key is what the batch reads, and that may be any int.
        key = (min(serial, 6), version)
        if what == "delete":
            store.delete(txn, "c", key)
            continue
        if shape == "key-first":
            record = {"__key": [serial, version], "pad": "x" * pad}
        elif shape == "key-last":
            record = {"pad": "x" * pad, "__key": [serial, version]}
        else:
            record = {"pad": "x" * pad}
        store.put(txn, "c", key, record)


class TestStoreDifferential:
    @given(store_ops)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_scan_batches_equals_per_slot_heap_scan(self, tmp_path_factory,
                                                    ops):
        """``HeapFile.scan`` + ``decode_value`` is the reference: it reads
        slot by slot and shares no code with the batch path. Growing
        updates leave forwarding stubs, 9000-byte pads spill to overflow
        chains, deletes leave tombstones."""
        path = str(tmp_path_factory.mktemp("diff") / "s.pages")
        store = Store(path)
        try:
            txn = store.begin()
            store.create_cluster(txn, "c")
            _apply(store, txn, ops)
            store.commit(txn)
            reference = [(rid, decode_value(raw))
                         for heap in store._all_heaps("c")
                         for rid, raw in heap.scan()]
            for _ in range(2):              # second pass: page-cache hits
                batches = list(store.scan_batches("c"))
                assert [pair for b in batches for pair in b] == reference
                assert ([k for b in batches for k in b.keys]
                        == [reference_key(r) for _rid, r in reference])
                assert sum(len(b) for b in batches) == len(reference)
                for batch in batches:
                    for rid, record in batch:
                        key = reference_key(record)
                        if key is not None and key[1] == 0:
                            assert batch.head(key[0]) == record
        finally:
            store.close()


# -- page-cache freshness -----------------------------------------------------

def _rows(store):
    return sorted((record["__key"][0], record["n"])
                  for _rid, record in store.scan("c"))


class TestPageCacheFreshness:
    @pytest.fixture
    def filled(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        for i in range(300):
            store.put(txn, "c", (i, 0), {"__key": [i, 0], "n": i},
                      new=True)
        store.commit(txn)
        assert _rows(store) == [(i, i) for i in range(300)]   # cache primed
        return store

    def test_update_and_delete_invalidate(self, filled):
        txn = filled.begin()
        filled.put(txn, "c", (5, 0), {"__key": [5, 0], "n": -5})
        filled.delete(txn, "c", (6, 0))
        filled.commit(txn)
        expect = [(i, -5 if i == 5 else i) for i in range(300) if i != 6]
        assert _rows(filled) == expect
        assert _rows(filled) == expect
        assert filled.page_cache_hits > 0

    def test_abort_restores_the_old_bytes(self, filled):
        txn = filled.begin()
        filled.put(txn, "c", (5, 0), {"__key": [5, 0], "n": -5})
        assert (5, -5) in _rows(filled)     # cached with the dirty bytes
        filled.abort(txn)
        assert _rows(filled) == [(i, i) for i in range(300)]

    def test_vacuum_moves_records_to_fresh_pages(self, filled):
        txn = filled.begin()
        for i in range(0, 300, 2):
            filled.delete(txn, "c", (i, 0))
        filled.commit(txn)
        _rows(filled)
        filled.vacuum("c")
        assert _rows(filled) == [(i, i) for i in range(1, 300, 2)]


# -- exact decode counts ------------------------------------------------------

class ScanWidget(OdeObject):
    name = StringField(default="")
    qty = IntField(default=0)


class ScanSupplier(OdeObject):
    name = StringField(default="")


class ScanItem(OdeObject):
    name = StringField(default="")
    price = FloatField(default=0.0)
    qty = IntField(default=0)
    category = IntField(default=0)
    supplier = RefField("ScanSupplier")


#: Items in the extent the page-cache counts run on: 134 heap pages, eight
#: times the scan page cache those tests set.
N_ITEMS = 2000
SMALL_PAGE_CACHE = 16


@pytest.fixture(scope="module")
def items_path(tmp_path_factory):
    """A closed database of N_ITEMS items plus one item with five
    versions, whose four older states a scan peeks past."""
    path = str(tmp_path_factory.mktemp("items") / "items.odb")
    db = Database(path)
    db.create(ScanSupplier)
    db.create(ScanItem)
    supplier = db.pnew(ScanSupplier, name="acme")
    with db.transaction():
        for i in range(N_ITEMS):
            db.pnew(ScanItem, name="item%06d" % i, price=float(i % 100),
                    qty=i % 1000, category=i % 10, supplier=supplier)
    versioned = db.pnew(ScanItem, name="versioned")
    for qty in range(1, 5):
        db.newversion(versioned)
        versioned.qty = qty
    db.close()
    return path


def _scan(db, cls=ScanWidget):
    return sum(1 for _ in db.cluster(cls))


class TestDecodeCounts:
    def test_counters_are_exported(self, db):
        from repro.obs.metrics import parse_prometheus
        db.create(ScanWidget)
        db.pnew(ScanWidget, name="w", qty=1)
        db._cache.clear()
        assert _scan(db) == 1
        assert db.stats()["scan"] == {"records_peeked": 1,
                                      "records_decoded": 1}
        text = db.metrics.render_prometheus()
        assert "ode_scan_records_peeked_total 1" in text
        assert "ode_scan_records_decoded_total 1" in text
        parse_prometheus(text)  # raises on lint violations

    def test_warm_live_scan_past_the_page_cache_decodes_nothing(
            self, items_path):
        n = N_ITEMS + 1
        db = Database(items_path)
        try:
            store = db.store
            store.PAGE_CACHE_PAGES = SMALL_PAGE_CACHE
            batches = list(store.scan_batches("ScanItem"))
            assert len(batches) > 2 * SMALL_PAGE_CACHE
            assert _scan(db, ScanItem) == n     # every object live now
            peeked = counter_value(store, "scan.records_peeked")
            decoded = counter_value(store, "scan.records_decoded")
            misses = store.page_cache_misses
            cached = set(store._page_cache)
            assert len(cached) == SMALL_PAGE_CACHE
            assert _scan(db, ScanItem) == n
            # The 16 pages cached when the pass starts are all served
            # from the cache (the scan never evicts its own heap's pages
            # ahead of its cursor); the other 118 are re-read: all their
            # records (heads, old versions) are peeked again and none is
            # decoded.
            assert (store.page_cache_misses - misses
                    == len(batches) - SMALL_PAGE_CACHE)
            assert (counter_value(store, "scan.records_peeked") - peeked
                    == sum(len(batch) for batch in batches
                           if batch.page_no not in cached))
            assert counter_value(store, "scan.records_decoded") == decoded
        finally:
            db.close()

    def test_cold_scan_decodes_one_head_per_object(self, items_path):
        n = N_ITEMS + 1
        db = Database(items_path)
        try:
            store = db.store
            # Each head carries its current state: one decode per
            # object, and no object needs a record from another page.
            decoded = counter_value(store, "scan.records_decoded")
            assert _scan(db, ScanItem) == n
            assert (counter_value(store, "scan.records_decoded") - decoded
                    == n)
        finally:
            db.close()

    def test_single_page_cold_scan_is_exactly_one_per_object(self, db_path):
        n = 20
        db = Database(db_path)
        db.create(ScanWidget)
        with db.transaction():
            for i in range(n):
                db.pnew(ScanWidget, name="w%d" % i, qty=i)
        db.close()
        db = Database(db_path)
        try:
            assert _scan(db) == n
            assert counter_value(db.store, "scan.records_decoded") == n
            assert counter_value(db.store, "scan.records_peeked") == n
        finally:
            db.close()

    def test_k_versions_cost_one_decode(self, db_path):
        k = 6
        db = Database(db_path)
        db.create(ScanWidget)
        obj = db.pnew(ScanWidget, name="v", qty=0)
        for i in range(1, k):
            db.newversion(obj)
            obj.qty = i
        db.close()
        db = Database(db_path)
        try:
            (found,) = list(db.cluster(ScanWidget))
            assert found.qty == k - 1
            # the head (current state) and the k - 1 older versions
            assert counter_value(db.store, "scan.records_peeked") == k
            assert counter_value(db.store, "scan.records_decoded") == 1
        finally:
            db.close()


class TestBulkReadersUseTheBatch:
    def test_create_index_and_analyze_probe_only_for_far_states(
            self, db, monkeypatch):
        """``create_index`` over a loaded extent and ``analyze`` take each
        current state from the head's own batch; ``store.get`` would run
        only for a state on another page, and a head carries its state,
        so there is none."""
        n = 300
        db.create(ScanWidget)
        with db.transaction():
            for i in range(n):
                db.pnew(ScanWidget, name="w%03d" % i, qty=i % 7)
        store = db.store
        probes = []
        real_get = store.get
        monkeypatch.setattr(
            store, "get",
            lambda cluster, key: probes.append(key) or real_get(cluster, key))
        db.create_index(ScanWidget, "qty")      # builds, then analyzes
        assert probes == []
        assert (len(store.index_search("ScanWidget", "qty", 3))
                == len(range(3, n, 7)))
        assert db.stats()["clusters"]["ScanWidget"]["fields"]["qty"] == {
            "n_distinct": 7, "min": 0, "max": 6}

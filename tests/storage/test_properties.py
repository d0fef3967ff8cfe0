"""Property-based tests (hypothesis) for the storage substrate."""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.buffer import BufferPool
from repro.storage.codec import decode_value, encode_key, encode_value
from repro.storage.heap import HeapFile
from repro.storage.journal import Journal
from repro.storage.page import PAGE_SIZE, PageType, SlottedPage
from repro.storage.pagefile import PageFile
from repro.storage.store import Store
from repro.storage.wal import WriteAheadLog

# -- value strategies ---------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False),
    st.text(max_size=60),
    st.binary(max_size=60),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)

keys = st.one_of(
    st.integers(min_value=-(2 ** 50), max_value=2 ** 50),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e15, max_value=1e15),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.tuples(st.text(max_size=10),
              st.integers(min_value=-1000, max_value=1000)),
)


class TestCodecProperties:
    @given(values)
    @settings(max_examples=300)
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    @given(keys, keys)
    @settings(max_examples=300)
    def test_key_order_preserved(self, a, b):
        ka, kb = encode_key(a), encode_key(b)
        if _comparable(a, b):
            if a < b:
                assert ka < kb
            elif a > b:
                assert ka > kb
            else:
                assert ka == kb
        else:
            assert ka != kb

    @given(keys, keys)
    @settings(max_examples=200)
    def test_key_injective(self, a, b):
        if a != b or type(a) is not type(b):
            if encode_key(a) == encode_key(b):
                # only numerically equal values may collide (2 == 2.0)
                assert float(a) == float(b)


def _comparable(a, b) -> bool:
    num = (int, float)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, num) and isinstance(b, num):
        return True
    return type(a) is type(b)


class TestSlottedPageProperties:
    @given(st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                              st.binary(min_size=0, max_size=200)),
                    max_size=60))
    @settings(max_examples=100)
    def test_model_equivalence(self, ops):
        page = SlottedPage.format(bytearray(PAGE_SIZE), 1, PageType.HEAP)
        model = {}
        for action, payload in ops:
            if action == "insert":
                try:
                    slot = page.insert(payload)
                except Exception:
                    continue
                model[slot] = payload
            elif model:
                victim = sorted(model)[0]
                page.delete(victim)
                del model[victim]
        assert dict(page.slots()) == model


@pytest.fixture
def fresh_stack(tmp_path):
    pagefile = PageFile(str(tmp_path / "pages"))
    pool = BufferPool(pagefile, capacity=64)
    wal = WriteAheadLog(str(tmp_path / "wal"))
    journal = Journal(pool, wal)
    yield pool, wal, journal
    wal.close()
    pagefile.close()


class TestHashIndexProperties:
    """A ``kind="hash"`` index (a B+tree) against a dict of key counts."""

    @given(st.lists(st.tuples(st.booleans(), st.text(max_size=6)),
                    min_size=1, max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            store = Store(os.path.join(tmp, "p.odb"), durability="none")
            txn = store.begin()
            store.create_cluster(txn, "c")
            store.create_index(txn, "c", "f", kind="hash")
            index = store.index("c", "f")
            model = {}
            for is_insert, key in ops:
                if is_insert:
                    index.insert(txn, key, len(model))
                    model.setdefault(key, []).append(None)
                else:
                    removed = index.delete(txn, key)
                    assert removed == len(model.pop(key, []))
            index.check_invariants()
            for key, vals in model.items():
                assert len(index.search(key)) == len(vals)
            store.commit(txn)
            store.close()


class TestHeapProperties:
    @given(st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]),
                              st.binary(max_size=800)),
                    min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_dict_model(self, fresh_stack, ops):
        pool, wal, journal = fresh_stack
        txn = journal.begin()
        heap = HeapFile.create(journal, txn)
        model = {}
        for action, payload in ops:
            if action == "insert":
                rid = heap.insert(txn, payload)
                model[rid] = payload
            elif model:
                victim = sorted(model)[len(model) // 2]
                if action == "update":
                    heap.update(txn, victim, payload)
                    model[victim] = payload
                else:
                    heap.delete(txn, victim)
                    del model[victim]
        assert dict(heap.scan()) == model
        for rid, payload in model.items():
            assert heap.read(rid) == payload
        journal.commit(txn)

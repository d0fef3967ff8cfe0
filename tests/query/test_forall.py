"""Tests for the forall iteration facility (paper section 3.1)."""

import pytest

from repro.core import (FloatField, IntField, OdeObject, OdeSet, RefField,
                        StringField)
from repro.errors import QueryError
from repro.query import A, forall, iterate
from repro.query.optimizer import INDEX_BATCH, FullScan


class ShopItem(OdeObject):
    name = StringField(default="")
    price = FloatField(default=0.0)
    qty = IntField(default=0)


class ShopChild(OdeObject):
    parent_name = StringField(default="")
    age = IntField(default=0)


@pytest.fixture
def stocked(db):
    db.create(ShopItem)
    rows = [("dram", 5.0, 100), ("z80", 2.5, 40), ("rom", 2.9, 7),
            ("cpu", 99.0, 3), ("led", 0.1, 500)]
    for name, price, qty in rows:
        db.pnew(ShopItem, name=name, price=price, qty=qty)
    return db


class TestSingleSource:
    def test_plain_iteration(self, stocked):
        names = {i.name for i in forall(stocked.cluster(ShopItem))}
        assert names == {"dram", "z80", "rom", "cpu", "led"}

    def test_suchthat_predicate(self, stocked):
        cheap = forall(stocked.cluster(ShopItem)).suchthat(A.price < 3.0)
        assert {i.name for i in cheap} == {"z80", "rom", "led"}

    def test_suchthat_callable(self, stocked):
        q = forall(stocked.cluster(ShopItem)).suchthat(
            lambda i: i.qty * i.price >= 100)
        assert {i.name for i in q} == {"dram", "cpu", "z80"}

    def test_by_ordering(self, stocked):
        q = forall(stocked.cluster(ShopItem)).suchthat(A.price < 3.0).by(A.name)
        assert [i.name for i in q] == ["led", "rom", "z80"]

    def test_by_desc(self, stocked):
        q = forall(stocked.cluster(ShopItem)).by(A.price, desc=True)
        assert [i.name for i in q][0] == "cpu"

    def test_by_key_function(self, stocked):
        q = forall(stocked.cluster(ShopItem)).by(lambda i: i.qty * i.price)
        values = [i.qty * i.price for i in q]
        assert values == sorted(values)

    def test_by_multiple_keys(self, stocked):
        stocked.pnew(ShopItem, name="z80", price=9.0, qty=1)
        q = forall(stocked.cluster(ShopItem)).by(A.name).by(A.price)
        pairs = [(i.name, i.price) for i in q]
        assert pairs == sorted(pairs)

    def test_double_suchthat_rejected(self, stocked):
        q = forall(stocked.cluster(ShopItem)).suchthat(A.price < 1)
        with pytest.raises(QueryError):
            q.suchthat(A.qty > 1)

    def test_over_ode_set(self):
        s = OdeSet([3, 1, 4, 1, 5])
        assert forall(s).suchthat(lambda x: x > 2).by(lambda x: x).to_list() \
            == [3, 4, 5]

    def test_over_list(self):
        assert forall([5, 2, 9]).by(lambda x: x).to_list() == [2, 5, 9]

    def test_empty_source(self, db):
        db.create(ShopItem)
        assert forall(db.cluster(ShopItem)).to_list() == []

    def test_no_sources_rejected(self):
        with pytest.raises(QueryError):
            forall()

    def test_terminal_helpers(self, stocked):
        q = forall(stocked.cluster(ShopItem)).suchthat(A.price < 3.0)
        assert q.count() == 3
        assert q.first() is not None
        assert forall(stocked.cluster(ShopItem)).suchthat(
            A.price > 1000).first() is None


class TestJoins:
    def test_cross_product(self, db):
        db.create(ShopItem)
        db.create(ShopChild)
        for n in ("a", "b"):
            db.pnew(ShopItem, name=n)
        for n in ("x", "y", "z"):
            db.pnew(ShopChild, parent_name=n)
        pairs = forall(db.cluster(ShopItem), db.cluster(ShopChild)).to_list()
        assert len(pairs) == 6

    def test_join_predicate(self, db):
        """The paper's employee/child example shape."""
        db.create(ShopItem)
        db.create(ShopChild)
        db.pnew(ShopItem, name="smith")
        db.pnew(ShopItem, name="jones")
        db.pnew(ShopChild, parent_name="smith", age=4)
        db.pnew(ShopChild, parent_name="smith", age=9)
        db.pnew(ShopChild, parent_name="ng", age=2)
        matched = forall(db.cluster(ShopItem), db.cluster(ShopChild)).suchthat(
            lambda e, c: e.name == c.parent_name).to_list()
        assert len(matched) == 2
        assert all(e.name == c.parent_name for e, c in matched)

    def test_self_join(self, stocked):
        q = forall(stocked.cluster(ShopItem), stocked.cluster(ShopItem)).suchthat(
            lambda a, b: a.price < b.price)
        n = q.count()
        assert n == 10  # 5 choose 2 ordered pairs with strict order

    def test_join_ordering(self, db):
        db.create(ShopItem)
        db.pnew(ShopItem, name="b", qty=1)
        db.pnew(ShopItem, name="a", qty=2)
        q = forall(db.cluster(ShopItem), db.cluster(ShopItem)).by(
            lambda x, y: (x.name, y.name))
        rows = [(x.name, y.name) for x, y in q]
        assert rows == sorted(rows)

    def test_join_with_attrexpr_order_rejected(self, db):
        db.create(ShopItem)
        db.pnew(ShopItem)
        q = forall(db.cluster(ShopItem), db.cluster(ShopItem)).by(A.name)
        with pytest.raises(QueryError):
            list(q)

    def test_triple_join(self):
        q = forall([1, 2], "ab", [True])
        assert q.count() == 4

    @pytest.mark.parametrize("codegen", [True, False])
    def test_keyless_join_holds_no_cross_product(self, monkeypatch, codegen):
        """A join without keys is a filtered cross product, built
        INDEX_BATCH prefix rows at a time: the rows in flight are the
        matches, never N x M (x L) candidates."""
        sizes = []
        step = iterate._join_step

        def measured(rows, *args):
            out = step(rows, *args)
            sizes.append((len(rows), len(out)))
            return out
        monkeypatch.setattr(iterate, "_join_step", measured)
        n = 5 * INDEX_BATCH + 7
        xs, ys = list(range(n)), list(range(n))
        q = forall(xs, ys).suchthat(lambda x, y: x == y).codegen(codegen)
        assert q.count() == n
        assert q.to_list() == [(i, i) for i in range(n)]
        assert max(rows for rows, _ in sizes) == INDEX_BATCH
        assert max(out for _, out in sizes) == INDEX_BATCH
        del sizes[:]
        zs = list(range(40))
        q = forall(xs, ys[:50], zs).suchthat(
            lambda x, y, z: x == y == z).codegen(codegen)
        assert q.count() == 40
        # the middle level has nothing to check yet: INDEX_BATCH x |ys|
        assert max(out for _, out in sizes) == INDEX_BATCH * 50

    def test_keyless_join_is_lazy(self):
        calls = []

        def same(x, y):
            calls.append((x, y))
            return x == y
        xs, ys = list(range(1000)), list(range(1000))
        assert forall(xs, ys).suchthat(same).first() == (0, 0)
        assert len(calls) == INDEX_BATCH * 1000


class TestGrowthSemantics:
    def test_unordered_iteration_sees_inserts(self, db):
        """Section 3.2 through forall: no `by`, growing cluster."""
        db.create(ShopItem)
        db.pnew(ShopItem, name="seed", qty=0)
        count = 0
        for item in forall(db.cluster(ShopItem)):
            count += 1
            if count < 4:
                db.pnew(ShopItem, name="gen", qty=count)
        assert count == 4

    def test_list_source_is_sliced_and_sees_appends(self):
        """A list is read INDEX_BATCH elements at a pull, its length
        re-read each time, so what the loop appends is visited."""
        work = list(range(2 * INDEX_BATCH + 5))
        chunks = FullScan(work, None).chunks(INDEX_BATCH)
        assert len(next(chunks)) == INDEX_BATCH
        work.append(-1)
        assert [len(c) for c in chunks] == [INDEX_BATCH, 6]
        assert [len(c) for c in FullScan(work, None).chunks(None)] == [
            len(work)]
        seen = 0
        for x in forall(work).suchthat(lambda x: x >= 0):
            seen += 1
            if x < 100:
                work.append(x + 70)
        assert seen == sum(1 for x in work if x >= 0) > 2 * INDEX_BATCH + 5

    def test_ordered_iteration_snapshots(self, db):
        db.create(ShopItem)
        db.pnew(ShopItem, name="seed")
        seen = []
        for item in forall(db.cluster(ShopItem)).by(A.name):
            seen.append(item.name)
            if len(seen) < 3:
                db.pnew(ShopItem, name="later%d" % len(seen))
        assert seen == ["seed"]  # by() sorts a snapshot


class TestExplain:
    def test_full_scan_reported(self, stocked):
        q = forall(stocked.cluster(ShopItem)).suchthat(lambda i: True)
        assert "full scan" in q.explain()

    def test_join_reported(self, stocked):
        q = forall(stocked.cluster(ShopItem), stocked.cluster(ShopItem))
        assert "join" in q.explain()


class TestHashEquijoin:
    @pytest.fixture
    def families(self, db):
        db.create(ShopItem)
        db.create(ShopChild)
        for name in ("smith", "jones", "ng"):
            db.pnew(ShopItem, name=name)
        kids = [("smith", 4), ("smith", 9), ("jones", 2), ("zzz", 1)]
        for parent, age in kids:
            db.pnew(ShopChild, parent_name=parent, age=age)
        return db

    def test_matches_nested_loop(self, families):
        db = families
        fast = forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
            A.name, A.parent_name)
        slow = forall(db.cluster(ShopItem), db.cluster(ShopChild)).suchthat(
            lambda e, c: e.name == c.parent_name)
        fast_pairs = {(e.name, c.age) for e, c in fast}
        slow_pairs = {(e.name, c.age) for e, c in slow}
        assert fast_pairs == slow_pairs == {("smith", 4), ("smith", 9),
                                            ("jones", 2)}

    def test_residual_filter(self, families):
        db = families
        q = forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
            A.name, A.parent_name).suchthat(lambda e, c: c.age > 3)
        assert {(e.name, c.age) for e, c in q} == {("smith", 4),
                                                   ("smith", 9)}

    def test_ordering_applies(self, families):
        db = families
        q = forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
            A.name, A.parent_name).by(lambda e, c: c.age)
        ages = [c.age for _, c in q]
        assert ages == sorted(ages)

    def test_three_way_join(self):
        xs = [1, 2, 3]
        ys = [2, 3, 4]
        zs = [3, 2, 9]
        q = forall(xs, ys, zs).join_on(lambda x: x, lambda y: y,
                                       lambda z: z)
        assert sorted(q.to_list()) == [(2, 2, 2), (3, 3, 3)]

    def test_key_count_validation(self, families):
        db = families
        with pytest.raises(QueryError):
            forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
                A.name)

    def test_explain(self, families):
        db = families
        q = forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
            A.name, A.parent_name)
        assert "hash equijoin" in q.explain()

    def test_key_fn_by_field_name(self, families):
        db = families
        q = forall(db.cluster(ShopItem), db.cluster(ShopChild)).join_on(
            "name", "parent_name")
        assert q.count() == 3


class TestLimitAndExists:
    def test_limit(self, stocked):
        q = forall(stocked.cluster(ShopItem)).by(A.name).limit(2)
        assert [i.name for i in q] == ["cpu", "dram"]

    def test_limit_zero(self, stocked):
        assert forall(stocked.cluster(ShopItem)).limit(0).to_list() == []

    def test_limit_negative_rejected(self, stocked):
        with pytest.raises(QueryError):
            forall(stocked.cluster(ShopItem)).limit(-1)

    def test_limit_on_join(self, stocked):
        q = forall(stocked.cluster(ShopItem),
                   stocked.cluster(ShopItem)).limit(3)
        assert len(q.to_list()) == 3

    def test_exists(self, stocked):
        assert forall(stocked.cluster(ShopItem)).suchthat(
            A.price > 90).exists()
        assert not forall(stocked.cluster(ShopItem)).suchthat(
            A.price > 900).exists()


class TestIndexOrderedScan:
    def test_sort_elided_when_index_orders(self, stocked):
        """by(A.f) over an IndexRange on f needs no sort; results must
        still come out ordered."""
        stocked.create_index(ShopItem, "price", kind="btree")
        q = forall(stocked.cluster(ShopItem)).suchthat(
            A.price > 0.0).by(A.price)
        prices = [i.price for i in q]
        assert prices == sorted(prices)
        assert len(prices) == 5

    def test_desc_over_index(self, stocked):
        stocked.create_index(ShopItem, "qty", kind="btree")
        q = forall(stocked.cluster(ShopItem)).suchthat(
            A.qty >= 0).by(A.qty, desc=True)
        qtys = [i.qty for i in q]
        assert qtys == sorted(qtys, reverse=True)


class TestCompiledResiduals:
    """The hot residual-filter loops must run the *compiled* closures, not
    interpreted ``Predicate.__call__`` double dispatch. Breaking
    ``__call__`` and observing that queries still work proves it."""

    def test_full_scan_residual_runs_compiled_closure(self, stocked,
                                                      monkeypatch):
        from repro.query import predicates

        def boom(self, obj):
            raise AssertionError("interpreted Compare.__call__ used "
                                 "in a scan residual")
        monkeypatch.setattr(predicates.Compare, "__call__", boom)
        # A non-indexed field comparison: full scan + residual filter.
        q = forall(stocked.cluster(ShopItem)).suchthat(A.qty >= 100)
        assert {i.name for i in q} == {"dram", "led"}

    def test_fused_join_residual_runs_compiled_closure(self, stocked,
                                                       monkeypatch):
        from repro.query import predicates
        from repro.query.predicates import V
        stocked.create(ShopChild)
        stocked.pnew(ShopChild, parent_name="dram", age=3)
        stocked.pnew(ShopChild, parent_name="led", age=9)

        def boom(self, row):
            raise AssertionError("interpreted JoinCompare.__call__ used "
                                 "in a join residual")
        monkeypatch.setattr(predicates.JoinCompare, "__call__", boom)
        items = stocked.cluster(ShopItem)
        kids = stocked.cluster(ShopChild)
        # Equality joins hash; the < comparison is a residual conjunct.
        q = forall(items, kids).suchthat(
            (V[0].name == V[1].parent_name) & (V[0].price < V[1].age))
        assert {(i.name, c.age) for i, c in q} == {("led", 9)}

    def test_callable_residual_compiled_in_hash_join(self, stocked):
        stocked.create(ShopChild)
        stocked.pnew(ShopChild, parent_name="dram", age=3)
        stocked.pnew(ShopChild, parent_name="z80", age=5)
        items = stocked.cluster(ShopItem)
        kids = stocked.cluster(ShopChild)
        q = forall(items, kids).join_on(A.name, A.parent_name).suchthat(
            lambda i, c: c.age > 4)
        assert {(i.name, c.age) for i, c in q} == {("z80", 5)}

    def test_callable_predicate_has_compiled_form(self):
        from repro.query.predicates import Callable_
        pred = Callable_(lambda obj: obj > 3)
        check = pred.compiled()
        assert check is pred.compiled()      # cached
        assert check(5) is True
        assert check(1) is False

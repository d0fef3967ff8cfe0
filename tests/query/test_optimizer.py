"""Tests for plan selection: index equality, index range, residuals."""

import pytest

from repro.core import FloatField, IntField, OdeObject, RefField, StringField
from repro.query import (A, FullScan, IndexEquality, IndexRange, choose_plan,
                         forall)
from repro.query.predicates import TrueP, as_predicate


class Product(OdeObject):
    sku = StringField(default="")
    price = FloatField(default=0.0)
    stock = IntField(default=0)
    vendor = StringField(default="")


@pytest.fixture
def catalog_db(db):
    db.create(Product)
    for i in range(100):
        db.pnew(Product, sku="sku%03d" % i, price=float(i % 25),
                stock=i, vendor="v%d" % (i % 4))
    db.create_index(Product, "price", kind="btree")
    db.create_index(Product, "vendor", kind="hash")
    return db


def plan_for(db, pred):
    return choose_plan(db.cluster(Product), as_predicate(pred))


class TestPlanSelection:
    def test_no_predicate_full_scan(self, catalog_db):
        assert isinstance(plan_for(catalog_db, None), FullScan)

    def test_opaque_callable_full_scan(self, catalog_db):
        assert isinstance(plan_for(catalog_db, lambda p: True), FullScan)

    def test_equality_on_hash_indexed(self, catalog_db):
        plan = plan_for(catalog_db, A.vendor == "v1")
        assert isinstance(plan, IndexEquality)
        assert plan.field == "vendor"

    def test_equality_on_btree_indexed(self, catalog_db):
        plan = plan_for(catalog_db, A.price == 3.0)
        assert isinstance(plan, IndexEquality)

    def test_range_on_btree(self, catalog_db):
        plan = plan_for(catalog_db, (A.price >= 5.0) & (A.price < 10.0))
        assert isinstance(plan, IndexRange)
        assert plan.lo == 5.0 and not plan.lo_strict
        assert plan.hi == 10.0 and plan.hi_strict

    def test_tightest_bounds_chosen(self, catalog_db):
        plan = plan_for(catalog_db,
                        (A.price > 2.0) & (A.price > 5.0) & (A.price <= 20.0))
        assert plan.lo == 5.0 and plan.lo_strict

    def test_range_on_unindexed_field_full_scan(self, catalog_db):
        plan = plan_for(catalog_db, A.stock > 50)
        assert isinstance(plan, FullScan)

    def test_range_on_hash_index_is_an_index_range(self, catalog_db):
        """``kind="hash"`` builds the one index structure, so a range on
        it is an index range — returning exactly the full scan's rows."""
        pred = (A.vendor > "v1") & (A.vendor <= "v2")
        plan = plan_for(catalog_db, pred)
        assert isinstance(plan, IndexRange)
        assert plan.lo == "v1" and plan.lo_strict
        assert plan.hi == "v2" and not plan.hi_strict
        indexed = sorted(p.sku for p in forall(
            catalog_db.cluster(Product)).suchthat(pred))
        scanned = sorted(p.sku for p in catalog_db.cluster(Product)
                         if "v1" < p.vendor <= "v2")
        assert indexed == scanned and len(scanned) == 25

    def test_equality_preferred_over_range(self, catalog_db):
        plan = plan_for(catalog_db, (A.price < 10.0) & (A.vendor == "v2"))
        assert isinstance(plan, IndexEquality)
        assert plan.field == "vendor"

    def test_or_disables_index(self, catalog_db):
        plan = plan_for(catalog_db, (A.vendor == "v1") | (A.price == 2.0))
        assert isinstance(plan, FullScan)

    def test_non_cluster_source_full_scan(self, catalog_db):
        plan = choose_plan([1, 2, 3], as_predicate(A.vendor == "v1"))
        assert isinstance(plan, FullScan)


class TestPlanResults:
    """Whatever the plan, results must equal the brute-force answer."""

    @pytest.mark.parametrize("pred_factory", [
        lambda: A.vendor == "v1",
        lambda: A.price == 3.0,
        lambda: (A.price >= 5.0) & (A.price < 8.0),
        lambda: (A.price < 4.0) & (A.stock > 20),
        lambda: (A.vendor == "v0") & (A.price > 10.0),
        lambda: A.price.between(2.0, 6.0),
    ])
    def test_matches_brute_force(self, catalog_db, pred_factory):
        pred = as_predicate(pred_factory())
        fast = {p.sku for p in
                forall(catalog_db.cluster(Product)).suchthat(pred_factory())}
        slow = {p.sku for p in catalog_db.cluster(Product) if pred(p)}
        assert fast == slow
        assert fast  # non-degenerate test data

    def test_index_sees_uncommitted_txn_writes(self, catalog_db):
        db = catalog_db
        with db.transaction():
            target = next(iter(db.cluster(Product)))
            target.vendor = "brand-new-vendor"
            found = forall(db.cluster(Product)).suchthat(
                A.vendor == "brand-new-vendor").to_list()
            assert [p.sku for p in found] == [target.sku]

    def test_index_maintained_on_update(self, catalog_db):
        db = catalog_db
        victim = forall(db.cluster(Product)).suchthat(
            A.vendor == "v3").first()
        with db.transaction():
            victim.vendor = "v0"
        v3 = forall(db.cluster(Product)).suchthat(A.vendor == "v3")
        assert victim.sku not in {p.sku for p in v3}

    def test_index_maintained_on_delete(self, catalog_db):
        db = catalog_db
        victim = forall(db.cluster(Product)).suchthat(
            A.price == 7.0).first()
        db.pdelete(victim)
        left = forall(db.cluster(Product)).suchthat(A.price == 7.0)
        assert all(p.price == 7.0 for p in left)
        assert left.count() == 3  # was 4 per price class

    def test_index_on_ref_field(self, db):
        class WidgetMaker(OdeObject):
            name = StringField(default="")

        class MadeWidget(OdeObject):
            maker = RefField("WidgetMaker")

        db.create(WidgetMaker)
        db.create(MadeWidget)
        makers = [db.pnew(WidgetMaker, name="m%d" % i) for i in range(3)]
        for i in range(30):
            db.pnew(MadeWidget, maker=makers[i % 3])
        db.create_index(MadeWidget, "maker", kind="hash")
        q = forall(db.cluster(MadeWidget)).suchthat(A.maker == makers[0])
        assert "eq-lookup" in q.explain()
        assert q.count() == 10


class TestCompositeIndexes:
    @pytest.fixture
    def composite_db(self, db):
        db.create(Product)
        for i in range(200):
            db.pnew(Product, sku="sku%03d" % i, price=float(i % 50),
                    stock=i, vendor="v%d" % (i % 4))
        db.create_index(Product, ("vendor", "price"), kind="btree")
        return db

    def test_full_equality_uses_composite(self, composite_db):
        plan = plan_for(composite_db,
                        (A.vendor == "v1") & (A.price == 5.0))
        assert isinstance(plan, IndexEquality)
        assert plan.value == ("v1", 5.0)

    def test_prefix_equality_scan(self, composite_db):
        from repro.query.optimizer import CompositeScan
        plan = plan_for(composite_db, A.vendor == "v2")
        assert isinstance(plan, CompositeScan)
        assert plan.eq_values == ["v2"]

    def test_prefix_plus_range(self, composite_db):
        from repro.query.optimizer import CompositeScan
        plan = plan_for(composite_db,
                        (A.vendor == "v1") & (A.price >= 10.0)
                        & (A.price < 20.0))
        assert isinstance(plan, CompositeScan)
        assert plan.lo == 10.0 and plan.hi == 20.0 and plan.hi_strict

    def test_range_without_prefix_not_served(self, composite_db):
        plan = plan_for(composite_db, A.price < 10.0)
        assert isinstance(plan, FullScan)

    @pytest.mark.parametrize("pred_factory", [
        lambda: (A.vendor == "v1") & (A.price == 5.0),
        lambda: A.vendor == "v2",
        lambda: (A.vendor == "v1") & (A.price >= 10.0) & (A.price < 20.0),
        lambda: (A.vendor == "v0") & (A.price > 40.0),
        lambda: (A.vendor == "v3") & (A.price <= 3.0) & (A.stock > 100),
    ])
    def test_matches_brute_force(self, composite_db, pred_factory):
        from repro.query.predicates import as_predicate
        pred = as_predicate(pred_factory())
        fast = {p.sku for p in forall(
            composite_db.cluster(Product)).suchthat(pred_factory())}
        slow = {p.sku for p in composite_db.cluster(Product) if pred(p)}
        assert fast == slow
        assert fast

    def test_maintained_on_update_and_delete(self, composite_db):
        db = composite_db
        victim = forall(db.cluster(Product)).suchthat(
            (A.vendor == "v1") & (A.price == 5.0)).first()
        with db.transaction():
            victim.vendor = "v9"
        still = forall(db.cluster(Product)).suchthat(
            (A.vendor == "v1") & (A.price == 5.0))
        assert victim.sku not in {p.sku for p in still}
        moved = forall(db.cluster(Product)).suchthat(
            (A.vendor == "v9") & (A.price == 5.0))
        assert {p.sku for p in moved} == {victim.sku}
        db.pdelete(victim)
        assert moved.count() == 0

    def test_composite_survives_reopen(self, tmp_path):
        from repro.core import Database
        path = str(tmp_path / "comp.odb")
        db = Database(path)
        db.create(Product)
        for i in range(40):
            db.pnew(Product, sku="s%d" % i, vendor="v%d" % (i % 2),
                    price=float(i))
        db.create_index(Product, ("vendor", "price"), kind="btree")
        db.close()
        db2 = Database(path)
        q = forall(db2.cluster(Product)).suchthat(
            (A.vendor == "v1") & (A.price > 30.0))
        assert "composite" in q.explain() or "eq-lookup" in q.explain()
        assert q.count() == sum(1 for p in db2.cluster(Product)
                                if p.vendor == "v1" and p.price > 30.0)
        db2.close()

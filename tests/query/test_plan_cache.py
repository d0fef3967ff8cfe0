"""Tests for plan caching and cost-based plan selection under statistics."""

import pytest

from repro.core import FloatField, IntField, OdeObject, StringField
from repro.query import (A, CompositeScan, FullScan, IndexEquality,
                         IndexRange, choose_plan, forall)
from repro.query import optimizer
from repro.query.predicates import as_predicate


class PlanPart(OdeObject):
    sku = StringField(default="")
    bin = StringField(default="")
    weight = FloatField(default=0.0)
    qty = IntField(default=0)


@pytest.fixture
def part_db(db):
    db.create(PlanPart)
    db.create_index(PlanPart, "bin", kind="hash")
    db.create_index(PlanPart, "weight", kind="btree")
    for i in range(100):
        db.pnew(PlanPart, sku="p%03d" % i, bin="b%d" % (i % 20),
                weight=float(i % 25), qty=i)
    return db


def plan_for(db, pred):
    return choose_plan(db.cluster(PlanPart), as_predicate(pred))


class TestPlanCache:
    def test_same_shape_hits_cache(self, part_db):
        cache = part_db.plan_cache
        plan_for(part_db, A.bin == "b1")
        misses = cache.misses
        hits = cache.hits
        plan = plan_for(part_db, A.bin == "b7")  # same shape, new constant
        assert cache.hits == hits + 1
        assert cache.misses == misses
        assert isinstance(plan, IndexEquality)
        assert plan.value == "b7"  # rebound to the new constant

    def test_forall_iterated_twice_builds_one_plan(self, part_db):
        q = forall(part_db.cluster(PlanPart)).suchthat(A.bin == "b3")
        before = optimizer.PLAN_BUILDS
        first = q.to_list()
        second = q.to_list()
        assert [p.sku for p in first] == [p.sku for p in second]
        assert optimizer.PLAN_BUILDS == before + 1

    def test_distinct_foralls_share_db_cache(self, part_db):
        q1 = forall(part_db.cluster(PlanPart)).suchthat(A.bin == "b3")
        q1.to_list()
        before = optimizer.PLAN_BUILDS
        q2 = forall(part_db.cluster(PlanPart)).suchthat(A.bin == "b9")
        q2.to_list()
        assert optimizer.PLAN_BUILDS == before  # served from the db cache

    def test_index_ddl_invalidates(self, part_db):
        plan_for(part_db, A.qty == 5)  # full scan: qty unindexed
        assert isinstance(plan_for(part_db, A.qty == 5), FullScan)
        part_db.create_index(PlanPart, "qty", kind="hash")
        plan = plan_for(part_db, A.qty == 5)
        assert isinstance(plan, IndexEquality)  # epoch bump replanned

    def test_drift_invalidates(self, part_db):
        plan_for(part_db, A.bin == "b1")
        inval = part_db.plan_cache.invalidations
        # Mutate far past the drift limit (max(32, 25) for 100 rows).
        for i in range(120):
            part_db.pnew(PlanPart, sku="n%d" % i, bin="b1", weight=1.0)
        plan_for(part_db, A.bin == "b1")
        assert part_db.plan_cache.invalidations == inval + 1

    def test_abort_clears_cache(self, part_db):
        plan_for(part_db, A.bin == "b1")
        assert part_db.plan_cache.stats()["entries"] > 0
        try:
            with part_db.transaction():
                part_db.pnew(PlanPart, sku="x", bin="b0")
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert part_db.plan_cache.stats()["entries"] == 0

    def test_opaque_predicates_not_cached(self, part_db):
        entries = part_db.plan_cache.stats()["entries"]
        plan_for(part_db, lambda p: p.qty > 5)
        assert part_db.plan_cache.stats()["entries"] == entries


class TestCostBasedSelection:
    def test_plan_flips_to_full_scan_as_stats_change(self, part_db):
        """The acceptance case: a plan must flip index -> full scan once
        the statistics say the indexed value became too common."""
        pred = A.bin == "hotspot"
        assert isinstance(plan_for(part_db, pred), IndexEquality)
        # Make "hotspot" the value of ~95% of the cluster: an index probe
        # now fetches nearly every row at random-access cost.
        for i in range(1900):
            part_db.pnew(PlanPart, sku="h%d" % i, bin="hotspot", weight=2.0)
        plan = plan_for(part_db, pred)
        assert isinstance(plan, FullScan)
        # ... while a still-rare value keeps using the index.
        rare = plan_for(part_db, A.bin == "b1")
        assert isinstance(rare, IndexEquality)

    def test_low_selectivity_range_on_tiny_cluster(self, db):
        db.create(PlanPart)
        db.create_index(PlanPart, "weight", kind="btree")
        for i in range(10):
            db.pnew(PlanPart, sku="p%d" % i, weight=float(i))
        # The range covers the whole domain: scanning 10 rows costs less
        # than probing the index and fetching all 10 at random.
        plan = choose_plan(db.cluster(PlanPart),
                           as_predicate(A.weight >= 0.0))
        assert isinstance(plan, FullScan)

    def test_estimates_reported_in_describe(self, part_db):
        for pred in [A.bin == "b1", (A.weight >= 3.0) & (A.weight < 9.0),
                     A.qty == 5]:
            plan = plan_for(part_db, pred)
            text = plan.describe()
            assert "est" in text and "cost" in text

    def test_estimated_rows_use_exact_frequency(self, part_db):
        plan = plan_for(part_db, A.bin == "b1")
        assert plan.estimated_rows == pytest.approx(5.0)  # 100 rows / 20 bins

    def test_composite_prefix_with_trailing_range(self, db):
        db.create(PlanPart)
        db.create_index(PlanPart, ("bin", "weight"), kind="btree")
        for i in range(120):
            db.pnew(PlanPart, sku="p%03d" % i, bin="b%d" % (i % 3),
                    weight=float(i % 40))
        pred = as_predicate((A.bin == "b1") & (A.weight >= 10.0)
                            & (A.weight < 20.0))
        plan = choose_plan(db.cluster(PlanPart), pred)
        assert isinstance(plan, CompositeScan)
        assert plan.lo == 10.0 and plan.hi == 20.0
        expected = {p.sku for p in db.cluster(PlanPart)
                    if p.bin == "b1" and 10.0 <= p.weight < 20.0}
        rows = {p.sku for chunk in plan.chunks(None) for p in chunk}
        assert rows == expected  # the residual is empty: every bound is a key
        assert expected

    def test_desc_sort_is_stable(self, part_db):
        # weight has 4 duplicates per value; equal-weight runs must keep
        # their original (ascending-scan) relative order under desc.
        q = forall(part_db.cluster(PlanPart)).suchthat(
            (A.weight >= 0.0) & (A.weight <= 30.0)).by(A.weight, desc=True)
        rows = q.to_list()
        weights = [p.weight for p in rows]
        assert weights == sorted(weights, reverse=True)
        asc = forall(part_db.cluster(PlanPart)).suchthat(
            (A.weight >= 0.0) & (A.weight <= 30.0)).by(A.weight).to_list()
        by_weight = {}
        for p in asc:
            by_weight.setdefault(p.weight, []).append(p.sku)
        for w, group in by_weight.items():
            desc_group = [p.sku for p in rows if p.weight == w]
            assert desc_group == group  # stable: tie order preserved

    def test_index_range_still_wins_when_selective(self, part_db):
        plan = plan_for(part_db, (A.weight >= 1.0) & (A.weight < 3.0))
        assert isinstance(plan, IndexRange)

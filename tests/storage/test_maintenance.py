"""Tests for store maintenance: vacuum and integrity verification."""

import pytest

from repro.storage.store import Store


@pytest.fixture
def churned(store):
    """A cluster that has seen heavy insert/update/delete churn."""
    txn = store.begin()
    store.create_cluster(txn, "c")
    for i in range(300):
        store.put(txn, "c", (i, 0), {"i": i, "pad": "x" * (i % 200)})
    store.commit(txn)
    txn = store.begin()
    for i in range(0, 300, 2):
        store.delete(txn, "c", (i, 0))
    for i in range(1, 300, 4):
        store.put(txn, "c", (i, 0), {"i": i, "pad": "y" * 3000})  # relocate
    store.commit(txn)
    return store


class TestVacuum:
    def test_preserves_contents(self, churned):
        before = {key: churned.get("c", key)
                  for key, _ in churned._directory("c").items()}
        report = churned.vacuum("c")
        assert report["objects"] == len(before) == 150
        assert report["pages_freed"] > 0
        for key, value in before.items():
            assert churned.get("c", key) == value

    def test_frees_pages_for_reuse(self, churned):
        # page_count never shrinks (freed pages join the in-file free
        # list), so the observable benefit is that post-vacuum inserts
        # recycle those pages instead of growing the file.
        report = churned.vacuum("c")
        assert report["pages_freed"] > 50
        pages_after_vacuum = churned.stats()["pages"]
        txn = churned.begin()
        for i in range(1000, 1100):
            churned.put(txn, "c", (i, 0), {"i": i})
        churned.commit(txn)
        assert churned.stats()["pages"] == pages_after_vacuum

    def test_secondary_indexes_stay_valid(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "group", kind="btree")
        for i in range(100):
            store.put(txn, "c", (i, 0), {"group": i % 5})
            store.index("c", "group").insert(txn, i % 5, i)
        store.commit(txn)
        store.vacuum("c")
        assert len(store.index("c", "group").search(2)) == 20
        assert store.verify_integrity() == []

    def test_vacuum_empty_cluster(self, store):
        txn = store.begin()
        store.create_cluster(txn, "empty")
        store.commit(txn)
        report = store.vacuum("empty")
        assert report["objects"] == 0

    def test_vacuum_survives_reopen(self, db_path):
        s = Store(db_path)
        txn = s.begin()
        s.create_cluster(txn, "c")
        for i in range(50):
            s.put(txn, "c", (i, 0), {"i": i})
        s.commit(txn)
        s.vacuum("c")
        s.close()
        s2 = Store(db_path)
        assert s2.get("c", (25, 0)) == {"i": 25}
        assert s2.verify_integrity() == []
        s2.close()

    def test_vacuum_with_overflow_records(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"big": "z" * 20000})
        store.put(txn, "c", (2, 0), {"small": 1})
        store.commit(txn)
        store.vacuum("c")
        assert store.get("c", (1, 0)) == {"big": "z" * 20000}
        assert store.verify_integrity() == []


class TestVerifyIntegrity:
    def test_clean_store(self, churned):
        assert churned.verify_integrity() == []

    def test_detects_dangling_index_entry(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.create_index(txn, "c", "f", kind="hash")
        store.put(txn, "c", (1, 0), {"f": "x"})
        store.index("c", "f").insert(txn, "x", 1)
        store.index("c", "f").insert(txn, "ghost", 999)  # no object 999
        store.commit(txn)
        problems = store.verify_integrity()
        assert any("missing serial" in p for p in problems)

    def test_detects_count_mismatch(self, store):
        txn = store.begin()
        store.create_cluster(txn, "c")
        store.put(txn, "c", (1, 0), {"v": 1})
        # Delete from the heap behind the directory's back.
        hit = store._directory("c").search((1, 0))
        from repro.storage.heap import RID
        store._heap("c").delete(txn, RID(*hit))
        store.commit(txn)
        problems = store.verify_integrity()
        assert problems  # unreadable RID and/or count mismatch reported


class TestClusterPlacement:
    def test_interleaved_growth_then_vacuum_reclusters(self, store):
        """Two clusters grown in alternation interleave their pages;
        vacuum rewrites each into (nearly) contiguous runs."""
        txn = store.begin()
        store.create_cluster(txn, "a")
        store.create_cluster(txn, "b")
        for i in range(400):
            store.put(txn, "a", (i, 0), {"i": i, "pad": "a" * 120})
            store.put(txn, "b", (i, 0), {"i": i, "pad": "b" * 120})
        store.commit(txn)
        before = store.fragmentation("a")
        store.vacuum("a")
        after = store.fragmentation("a")
        assert after["pages"] > 1
        # The rewrite packs the cluster into fewer, longer runs.
        assert after["runs"] <= before["runs"]
        assert after["fragmentation"] <= before["fragmentation"]
        # And the data survives intact.
        for i in range(0, 400, 37):
            assert store.get("a", (i, 0))["i"] == i

    def test_fragmentation_report_shape(self, store):
        txn = store.begin()
        store.create_cluster(txn, "solo")
        for i in range(50):
            store.put(txn, "solo", (i, 0), {"i": i, "pad": "z" * 100})
        store.commit(txn)
        report = store.fragmentation("solo")
        assert set(report) == {"pages", "span", "runs", "fragmentation",
                               "directory"}
        assert report["directory"] == {
            "layout": "table", "leaf_pages": 1, "live_entries": 50,
            "dead_entries": 0}
        assert report["pages"] >= 1
        assert report["span"] >= report["pages"]
        assert report["fragmentation"] >= 1.0

    def test_extent_growth_keeps_new_cluster_contiguous(self, store):
        """A cluster grown alone with extent allocation stays one run
        (or close): chain order matches physical order."""
        txn = store.begin()
        store.create_cluster(txn, "big")
        for i in range(600):
            store.put(txn, "big", (i, 0), {"i": i, "pad": "q" * 150})
        store.commit(txn)
        report = store.fragmentation("big")
        assert report["pages"] > 8          # spans several extents
        # Contiguous extents: far fewer runs than pages.
        assert report["runs"] <= max(2, report["pages"] // 4)

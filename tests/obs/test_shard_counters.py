"""Per-shard scan counters stay exact under concurrent scans (ISSUE 9).

The counters used to be plain-int list elements (`scans[sid] += 1`), a
read-modify-write that loses updates when application threads scanning
the same cluster bump the same shard concurrently. They are
itertools.count objects now (GIL-atomic bumps, same idiom as
obs.metrics.Counter); these tests pin the exactness.
"""

import threading

import pytest

from repro import Database, IntField, OdeObject, StringField
from repro.obs.metrics import _count_value


class ShardItem(OdeObject):
    name = StringField(default="")
    n = IntField(default=0)


@pytest.fixture
def sharded_db(tmp_path):
    db = Database(str(tmp_path / "sharded.odb"), shards=4)
    db.create(ShardItem, exist_ok=True)
    with db.transaction():
        for i in range(120):
            db.pnew(ShardItem, name="it%d" % i, n=i)
    yield db
    db.close()


def _scan_totals(db):
    return [_count_value(c) for c in db.store._shard_scans]


class TestShardScanCounters:
    def test_serial_scan_bumps_every_shard_once(self, sharded_db):
        before = _scan_totals(sharded_db)
        # Store-level scans yield raw records (version rows included),
        # so consume without asserting a logical object count.
        rows = sum(1 for _ in sharded_db.store.scan("ShardItem"))
        assert rows >= 120
        after = _scan_totals(sharded_db)
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1, 1]

    def test_concurrent_scans_count_exactly(self, sharded_db):
        n_threads, n_scans = 8, 12
        before = _scan_totals(sharded_db)
        errors = []

        def worker():
            try:
                for _ in range(n_scans):
                    rows = sum(
                        1 for _ in sharded_db.store.scan("ShardItem"))
                    assert rows >= 120
            except Exception as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        after = _scan_totals(sharded_db)
        expected = n_threads * n_scans
        assert [a - b for a, b in zip(after, before)] == [expected] * 4

    def test_concurrent_batch_scans_count_exactly(self, sharded_db):
        """Batched scans from several client threads bump every shard."""
        n_threads, n_scans = 4, 8
        before = _scan_totals(sharded_db)

        def worker():
            for _ in range(n_scans):
                total = sum(len(batch) for batch in
                            sharded_db.store.scan_batches("ShardItem"))
                assert total >= 120

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = _scan_totals(sharded_db)
        expected = n_threads * n_scans
        assert [a - b for a, b in zip(after, before)] == [expected] * 4

    def test_stats_and_metric_agree(self, sharded_db):
        list(sharded_db.store.scan("ShardItem"))
        per_shard = sharded_db.stats()["shards"]["scans"]
        assert per_shard == _scan_totals(sharded_db)
        assert sharded_db.metrics.get("shard.scans") == sum(per_shard)

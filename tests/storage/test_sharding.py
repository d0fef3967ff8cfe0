"""Sharded storage (ISSUE 8): gpid routing, per-shard structures,
persistence, sharded vacuum, reclustering and the stats/metrics surface."""

import os
import subprocess
import sys

import pytest

from repro.core import IntField, OdeObject
from repro.core.database import Database
from repro.errors import StorageError
from repro.storage.catalog import ClusterInfo
from repro.storage.faults import DIE_EXIT_CODE
from repro.storage.heap import RID
from repro.storage.sharding import (LOCAL_MASK, MAX_SHARDS, SHARD_SHIFT,
                                    global_page, local_page, shard_of,
                                    shard_path)
from repro.storage.store import Store


@pytest.fixture
def sharded(tmp_path):
    s = Store(str(tmp_path / "s.pages"), shards=4)
    yield s
    if not s._closed:
        s.close()


def fill(store, n=120, cluster="c"):
    txn = store.begin()
    if not store.has_cluster(cluster):
        store.create_cluster(txn, cluster)
    serials = []
    for i in range(n):
        serial = store.allocate_serial(txn, cluster)
        store.put(txn, cluster, (serial, 0),
                  {"__key": [serial, 0], "n": i}, new=True)
        serials.append(serial)
    store.commit(txn)
    return serials


@pytest.mark.parametrize("seeds", [8, 400])
@pytest.mark.parametrize("shards", [1, 4])
def test_scan_fixpoint_across_shards(tmp_path, shards, seeds):
    """Paper section 3.2: records inserted during a scan are visited,
    including those that route to a shard the walk already passed. 400
    seeds grow every shard past its first extent, so inserts land on
    pages *before* the chain's tail."""
    s = Store(str(tmp_path / "fix.pages"), shards=shards)
    fill(s, seeds)
    seen = []
    txn = s.begin()
    for batch in s.scan_batches("c"):
        for _rid, record in batch:
            seen.append(record["n"])
            if record["n"] < seeds:
                serial = s.allocate_serial(txn, "c")
                s.put(txn, "c", (serial, 0),
                      {"__key": [serial, 0], "n": seeds + record["n"]},
                      new=True)
    s.commit(txn)
    assert sorted(seen) == list(range(2 * seeds))
    s.close()


class TestGpid:
    def test_roundtrip(self):
        for shard in (0, 1, 5, MAX_SHARDS - 1):
            for local in (1, 17, LOCAL_MASK):
                gpid = global_page(shard, local)
                assert shard_of(gpid) == shard
                assert local_page(gpid) == local

    def test_shard0_is_identity(self):
        # Shard-0 gpids equal their local page numbers, which is what
        # keeps a 1-shard store byte-identical to the pre-sharding format.
        for local in (1, 2, 1000):
            assert global_page(0, local) == local

    def test_shift_fits_wal_u32(self):
        assert global_page(MAX_SHARDS - 1, LOCAL_MASK) < 2 ** 32
        assert MAX_SHARDS - 1 == (2 ** 32 - 1) >> SHARD_SHIFT

    def test_shard_path(self):
        assert shard_path("/x/db.pages", 0) == "/x/db.pages"
        assert shard_path("/x/db.pages", 3) == "/x/db.pages.s3"


class TestCreation:
    def test_shard_files_exist(self, tmp_path, sharded):
        assert sharded.n_shards == 4
        for sid in range(1, 4):
            assert os.path.exists(shard_path(str(tmp_path / "s.pages"),
                                             sid))

    def test_count_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.pages")
        s = Store(path, shards=3)
        fill(s, 30)
        s.close()
        # Neither the parameter nor the env var can change an existing
        # store's count.
        s2 = Store(path, shards=8)
        assert s2.n_shards == 3
        assert s2.count("c") == 30
        s2.close()

    def test_env_var_applies_to_fresh_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        s = Store(str(tmp_path / "e.pages"))
        assert s.n_shards == 2
        s.close()

    def test_malformed_env_var_is_refused_before_anything_persists(
            self, tmp_path, monkeypatch):
        """``REPRO_SHARDS=4x`` once created (and persisted) a 1-shard
        store, which a corrected ``REPRO_SHARDS=4`` could not undo."""
        path = str(tmp_path / "m.pages")
        monkeypatch.setenv("REPRO_SHARDS", "4x")
        with pytest.raises(StorageError, match="4x"):
            Store(path)
        assert not os.path.exists(path)
        monkeypatch.setenv("REPRO_SHARDS", "4")
        s = Store(path)
        assert s.n_shards == 4
        s.close()

    def test_existing_unsharded_store_stays_unsharded(self, tmp_path):
        path = str(tmp_path / "u.pages")
        s = Store(path)
        fill(s, 10)
        s.close()
        s2 = Store(path, shards=4)
        assert s2.n_shards == 1
        assert s2.count("c") == 10
        s2.close()

    def test_too_many_shards_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Store(str(tmp_path / "t.pages"), shards=MAX_SHARDS + 1)

    def test_single_shard_has_no_router(self, tmp_path):
        s = Store(str(tmp_path / "one.pages"))
        assert s._router is None
        s.close()


class TestOperations:
    def test_put_get_delete_route_by_serial(self, sharded):
        serials = fill(sharded, 100)
        for i, serial in enumerate(serials):
            assert sharded.get("c", (serial, 0))["n"] == i
        assert sharded.exists("c", (serials[0], 0))
        txn = sharded.begin()
        assert sharded.delete(txn, "c", (serials[0], 0))
        sharded.commit(txn)
        assert sharded.get("c", (serials[0], 0)) is None
        assert sharded.count("c") == 99

    def test_objects_spread_across_all_shards(self, sharded):
        fill(sharded, 100)
        per_shard = [sharded._heap("c", sid).count() for sid in range(4)]
        assert sum(per_shard) == 100
        assert all(count > 0 for count in per_shard)

    def test_scan_sees_everything(self, sharded):
        fill(sharded, 100)
        seen = sorted(record["n"] for _rid, record in sharded.scan("c"))
        assert seen == list(range(100))

    def test_scan_batches_sees_everything(self, sharded):
        fill(sharded, 200)
        seen = sorted(record["n"]
                      for batch in sharded.scan_batches("c")
                      for _rid, record in batch)
        assert seen == list(range(200))

    def test_tokens_survive_routing(self, sharded):
        serials = fill(sharded, 20)
        tokens = []
        for serial in serials:
            data, rid, lsn = sharded.get_with_token("c", (serial, 0))
            assert data is not None and lsn > 0
            tokens.append((rid.page_no, lsn))
        assert sharded.tokens_valid(tokens)
        txn = sharded.begin()
        sharded.put(txn, "c", (serials[0], 0),
                    {"__key": [serials[0], 0], "n": -1})
        sharded.commit(txn)
        assert not sharded.tokens_valid(tokens)


class TestVacuumRecluster:
    def test_sharded_vacuum_keeps_objects(self, sharded):
        serials = fill(sharded, 120)
        txn = sharded.begin()
        for serial in serials[:60]:
            sharded.delete(txn, "c", (serial, 0))
        sharded.commit(txn)
        report = sharded.vacuum("c")
        assert report["objects"] == 60
        assert report["pages_freed"] > 0
        assert sharded.count("c") == 60
        assert sharded.verify_integrity() == []
        seen = sorted(record["n"] for _rid, record in sharded.scan("c"))
        assert seen == list(range(60, 120))

    def test_sharded_vacuum_is_one_transaction(self, sharded, monkeypatch):
        fill(sharded, 120)
        commits = []
        commit = sharded._journal.commit
        monkeypatch.setattr(sharded._journal, "commit",
                            lambda txn: commits.append(txn) or commit(txn))
        sharded.vacuum("c")
        assert len(commits) == 1

    def test_sharded_vacuum_failure_rolls_back_every_shard(
            self, sharded, monkeypatch):
        fill(sharded, 120)
        before = [list(pair) for pair in sharded.cluster_info("c").shards]
        rewrite = sharded._rewrite_shard

        def fail_on_shard_2(txn, cluster, shard, hot_rank=None):
            if shard == 2:
                raise RuntimeError("injected")
            return rewrite(txn, cluster, shard, hot_rank)

        with monkeypatch.context() as patch:
            patch.setattr(sharded, "_rewrite_shard", fail_on_shard_2)
            with pytest.raises(RuntimeError):
                sharded.vacuum("c")
        assert sharded.cluster_info("c").shards == before
        assert sharded.count("c") == 120
        assert sharded.verify_integrity() == []
        assert sharded.vacuum("c")["objects"] == 120

    def test_die_between_shard_rewrites_keeps_old_chains(self, tmp_path):
        """A process death after two of four shards were rewritten (and
        swapped into the in-memory catalog) recovers to the pre-vacuum
        chains: the whole vacuum is one uncommitted transaction."""
        path = str(tmp_path / "die.pages")
        s = Store(path, shards=4)
        serials = fill(s, 120)
        txn = s.begin()
        for serial in serials[:60]:
            s.delete(txn, "c", (serial, 0))
        s.commit(txn)
        before = [list(pair) for pair in s.cluster_info("c").shards]
        s.close()
        child = (
            "import sys\n"
            "from repro.storage.store import Store\n"
            "s = Store(sys.argv[1])\n"
            "swap = s._swap_structs\n"
            "def swap_then_die(cluster, shard, heap, directory):\n"
            "    swap(cluster, shard, heap, directory)\n"
            "    if shard == 1:\n"
            "        s._wal.flush()\n"
            "        s.faults.die()\n"
            "s._swap_structs = swap_then_die\n"
            "s.vacuum('c')\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", child, path],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == DIE_EXIT_CODE, proc.stderr.decode()
        s2 = Store(path)
        assert s2.last_recovery is not None
        assert s2.cluster_info("c").shards == before
        assert s2.verify_integrity() == []
        seen = sorted(record["n"] for _rid, record in s2.scan("c"))
        assert seen == list(range(60, 120))
        s2.close()

    def test_recluster_moves_hot_serials_first(self, sharded):
        serials = fill(sharded, 80)
        hot = [s for s in serials if sharded._shard_of_key((s, 0)) == 1][:3]
        report = sharded.recluster_shard("c", hot, shard=1)
        assert report["moved"] == len(hot)
        assert sharded.count("c") == 80
        assert sharded.verify_integrity() == []
        # The hot serials now occupy the first slots of the shard's heap.
        heap = sharded._heap("c", 1)
        leading = []
        for _rid, raw in heap.scan():
            from repro.storage.codec import decode_value
            leading.append(decode_value(raw)["__key"][0])
            if len(leading) == len(hot):
                break
        assert leading == hot

    def test_recluster_counters_and_event(self, sharded):
        fill(sharded, 40)
        sharded.recluster_shard("c", [], shard=2)
        assert sharded.recluster_runs == 1
        assert any(e["kind"] == "recluster"
                   for e in sharded.events.snapshot())

    def test_recluster_on_single_shard_store(self, tmp_path):
        s = Store(str(tmp_path / "one.pages"))
        serials = fill(s, 30)
        report = s.recluster_shard("c", serials[10:13], shard=0)
        assert report["moved"] == 3
        assert s.count("c") == 30
        assert s.verify_integrity() == []
        s.close()

    def test_vacuum_survives_reopen(self, tmp_path):
        path = str(tmp_path / "v.pages")
        s = Store(path, shards=4)
        serials = fill(s, 100)
        txn = s.begin()
        for serial in serials[::2]:
            s.delete(txn, "c", (serial, 0))
        s.commit(txn)
        s.vacuum("c")
        s.close()
        s2 = Store(path)
        assert s2.count("c") == 50
        assert s2.verify_integrity() == []
        s2.close()


class TestAccessProfile:
    def test_get_records_hits_when_tracking(self, sharded):
        serials = fill(sharded, 10)
        sharded.track_access = True
        for _ in range(5):
            sharded.get("c", (serials[0], 0))
        profile = sharded.take_access_profile()
        assert profile[("c", serials[0])] == 5
        assert sharded.take_access_profile() == {}

    def test_tracking_off_by_default(self, sharded):
        serials = fill(sharded, 5)
        sharded.get("c", (serials[0], 0))
        assert sharded.take_access_profile() == {}


class TestStatsAndMetrics:
    def test_fragmentation_has_shard_breakdown(self, sharded):
        fill(sharded, 60)
        frag = sharded.fragmentation("c")
        assert len(frag["shards"]) == 4
        assert frag["pages"] == sum(e["pages"] for e in frag["shards"])

    def test_single_shard_fragmentation_unchanged(self, tmp_path):
        s = Store(str(tmp_path / "f.pages"))
        fill(s, 30)
        frag = s.fragmentation("c")
        assert "shards" not in frag
        s.close()

    def test_stats_shard_section(self, sharded):
        fill(sharded, 60)
        list(sharded.scan("c"))
        stats = sharded.stats()["shards"]
        assert stats["count"] == 4
        assert len(stats["per_shard"]) == 4
        assert all(e["pages"] > 0 for e in stats["per_shard"])
        assert abs(sum(e["occupancy"] for e in stats["per_shard"])
                   - 1.0) < 1e-9
        assert all(n >= 1 for n in stats["scans"])

    def test_metrics_promlint_clean(self, sharded):
        from repro.obs.metrics import parse_prometheus
        fill(sharded, 30)
        list(sharded.scan("c"))
        text = sharded.metrics.render_prometheus()
        assert "ode_shard_scans" in text
        assert "ode_recluster_moved_objects" in text
        parse_prometheus(text)  # raises on lint violations


class TestCatalogCodec:
    def test_cluster_record_roundtrips_shards(self):
        info = ClusterInfo("c", 1, [], 5, 9,
                           shards=[[5, 9], [global_page(1, 2),
                                            global_page(1, 3)]])
        back = ClusterInfo.from_record(info.to_record(), RID(1, 0))
        assert back.shards == info.shards

    def test_single_shard_record_omits_field(self):
        from repro.storage.codec import decode_value
        info = ClusterInfo("c", 1, [], 5, 9)
        assert "shards" not in decode_value(info.to_record())
        back = ClusterInfo.from_record(info.to_record(), RID(1, 0))
        assert back.shards == [[5, 9]]


class TestDatabaseLevel:
    def test_database_passes_shards_through(self, tmp_path):
        db = Database(str(tmp_path / "d.odb"), shards=4)
        assert db.store.n_shards == 4
        assert db.stats()["shards"]["count"] == 4
        db.close()

    def test_forall_fixpoint_across_shards(self, tmp_path):
        class GrowNode(OdeObject):
            n = IntField(default=0)

        db = Database(str(tmp_path / "grow.odb"), shards=4)
        db.create(GrowNode)
        for i in range(8):
            db.pnew(GrowNode, n=i)
        seen = []
        for node in db.forall(GrowNode):
            seen.append(node.n)
            if node.n < 8:
                db.pnew(GrowNode, n=8 + node.n)
        assert sorted(seen) == list(range(16))
        db.close()

    def test_recluster_daemon_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RECLUSTER", "0")
        db = Database(str(tmp_path / "nd.odb"))
        assert db.recluster_daemon is None
        db.close()

    def test_recluster_daemon_stops_on_close(self, tmp_path):
        db = Database(str(tmp_path / "dd.odb"))
        daemon = db.recluster_daemon
        assert daemon is not None and daemon.is_alive()
        db.close()
        assert not daemon.is_alive()
        assert db.recluster_daemon is None

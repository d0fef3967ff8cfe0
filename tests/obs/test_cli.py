"""CLI exposition: stats --format=json|prom, events, promlint."""

import json

import pytest

from repro.__main__ import main
from repro.core.database import Database
from repro.obs import parse_prometheus


@pytest.fixture
def seeded_path(db_path):
    db = Database(db_path)
    interp_source = """
    class gizmo { public: char* name; int qty; };
    create gizmo;
    pnew gizmo("a", 1);
    pnew gizmo("b", 2);
    """
    from repro.opp.interp import Interpreter
    Interpreter(db).run(interp_source)
    db.events.emit("slow_query", query="forall", detail="seed", ms=123.0,
                   rows=2)
    db.close()
    return db_path


class TestStatsFormats:
    def test_text_default(self, seeded_path, capsys):
        assert main(["stats", seeded_path]) == 0
        out = capsys.readouterr().out
        assert "buffer pool:" in out
        assert "WAL:" in out
        assert "object directories:" in out
        assert any(line.split()[:4] == ["gizmo", "1", "leaf", "page(s),"]
                   for line in out.splitlines())

    def test_json(self, seeded_path, capsys):
        assert main(["stats", seeded_path, "--format=json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        # canonical namespaces plus the compat alias
        for key in ("buffer", "buffer_pool", "wal", "plan_cache",
                    "locks", "txn", "clusters"):
            assert key in stats
        assert stats["buffer"] == stats["buffer_pool"]
        assert "hit_ratio" in stats["buffer"]
        assert stats["directory"]["gizmo"] == {
            "leaf_pages": 1, "live_entries": 2, "dead_entries": 0}
        assert stats["fragmentation"]["gizmo"]["directory"] == \
            stats["directory"]["gizmo"]
        # the page-file format and each cluster's record layouts
        assert stats["storage"]["format_version"] == 6
        assert stats["storage"]["layouts"]["gizmo"] == 1

    def test_text_names_the_format_and_the_layouts(self, seeded_path,
                                                   capsys):
        assert main(["stats", seeded_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [line for line in lines if line.startswith("storage:")]
        assert "page-file format 6" in line and "gizmo 1" in line

    def test_prom(self, seeded_path, capsys):
        assert main(["stats", seeded_path, "--format=prom"]) == 0
        text = capsys.readouterr().out
        families = parse_prometheus(text)
        # the acceptance criterion: buffer, WAL, lock, txn and plan-cache
        # metrics all present in valid exposition format
        for family in ("ode_buffer_hits_total", "ode_wal_appends_total",
                       "ode_lock_grants_total", "ode_txn_commits_total",
                       "ode_plan_cache_hits_total"):
            assert family in families, family
        # the per-cluster object-directory block (taken on demand)
        gizmo = {"cluster": "gizmo"}
        assert families["ode_directory_live_entries"].count(
            (gizmo, 2.0)) == 1
        assert (gizmo, 0.0) in families["ode_directory_dead_entries"]
        assert (gizmo, 1.0) in families["ode_directory_leaf_pages"]
        assert "ode_directory_layout" not in families


class TestEventsCommand:
    def test_events_lists_sidecar(self, seeded_path, capsys):
        assert main(["events", seeded_path]) == 0
        out = capsys.readouterr().out
        assert "slow_query" in out
        assert "ms=123.0" in out

    def test_events_limit(self, seeded_path, capsys):
        assert main(["events", seeded_path, "--limit", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.splitlines()) == 1

    def test_events_empty(self, db_path, capsys):
        Database(db_path).close()
        assert main(["events", db_path]) == 0
        assert "(no events)" in capsys.readouterr().out


class TestPromlint:
    def test_valid_file(self, tmp_path, seeded_path, capsys):
        assert main(["stats", seeded_path, "--format=prom"]) == 0
        text = capsys.readouterr().out
        prom = tmp_path / "metrics.prom"
        prom.write_text(text)
        assert main(["promlint", str(prom)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        prom = tmp_path / "bad.prom"
        prom.write_text("ode_x{le=} garbage\n")
        assert main(["promlint", str(prom)]) == 1
        assert "promlint:" in capsys.readouterr().err

"""Checks of the benchmark itself: ``python -m pytest bench/tests -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``). The end-to-end
cases spawn ``bench/run.py --quick`` and take about a minute together.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import harness  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_schema(spec):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        raw = json.load(f)
    assert set(raw) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert raw["paths"] == ["bench"]
    assert raw["command"] == ["python3", "bench/run.py"]
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    for w in raw["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert 1 <= len(raw["end_to_end"]) <= 16
    for m in raw["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(raw["per_layer"]) <= 128
    for m in raw["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in raw["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in raw["end_to_end"])


def test_names_and_units(spec):
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))


def test_conditions_cover_every_workload_and_layer_metric(spec):
    cond = spec["conditions"]
    assert cond["claim"] is None
    assert cond["fixed"]["windows"] == harness.WINDOWS
    assert set(cond["workloads"]) == {w["name"] for w in spec["workloads"]}
    moves = cond["per_layer_moves"]
    assert set(moves) == {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, targets in moves.items():
        for target in targets:
            metric, _, workload = target.partition("@")
            assert metric in end_to_end, (name, target)
            assert workload in cond["workloads"], (name, target)


# -- op streams -------------------------------------------------------------

def _stream(spec, workload, seed, n=400):
    cfg = spec["conditions"]["workloads"][workload]
    if workload.startswith("embedded"):
        from embedded import Embedded
        wl = Embedded(workload, cfg, seed, "unused")
        wl.reset()
        return wl.plan(n)
    if workload == "analytics":
        from analytics import Analytics
        wl = Analytics(cfg, seed, "unused")
        wl.reset()
        return wl.plan(n)
    from server_oltp import ServerOltp
    wl = ServerOltp(cfg, seed, "unused")
    wl.reset()
    return [wl.plan(conn, n) for conn in range(2)]


@pytest.mark.parametrize("workload", ["embedded_hot", "embedded_cold",
                                      "analytics", "server_oltp"])
def test_seed_fixes_the_op_stream(spec, workload):
    assert _stream(spec, workload, 7) == _stream(spec, workload, 7)
    assert _stream(spec, workload, 7) != _stream(spec, workload, 8)


def test_mix_follows_declared_weights(spec):
    ops = _stream(spec, "embedded_hot", 3, n=20000)
    mix = spec["conditions"]["workloads"]["embedded_hot"]["mix"]
    total = sum(mix.values())
    for kind, weight in mix.items():
        share = sum(1 for op in ops if op[0] == kind) / len(ops)
        assert abs(share - weight / total) < 0.02, kind


# -- helpers ----------------------------------------------------------------

def test_windowed_percentile_ignores_one_bad_window():
    calm = [[1.0] * 99 + [2.0] for _ in range(9)]
    hiccup = [[1.0] * 50 + [500.0] * 50]
    assert harness.windowed_pct(calm + hiccup, 0.5) == 1.0
    assert harness.windowed_pct(calm + hiccup, 0.99) < 3.0
    assert harness.windowed_pct([[], [4.0]], 0.5) == 4.0
    assert harness.windowed_pct([], 0.5) == 0.0


def test_pct_interpolates():
    assert harness.pct([1, 2, 3, 4, 5], 0.5) == 3
    assert harness.pct([10, 20], 0.5) == 15
    assert harness.pct([], 0.99) == 0.0


def test_ladder_stops_at_first_failing_rung(spec):
    limits = {"p99_ms": 100.0, "bad_share": 0.001, "late_tail_ms": 100.0}

    def rung(rate, p99=10.0, bad=0.0, late=0.0):
        return {"rate": rate, "p99_ms": p99, "bad_share": bad,
                "late_tail_ms": late}
    assert harness.highest_passing_rate([rung(90), rung(135)], limits) == 135
    # a later pass after a failure never counts
    assert harness.highest_passing_rate(
        [rung(90), rung(135, p99=250.0), rung(200)], limits) == 90
    assert harness.highest_passing_rate([rung(90, bad=0.01)], limits) == 0
    # p99 in range but the last tenth of arrivals went out late: backlog
    assert harness.highest_passing_rate(
        [rung(90), rung(135, late=400.0)], limits) == 90
    ladder = spec["conditions"]["workloads"]["server_oltp"]["open_loop"]
    assert ladder["ladder"] == sorted(ladder["ladder"])
    assert ladder["fixed_rate"] in ladder["ladder"]


def test_poisson_schedule_is_seeded():
    import random
    a = harness.poisson_due_times(100, 5, random.Random(1))
    assert a == harness.poisson_due_times(100, 5, random.Random(1))
    assert a == sorted(a) and 400 < len(a) < 600 and a[-1] < 5


def test_spans_keep_parent_and_layer():
    spans = harness.Spans()
    root = spans.add("core.update_txn", 0.0, 10.0, -1, 1)
    spans.add("core.commit", 6.0, 10.0, root, 1)
    spans.add("storage.get_cold", 11.0, 12.0, -1, 2)
    assert spans.rows[1][3] == root
    assert spans.durations("core.commit") == [4.0]
    assert spans.layers() == ["core", "storage"]


# -- compare.py -------------------------------------------------------------

def _result_file(tmp_path, name, values, quick=False, metric="ops_per_s",
                 workload="embedded_hot", failed=0):
    runs = [{"workload": workload, "trace": 0, "correct": True,
             "attempted": 1000, "failed": failed,
             "metrics": {m["name"]: {"value": v if m["name"] == metric
                                     else 1.0, "unit": m["unit"]}
                         for m in harness.load_spec()["end_to_end"]}}
            for v in values]
    if metric not in runs[0]["metrics"]:
        for run in runs:
            run["metrics"][metric] = {"value": 1.0, "unit": "x"}
    path = tmp_path / name
    path.write_text(json.dumps({"claim": None, "quick": quick, "runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _result_file(tmp_path, "a.json", [100, 101, 99, 100])
    same = _result_file(tmp_path, "b.json", [99, 100, 101, 100])
    slow = _result_file(tmp_path, "c.json", [70, 71, 69, 70])
    noisy = _result_file(tmp_path, "d.json", [60, 140, 100, 101])
    assert compare.main([base, same]) == 0
    assert compare.main([same, base]) == 0
    assert compare.main([base, slow]) == 1      # ops_per_s: higher is better
    assert compare.main([slow, base]) == 0
    assert compare.main([base, noisy]) == 2
    assert "unresolved" in capsys.readouterr().out


def test_compare_failed_share_rule(tmp_path):
    base = _result_file(tmp_path, "a.json", [100, 101])
    failing = _result_file(tmp_path, "b.json", [100, 101], failed=5)
    assert compare.main([base, failing]) == 1


def test_compare_refuses_bad_input(tmp_path):
    good = _result_file(tmp_path, "a.json", [100, 101])
    quick = _result_file(tmp_path, "q.json", [100, 101], quick=True)
    typo = _result_file(tmp_path, "t.json", [100, 101], metric="ops_per_sec")
    alien = _result_file(tmp_path, "w.json", [100, 101], workload="hot")
    single = _result_file(tmp_path, "s.json", [100])
    for bad in (quick, typo, alien, single):
        assert compare.main([good, bad]) == 3


# -- end to end (quick tier) --------------------------------------------------

def _run(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py")]
                          + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = _run("--quick", "--seconds", "2", "--seed", "11", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_every_declared_metric_is_emitted_with_its_unit(spec, quick_set):
    assert quick_set["quick"] is True and quick_set["claim"] is None
    assert len(quick_set["runs"]) == 2 * len(spec["workloads"])
    for run in quick_set["runs"]:
        declared = spec["per_layer"] if run["trace"] else spec["end_to_end"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert run["metrics"][m["name"]]["unit"] == m["unit"]
        if not run["trace"]:
            assert all(v["value"] > 0 for v in run["metrics"].values())


def test_workloads_separate_their_layers(quick_set):
    traced = {r["workload"]: r["metrics"] for r in quick_set["runs"]
              if r["trace"]}

    def value(workload, name):
        return traced[workload][name]["value"]
    assert value("embedded_hot", "storage.buffer_hit_ratio") >= 0.99
    assert value("embedded_cold", "storage.buffer_hit_ratio") < 0.6
    for workload in ("embedded_hot", "embedded_cold", "analytics"):
        for name in traced[workload]:
            if name.startswith(("opp.", "server.")):
                assert value(workload, name) == 0, (workload, name)
    for workload in ("embedded_hot", "embedded_cold"):
        for name in traced[workload]:
            if name.startswith("query."):
                assert value(workload, name) == 0, (workload, name)
    assert value("analytics", "query.scan_ms_p50") > 0
    assert value("server_oltp", "opp.parse_us_per_stmt") > 0


def test_contract_mode_prints_one_result_object_last():
    proc = _run("--workload", "embedded_hot", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_same_seed_gives_identical_traced_counts():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "embedded_hot", "--seed", "5",
                    "--trace", "1", "--quick")
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(os.path.join(BENCH, ".work",
                               "trace-embedded_hot.json")) as f:
            trace = json.load(f)
        assert trace["layers"] == ["core", "obs", "storage"]
        counts.append(trace["counts"])
    assert counts[0] == counts[1]

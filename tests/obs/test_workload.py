"""Macro workload simulator: specs, driver, sampler, regression gate."""

import json
import threading

import pytest

from repro import Database
from repro.__main__ import main
from repro.obs.workload import (BUILTIN_SCENARIOS, TimeSeriesSampler,
                                WorkloadDriver, compare_reports,
                                format_comparison, get_scenario,
                                load_scenario, load_timeline,
                                parse_scenario)
from repro.obs.workload.spec import ScenarioError
from repro.obs.metrics import MetricsRegistry


def tiny_spec(**overrides):
    base = {
        "name": "tiny",
        "dataset": {"items": 60},
        "duration_s": 0.4,
        "seed": 3,
        "clients": [
            {"count": 2, "mix": {"deref": 4, "update": 1, "pnew": 1}},
        ],
    }
    base.update(overrides)
    return parse_scenario(base)


class TestSpecParsing:
    def test_builtins_all_parse(self):
        for name in BUILTIN_SCENARIOS:
            spec = get_scenario(name)
            assert spec.name == name
            assert spec.phases and spec.total_duration_s > 0

    def test_unknown_scenario_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")

    def test_roundtrip_through_to_dict(self):
        spec = get_scenario("ingest_scan")
        again = parse_scenario(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_scaled_and_with_duration(self):
        spec = get_scenario("oltp").scaled(0.5).with_duration(1.0)
        assert spec.dataset["items"] == 1000
        assert all(p.duration_s == 1.0 for p in spec.phases)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ScenarioError, match="scale factor"):
            get_scenario("oltp").scaled(0)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown keys.*typo"):
            tiny_spec(typo=1)

    def test_unknown_operation(self):
        with pytest.raises(ScenarioError, match="unknown operation"):
            tiny_spec(clients=[{"count": 1, "mix": {"frobnicate": 1}}])

    def test_nonpositive_mix_weight(self):
        with pytest.raises(ScenarioError, match="weight"):
            tiny_spec(clients=[{"count": 1, "mix": {"deref": 0}}])

    def test_open_loop_requires_rate(self):
        with pytest.raises(ScenarioError, match="rate"):
            tiny_spec(clients=[{"count": 1, "mix": {"deref": 1},
                                "arrival": "poisson"}])

    def test_closed_loop_forbids_rate(self):
        with pytest.raises(ScenarioError, match="rate only applies"):
            tiny_spec(clients=[{"count": 1, "mix": {"deref": 1},
                                "rate": 10.0}])

    def test_phases_exclusive_with_shorthand(self):
        with pytest.raises(ScenarioError, match="not both"):
            parse_scenario({
                "name": "x", "duration_s": 1.0,
                "clients": [{"count": 1, "mix": {"deref": 1}}],
                "phases": [{"duration_s": 1.0,
                            "clients": [{"count": 1,
                                         "mix": {"deref": 1}}]}],
            })

    def test_unknown_dataset_key(self):
        with pytest.raises(ScenarioError, match="dataset"):
            tiny_spec(dataset={"widgets": 5})

    def test_unknown_param(self):
        with pytest.raises(ScenarioError, match="params"):
            tiny_spec(params={"nope": 1})

    def test_load_scenario_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(get_scenario("oltp").to_dict()))
        spec = load_scenario(str(path))
        assert spec.name == "oltp"

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))


class TestDriver:
    def test_end_to_end_report(self, db):
        spec = tiny_spec()
        driver = WorkloadDriver(db, spec)
        driver.setup()
        report = driver.run()
        assert report["ops"] > 0
        assert report["instrumented"] is True
        assert set(report["by_op"]) <= {"deref", "update", "pnew"}
        for op, row in report["latency_ms"].items():
            assert row["count"] > 0
            for key in ("p50", "p90", "p99", "p99.9", "mean"):
                assert key in row
            # Interpolated percentiles are monotone in q.
            assert row["p50"] <= row["p90"] <= row["p99"] <= row["p99.9"]
        assert report["metrics"]["txn.commits"] > 0

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_scenario_runs_its_whole_mix(self, db, name):
        """Every op of every phase's mix completes at least once and gets
        percentiles, and under a quarter of the ops fail."""
        spec = get_scenario(name).scaled(0.05).with_duration(0.3)
        driver = WorkloadDriver(db, spec)
        driver.setup()
        report = driver.run()
        mix = {op for phase in report["scenario"]["phases"]
               for group in phase["clients"] for op in group["mix"]}
        for op in mix:
            row = report["latency_ms"].get(op)
            assert row and row["count"] > 0, op
            assert all(key in row for key in ("p50", "p90", "p99", "p99.9"))
        assert report["ops"] > 0 and report["errors"] < report["ops"] / 4

    def test_uninstrumented_runs_without_metrics(self, db):
        spec = tiny_spec()
        driver = WorkloadDriver(db, spec, instrument=False)
        driver.setup()
        report = driver.run()
        assert report["ops"] > 0
        assert report["instrumented"] is False
        assert report["latency_ms"] == {}
        snap = db.metrics.snapshot()
        assert not any(k.startswith("workload.") for k in snap)

    def test_setup_populates_dataset(self, db):
        spec = tiny_spec()
        driver = WorkloadDriver(db, spec)
        driver.setup()
        assert len(driver._refs["items"]) == 60
        assert driver._tokens          # initial snapshot token captured

    def test_open_loop_group_runs(self, db):
        spec = tiny_spec(clients=[
            {"count": 1, "mix": {"deref": 1}, "arrival": "fixed",
             "rate": 200.0}])
        driver = WorkloadDriver(db, spec)
        driver.setup()
        report = driver.run()
        # 0.4s at 200 ops/s scheduled: the client must have kept pace
        # within a loose bound (scheduling jitter, CI boxes).
        assert 20 <= report["ops"] <= 120


class TestSampler:
    def test_rates_from_counter_deltas(self, tmp_path):
        reg = MetricsRegistry()
        commits = reg.counter("txn.commits")
        path = str(tmp_path / "timeline.jsonl")
        sampler = TimeSeriesSampler(reg, interval_ms=10_000, path=path)
        sampler.start()         # interval huge: we drive ticks by hand
        commits.inc(30)
        row = sampler.sample_now()
        assert row["commit_s"] > 0
        assert row["ops_s"] == 0
        sampler.stop()
        rows = load_timeline(path)
        assert rows and rows[0]["tick"] == 0
        assert [r["tick"] for r in rows] == list(range(len(rows)))

    def test_windowed_percentiles_reflect_current_tick(self):
        reg = MetricsRegistry()
        hist = reg.histogram("workload.op_ns", [1e6, 1e9], op="deref")
        sampler = TimeSeriesSampler(reg, interval_ms=10_000)
        sampler._prev = reg.snapshot()
        hist.observe(5e5)       # fast op in tick 0
        row = sampler.sample_now()
        assert row["p50_ms"] is not None and row["p50_ms"] < 1.0
        hist.observe(5e8)       # slow op in tick 1
        row = sampler.sample_now()
        # Windowed: tick 1 sees only the slow observation.
        assert row["p50_ms"] > 1.0

    def test_abort_reasons_labeled(self):
        reg = MetricsRegistry()
        reg.counter("txn.aborts", reason="deadlock").inc(4)
        sampler = TimeSeriesSampler(reg, interval_ms=10_000)
        sampler._prev = {}
        row = sampler.sample_now()
        assert row["abort_s"] > 0
        assert any("deadlock" in k for k in row["aborts"])

    def test_no_ops_means_no_percentile(self):
        reg = MetricsRegistry()
        sampler = TimeSeriesSampler(reg, interval_ms=10_000)
        row = sampler.sample_now()
        assert row["p50_ms"] is None
        assert row["ops_s"] == 0


class TestCompare:
    def _report(self, p99s, ops_per_s=100.0):
        return {"ops_per_s": ops_per_s,
                "latency_ms": {op: {"p99": v} for op, v in p99s.items()}}

    def test_ok_within_limits(self):
        result = compare_reports(self._report({"deref": 1.0}),
                                 self._report({"deref": 1.1}))
        assert result["ok"]
        assert "OK" in format_comparison(result)

    def test_p99_regression_flagged(self):
        result = compare_reports(self._report({"deref": 1.0}),
                                 self._report({"deref": 2.0}),
                                 max_p99_regression_pct=25.0)
        assert not result["ok"]
        assert result["regressions"][0]["op"] == "deref"
        assert "REGRESSION" in format_comparison(result)

    def test_throughput_drop_flagged(self):
        result = compare_reports(self._report({}, ops_per_s=100.0),
                                 self._report({}, ops_per_s=50.0))
        assert not result["ok"]
        assert "throughput" in result["regressions"][0]["flag"]

    def test_new_op_not_flagged(self):
        result = compare_reports(self._report({}),
                                 self._report({"scan": 9.0}))
        assert result["ok"]


class TestCli:
    """``repro simulate`` → ``repro top --once`` → ``repro bench-diff``,
    the way a user reads and gates a run."""

    def simulate(self, tmp_path, *extra):
        report = str(tmp_path / "report.json")
        assert main(["simulate", "oltp", "--scale", "0.15", "--duration",
                     "0.5", "--db", str(tmp_path / "sim.odb"),
                     "--report", report] + list(extra)) == 0
        with open(report) as fh:
            return report, json.load(fh)

    def test_simulate_top_and_bench_diff(self, tmp_path, capsys):
        timeline = str(tmp_path / "timeline.jsonl")
        path, report = self.simulate(tmp_path, "--timeline", timeline)
        assert report["ops"] > 0 and load_timeline(timeline)
        capsys.readouterr()
        assert main(["top", timeline, "--once"]) == 0
        assert capsys.readouterr().out.strip()
        assert main(["bench-diff", path, path]) == 0
        slower = json.loads(json.dumps(report))
        for row in slower["latency_ms"].values():
            row["p99"] *= 2
        doctored = str(tmp_path / "slower.json")
        with open(doctored, "w") as fh:
            json.dump(slower, fh)
        assert main(["bench-diff", path, doctored]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_short_page_reads_on_a_small_pool_are_absorbed(self, tmp_path,
                                                           monkeypatch):
        """A 16-page pool sends reads to the page file; ``REPRO_FAULTS``
        makes one of them short, and the run still completes ops."""
        monkeypatch.setenv("REPRO_FAULTS", "pagefile.read.short:short:40")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        _, report = self.simulate(tmp_path, "--pool-pages", "16")
        assert report["metrics"].get("faults.injected", 0) > 0
        assert report["ops"] > 0

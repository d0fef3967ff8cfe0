"""Dashboard rendering: golden frame, sparkline, tailing, ANSI loop."""

import io
import json
import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.workload.dashboard import (render_frame, run_dashboard,
                                          tail_rows)
from repro.obs.workload.sampler import TimeSeriesSampler

ROWS = [
    {"tick": 0, "t": 0.1, "ops_s": 100.0, "commit_s": 40.0, "abort_s": 0.0,
     "aborts": {}, "in_flight": 1, "buffer_hit_pct": 99.0,
     "wal_syncs_s": 12.0, "conflicts_s": 0.0,
     "events_dropped": 0, "errors_s": 0.0, "p50_ms": 1.0, "p99_ms": 4.0},
    {"tick": 1, "t": 0.2, "ops_s": 200.0, "commit_s": 80.0, "abort_s": 2.0,
     "aborts": {'reason="conflict"': 2.0}, "in_flight": 3,
     "buffer_hit_pct": 97.5, "wal_syncs_s": 20.0, "conflicts_s": 1.5,
     "events_dropped": 7, "errors_s": 0.5, "p50_ms": 2.0, "p99_ms": 16.0},
]

GOLDEN = """\
 repro top                                                     t=0.20s  tick 1
──────────────────────────────────────────────────────────────────────────────
 ops/s 200.0        commit/s 80.00     abort/s 2.00       in-flight 3
 p50 2.00ms         p99 16.00ms        err/s 0.50         buf hit 97.50%
 wal sync/s 20.00         conflict/s 1.50          evt drop 7
 aborts by reason: reason="conflict"=2.00
──────────────────────────────────────────────────────────────────────────────
 ops/s
 ▁█
 p99 ms
 ▁█"""


class TestRenderFrame:
    def test_golden_frame(self):
        assert render_frame(ROWS, width=78) == GOLDEN

    def test_empty_rows(self):
        frame = render_frame([], width=78)
        assert "waiting for samples" in frame

    def test_none_values_render_as_dash(self):
        rows = [dict(ROWS[0], p50_ms=None, p99_ms=None,
                     buffer_hit_pct=None)]
        frame = render_frame(rows, width=78)
        assert "p50 -" in frame
        assert "(no data)" in frame          # p99 sparkline has no points

    def test_statement_cache_rates_show_when_counted(self):
        assert "statement cache" not in render_frame(ROWS, width=78)
        reg = MetricsRegistry()
        sampler = TimeSeriesSampler(reg, interval_ms=10_000)
        sampler._prev = reg.snapshot()
        reg.counter("opp.stmt_cache.hits").inc(9)
        reg.counter("opp.stmt_cache.misses").inc()
        row = sampler.sample_now()
        assert row["stmt_hits_s"] > row["stmt_misses_s"] > 0
        assert " O++ statement cache: hit/s " in render_frame([row])

    def test_sparkline_scales_to_range(self):
        rows = [dict(ROWS[0], ops_s=v) for v in (0, 50, 100)]
        frame = render_frame(rows, width=78)
        ops_line = frame.splitlines()[frame.splitlines().index(" ops/s") + 1]
        assert ops_line.strip() == "▁▄█"


class TestTailRows:
    def test_follows_appended_lines(self, tmp_path):
        path = str(tmp_path / "timeline.jsonl")
        with open(path, "w") as fh:
            for row in ROWS:
                fh.write(json.dumps(row) + "\n")
        stop = threading.Event()
        out = []
        for row in tail_rows(path, poll_s=0.01, stop=stop):
            out.append(row)
            if len(out) == len(ROWS):
                stop.set()
        assert [r["tick"] for r in out] == [0, 1]

    def test_skips_torn_line(self, tmp_path):
        path = str(tmp_path / "timeline.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(ROWS[0]) + "\n")
            fh.write('{"torn": \n')
            fh.write(json.dumps(ROWS[1]) + "\n")
        stop = threading.Event()
        out = []
        for row in tail_rows(path, poll_s=0.01, stop=stop):
            out.append(row)
            if len(out) == 2:
                stop.set()
        assert [r["tick"] for r in out] == [0, 1]


class TestRunDashboard:
    def test_draws_ansi_frames(self):
        out = io.StringIO()
        frames = run_dashboard(iter(ROWS), refresh_s=0.0, out=out,
                               max_frames=2)
        assert frames == 2
        text = out.getvalue()
        assert text.count("\x1b[H\x1b[2J") == 2
        assert "repro top" in text

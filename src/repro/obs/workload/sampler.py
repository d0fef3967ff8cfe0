"""Time-series sampler: periodic registry deltas as a JSONL timeline.

A background thread snapshots the metrics registry every ``interval_ms``
and turns counter deltas into per-second rates. Each tick appends one
flat JSON object to the timeline file (and an in-memory ring), which is
what ``repro top`` tails — in-process or from another process entirely.

Percentiles per tick are **windowed**: computed from the histogram
bucket deltas since the previous tick, not the cumulative counts, so a
latency spike shows up in the tick where it happened instead of being
averaged into the whole run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional


def _window_quantile(bounds: List[float], deltas: List[int],
                     q: float) -> Optional[float]:
    """Interpolated quantile over one tick's bucket deltas."""
    total = sum(deltas)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    lower = 0.0
    for bound, count in zip(bounds, deltas):
        if count and cumulative + count >= rank:
            fraction = (rank - cumulative) / count
            return lower + (bound - lower) * fraction
        cumulative += count
        lower = bound
    return bounds[-1] if bounds else None


class TimeSeriesSampler:
    """Sample *registry* every ``interval_ms`` into rows + JSONL file.

    Rows are flat dicts; ``None`` marks "no data this tick" (e.g. no
    operations completed, so there is no windowed percentile).
    """

    RING_SIZE = 600

    def __init__(self, registry, interval_ms: float = 100.0,
                 path: Optional[str] = None):
        self.registry = registry
        self.interval_s = interval_ms / 1000.0
        self.path = path
        self.rows: deque = deque(maxlen=self.RING_SIZE)
        self._file = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0 = time.perf_counter()
        self._prev_t = self._t0
        self._prev: Dict[str, Any] = {}
        self._tick = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "TimeSeriesSampler":
        if self.path:
            self._file = open(self.path, "a", encoding="utf-8")
        self._prev = self.registry.snapshot()
        self._prev_t = self._t0 = time.perf_counter()
        self._thread = threading.Thread(target=self._loop,
                                        name="ts-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_now()            # final partial tick
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TimeSeriesSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_now()

    # -- sampling ---------------------------------------------------------

    def _delta(self, snap: Dict[str, Any], prefix: str) -> float:
        """Summed counter delta for keys equal to or labeled *prefix*."""
        total = 0.0
        for key, value in snap.items():
            if key == prefix or key.startswith(prefix + "{"):
                if isinstance(value, (int, float)):
                    prev = self._prev.get(key, 0)
                    total += value - (prev if isinstance(prev, (int, float))
                                      else 0)
        return total

    def _labeled_deltas(self, snap: Dict[str, Any],
                        prefix: str) -> Dict[str, float]:
        """Per-label-set counter deltas: ``{label_suffix: delta}``."""
        out: Dict[str, float] = {}
        marker = prefix + "{"
        for key, value in snap.items():
            if key.startswith(marker) and isinstance(value, (int, float)):
                prev = self._prev.get(key, 0)
                label = key[len(marker):-1]
                out[label] = value - (prev if isinstance(prev, (int, float))
                                      else 0)
        return out

    def _hist_window(self, snap: Dict[str, Any], prefix: str):
        """Aggregate bucket deltas across every histogram named *prefix*."""
        merged: Dict[float, int] = {}
        ops = 0
        for key, value in snap.items():
            if not (key == prefix or key.startswith(prefix + "{")):
                continue
            if not isinstance(value, dict):
                continue
            prev = self._prev.get(key)
            prev_buckets = prev.get("buckets", {}) if isinstance(
                prev, dict) else {}
            ops += value.get("count", 0) - (prev.get("count", 0)
                                            if isinstance(prev, dict) else 0)
            for bound, count in value.get("buckets", {}).items():
                b = float(bound)
                merged[b] = merged.get(b, 0) + count - prev_buckets.get(
                    bound, 0)
        bounds = sorted(merged)
        return ops, bounds, [merged[b] for b in bounds]

    def sample_now(self) -> Dict[str, Any]:
        """Take one sample immediately; returns the row."""
        snap = self.registry.snapshot()
        now = time.perf_counter()
        dt = max(now - self._prev_t, 1e-9)
        ops, bounds, deltas = self._hist_window(snap, "workload.op_ns")
        p50 = _window_quantile(bounds, deltas, 0.50)
        p99 = _window_quantile(bounds, deltas, 0.99)
        abort_rates = {k: round(v / dt, 2) for k, v in
                       self._labeled_deltas(snap, "txn.aborts").items() if v}
        hit_d = self._delta(snap, "buffer.hits")
        miss_d = self._delta(snap, "buffer.misses")
        row: Dict[str, Any] = {
            "tick": self._tick,
            "t": round(now - self._t0, 3),
            "dt": round(dt, 4),
            "ops_s": round(ops / dt, 1),
            "errors_s": round(self._delta(snap, "workload.errors") / dt, 2),
            "commit_s": round(self._delta(snap, "txn.commits") / dt, 1),
            "abort_s": round(self._delta(snap, "txn.aborts") / dt, 2),
            "aborts": abort_rates,
            "in_flight": snap.get("txn.active", 0),
            "buffer_hit_pct": (round(100.0 * hit_d / (hit_d + miss_d), 1)
                               if hit_d + miss_d else None),
            "wal_syncs_s": round(self._delta(snap, "wal.syncs") / dt, 1),
            "conflicts_s": round(self._delta(snap, "mvcc.conflicts") / dt, 2),
            "stmt_hits_s": round(
                self._delta(snap, "opp.stmt_cache.hits") / dt, 1),
            "stmt_misses_s": round(
                self._delta(snap, "opp.stmt_cache.misses") / dt, 1),
            "events_dropped": snap.get("events.dropped", 0),
            "p50_ms": round(p50 / 1e6, 3) if p50 is not None else None,
            "p99_ms": round(p99 / 1e6, 3) if p99 is not None else None,
        }
        self.rows.append(row)
        if self._file is not None:
            self._file.write(json.dumps(row) + "\n")
            self._file.flush()
        self._prev = snap
        self._prev_t = now
        self._tick += 1
        return row


def load_timeline(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL timeline file; skips blank/truncated trailing lines."""
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except ValueError:
                continue            # torn final line from a live writer
    return rows

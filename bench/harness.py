"""Measurement helpers shared by the four workloads.

Nothing here imports ``repro``: percentiles, the windowed timed loop, the
span recorder, the open-loop ladder rule and a few process/disk probes.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import resource
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

#: Every timed run is cut into this many equal windows; a reported
#: percentile is the median of the per-window percentiles, so a single
#: scheduler hiccup moves one window, not the number.
WINDOWS = 10

clock = time.perf_counter


def load_spec() -> Dict:
    """``BENCHMARK.json`` (the contract) merged with ``conditions.json``
    (sizes, mixes, ladder, metric map — everything the contract's fixed
    key set has no room for)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "conditions.json")) as f:
        spec["conditions"] = json.load(f)
    return spec


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def pct(values: Sequence[float], q: float) -> float:
    """Percentile *q* in [0, 1] with linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windowed_pct(windows: Iterable[Sequence[float]], q: float) -> float:
    """Median over the non-empty windows of each window's percentile."""
    per_window = [pct(w, q) for w in windows if w]
    return statistics.median(per_window) if per_window else 0.0


# ---------------------------------------------------------------------------
# seeded key choice
# ---------------------------------------------------------------------------

class Zipf:
    """Zipf(theta) ranks over ``n`` keys through a seeded permutation, so
    popular keys scatter over the id space (and therefore over pages)."""

    def __init__(self, n: int, theta: float, rng: random.Random):
        weights = [1.0 / (rank ** theta) for rank in range(1, n + 1)]
        total = 0.0
        self._cdf = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total
        self._perm = list(range(n))
        rng.shuffle(self._perm)

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cdf, rng.random() * self._total)
        return self._perm[min(rank, len(self._perm) - 1)]


def weighted_kinds(mix: Dict[str, int]) -> Tuple[List[str], List[int]]:
    kinds = sorted(mix)
    return kinds, [mix[k] for k in kinds]


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Timed:
    """Latencies of one client's timed run, kept per window and op kind."""

    def __init__(self):
        self.windows: List[Dict[str, List[float]]] = []
        self.seconds = 0.0
        self.ops = 0
        self.failed_ops: List[tuple] = []

    def kind_windows(self, kinds: Sequence[str]) -> List[List[float]]:
        return [[x for k in kinds for x in w.get(k, ())]
                for w in self.windows]


def run_windows(plan: Callable[[int], List[tuple]],
                execute: Dict[str, Callable[[tuple], object]],
                seconds: float,
                executed: Callable[[List[tuple]], None],
                first_chunk: int,
                between: Optional[Callable[[], None]] = None,
                errors: Tuple[type, ...] = ()) -> Timed:
    """Closed loop of one client for *seconds*, in :data:`WINDOWS` windows.

    ``plan(n)`` pre-generates the next *n* ops (tuples whose first item is
    the kind) outside the timed region; the loop body is one call and two
    clock reads. ``executed(ops)`` hands every window's completed ops
    back, in order, so the generator-side shadow model follows exactly
    what ran. Ops planned but not reached before a window closed are run
    first in the next window; those left at the very end are dropped.
    ``between()`` runs untimed before each window. An exception listed in
    *errors* counts the op as failed; anything else propagates.
    """
    out = Timed()
    span = seconds / WINDOWS
    pending: List[tuple] = []
    chunk = first_chunk
    for _ in range(WINDOWS):
        if between is not None:
            between()
        if len(pending) < chunk:
            pending.extend(plan(chunk - len(pending)))
        lat: Dict[str, List[float]] = {k: [] for k in execute}
        done = 0
        start = clock()
        stop = start + span
        t1 = start
        for op in pending:
            fn = execute[op[0]]
            try:
                t0 = clock()
                fn(op)
                t1 = clock()
            except errors:
                t1 = clock()
                out.failed_ops.append(op)
            lat[op[0]].append(t1 - t0)
            done += 1
            if t1 >= stop:
                break
        out.seconds += t1 - start
        out.ops += done
        out.windows.append(lat)
        executed(pending[:done])
        del pending[:done]
        # Twice what the last window managed, so a window never runs dry
        # unless the program suddenly doubles its speed.
        chunk = max(first_chunk, 2 * done)
    return out


def run_plain(ops: Sequence[tuple], execute: Dict[str, Callable],
              before_op: Optional[Callable[[int], None]] = None) -> float:
    """Seconds the timed loop's body takes over *ops* with no spans: the
    untraced half of a traced run's overhead measurement."""
    start = clock()
    for k, op in enumerate(ops):
        if before_op is not None:
            before_op(k)
        fn = execute[op[0]]
        clock()  # the timed loop's two clock reads
        fn(op)
        clock()
    return clock() - start


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span log: ``(name, start, end, parent, op_id)`` rows.

    ``parent`` is the row index of the enclosing span or -1. Recorded by
    the benchmark around each public call; written out once, at exit.
    """

    def __init__(self):
        self.rows: List[Tuple[str, float, float, int, int]] = []

    def add(self, name: str, start: float, end: float, parent: int,
            op_id: int) -> int:
        self.rows.append((name, start, end, parent, op_id))
        return len(self.rows) - 1

    def durations(self, name: str) -> List[float]:
        return [r[2] - r[1] for r in self.rows if r[0] == name]

    def layers(self) -> List[str]:
        return sorted({r[0].split(".", 1)[0] for r in self.rows})


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------

def poisson_due_times(rate: float, seconds: float,
                      rng: random.Random) -> List[float]:
    """Arrival offsets (s) of a Poisson process at *rate* over *seconds*."""
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def rung_passes(rung: Dict, limits: Dict) -> bool:
    """The open-loop pass rule for one measured rung.

    A rung holds when its p99 from due time meets the limit, failed plus
    refused requests stay within the allowed share, and the last tenth of
    arrivals was not sent late (a backlog that is still growing shows up
    there first).
    """
    return (rung["p99_ms"] <= limits["p99_ms"]
            and rung["bad_share"] <= limits["bad_share"]
            and rung["late_tail_ms"] <= limits["late_tail_ms"])


def highest_passing_rate(rungs: Sequence[Dict], limits: Dict) -> float:
    """Highest rate before the first failing rung (0.0 if the first fails).

    The ladder stops at the first failure, so a later rung that happens to
    pass never counts.
    """
    best = 0.0
    for rung in rungs:
        if not rung_passes(rung, limits):
            break
        best = float(rung["rate"])
    return best


# ---------------------------------------------------------------------------
# process and disk probes
# ---------------------------------------------------------------------------

def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water RSS in MiB of this process, or of *pid* via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def disk_bytes(db_path: str) -> int:
    """Bytes of the database's page file(s), WAL and event log."""
    folder, base = os.path.split(db_path)
    return sum(os.path.getsize(os.path.join(folder, name))
               for name in os.listdir(folder) if name.startswith(base))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

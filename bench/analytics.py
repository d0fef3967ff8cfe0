"""``analytics``: declarative queries beside a sliding-window ingest.

One thread, closed loop. Each iteration is a five-query report (full scan
with a residual filter, btree range with a sort, fused equijoin, indexed
count, recursive part explosion), five indexed point queries and one
transaction that ingests a batch of events and deletes the oldest batch,
so the event extent keeps its size while scans keep meeting fresh pages.
"""

from __future__ import annotations

import collections
import os
import random
import re
from typing import Callable, Dict, List

from repro import A, Database, V, forall, semi_naive

import layers
from harness import (Spans, Timed, clock, disk_bytes, pct, ratio, run_plain,
                     run_windows)
from schema import (BenchEvent, BenchItem, BenchPart, BenchSupplier,
                    item_state)

REPORT = ("scan", "range", "join", "count", "explode")
POINTS_PER_ITERATION = 5
DETECTORS = 16          # the scan keeps one detector: ~6 % of the rows
RANGE_ROWS = 200
REGIONS = ("east", "west", "north", "south")


class Analytics:
    name = "analytics"
    read_kinds = ("point",)
    write_kinds = ("slide",)

    def __init__(self, cfg: Dict, seed: int, workdir: str):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.db = None

    # -- set-up -----------------------------------------------------------

    def reset(self) -> None:
        """Seeded generator state and shadow rows; touches no database."""
        cfg = self.cfg
        rng = random.Random("analytics:%d:data" % self.seed)
        self.rng = random.Random("analytics:%d:ops" % self.seed)
        n_events, n_parts = cfg["events"], cfg["parts"]
        self.items: List[Dict] = [
            item_state(i, rng.randrange(50, 500),
                       round(rng.uniform(1, 500), 2), i % 100)
            for i in range(cfg["items"])]
        #: seq -> (detector, energy)
        self.events: Dict[int, tuple] = {
            seq: (rng.randrange(DETECTORS), rng.uniform(0.1, 99.0))
            for seq in range(n_events)}
        # Layered bill of materials: each part uses 2-3 recent earlier ones.
        self.costs = [round(rng.uniform(0.5, 20.0), 2)
                      for _ in range(n_parts)]
        self.uses: Dict[int, List[int]] = {}
        for i in range(n_parts):
            self.uses[i] = []
            if i >= 4:
                for _ in range(rng.randrange(2, 4)):
                    child = rng.randrange(max(0, i - 200), i)
                    if child not in self.uses[i]:
                        self.uses[i].append(child)
        self.roots = list(range(n_parts - max(1, n_parts // 10), n_parts))
        self.event_oids = collections.deque()
        self.part_oids: List[object] = []
        self.first_seq = 0                          # planner's window start
        self.oldest_seq = 0                         # shadow's window start
        self.next_seq = n_events
        self.written_bytes = 0
        self.count_bytes = False

    def setup(self, attempt: int) -> None:
        cfg = self.cfg
        self.reset()
        self.path = os.path.join(self.workdir, "setup%d" % attempt,
                                 "bench.odb")
        os.makedirs(os.path.dirname(self.path))
        db = Database(self.path)
        for cls in (BenchSupplier, BenchItem, BenchEvent, BenchPart):
            db.create(cls)
        # Indexes first: maintaining them during the load is cheaper on
        # this program than building them over a loaded extent.
        db.create_index(BenchEvent, "seq", kind="btree")
        db.create_index(BenchItem, "id", kind="hash")
        with db.transaction():
            for i in range(cfg["suppliers"]):
                db.pnew(BenchSupplier, sid=i, region=REGIONS[i % 4])
        for lo in range(0, len(self.items), 1000):
            with db.transaction():
                for state in self.items[lo:lo + 1000]:
                    db.pnew(BenchItem, **state)
        for lo in range(0, len(self.events), 1000):
            with db.transaction():
                for seq in range(lo, min(lo + 1000, len(self.events))):
                    self.event_oids.append(db.pnew(
                        BenchEvent,
                        **_event_state(seq, *self.events[seq])).oid)
        for lo in range(0, len(self.costs), 500):
            with db.transaction():
                for i in range(lo, min(lo + 500, len(self.costs))):
                    part = db.pnew(BenchPart, name="part%05d" % i,
                                   cost=self.costs[i])
                    for child in self.uses[i]:
                        part.uses.insert(self.part_oids[child])
                    part.uses = part.uses   # mark dirty
                    self.part_oids.append(part.oid)
        db.close()
        self._open()
        warm = self.plan(cfg["warmup_iterations"] * self.per_iteration)
        for op in warm:
            self.execute[op[0]](op)
        self.apply(warm)

    @property
    def per_iteration(self) -> int:
        return len(REPORT) + POINTS_PER_ITERATION + 1

    def discard(self) -> None:
        self.db.close()
        self.db = None

    def _open(self) -> None:
        self.db = Database(self.path)
        self.execute: Dict[str, Callable] = self._ops(self.db)

    # -- op stream ----------------------------------------------------------

    def plan(self, n: int) -> List[tuple]:
        """Whole iterations covering at least *n* ops."""
        rng, cfg = self.rng, self.cfg
        batch, n_events = cfg["slide_batch"], cfg["events"]
        ops: List[tuple] = []
        while len(ops) < n:
            first = self.first_seq
            ops.append(("scan", rng.randrange(DETECTORS)))
            ops.append(("range",
                        first + rng.randrange(n_events - RANGE_ROWS)))
            ops.append(("join", round(rng.uniform(15.0, 35.0), 2)))
            lo = first + rng.randrange(n_events // 2)
            ops.append(("count", lo, lo + n_events // 5))
            ops.append(("explode", self.roots[rng.randrange(len(self.roots))]))
            for _ in range(POINTS_PER_ITERATION):
                ops.append(("point", rng.randrange(len(self.items))))
            rows = [(self.next_seq + k, rng.randrange(DETECTORS),
                     rng.uniform(0.1, 99.0)) for k in range(batch)]
            ops.append(("slide", rows))
            self.next_seq += batch
            self.first_seq += batch
        return ops

    def apply(self, ops: List[tuple]) -> None:
        events = self.events
        for op in ops:
            if op[0] != "slide":
                continue
            for seq, det, energy in op[1]:
                events[seq] = (det, energy)
            for seq in range(self.oldest_seq, self.oldest_seq + len(op[1])):
                del events[seq]
            self.oldest_seq += len(op[1])
            if self.count_bytes:
                self.written_bytes += layers.user_bytes(
                    [_event_state(*row) for row in op[1]])

    def _ops(self, db: Database) -> Dict[str, Callable]:
        events, items = db.cluster(BenchEvent), db.cluster(BenchItem)
        suppliers = db.cluster(BenchSupplier)
        part_oids, event_oids = self.part_oids, self.event_oids
        deref = db.deref

        def q_scan(op):
            return sum(e.energy for e in
                       forall(events).suchthat(A.detector == op[1]))

        def q_range(op):
            return [e.seq for e in forall(events).suchthat(
                (A.seq >= op[1]) & (A.seq < op[1] + RANGE_ROWS)).by(A.energy)]

        def q_join(op):
            return forall(items, suppliers).suchthat(
                (V[0].supplier_id == V[1].sid) & (V[0].price < op[1])).count()

        def q_count(op):
            return forall(events).suchthat(
                (A.seq >= op[1]) & (A.seq < op[2])).count()

        def q_explode(op):
            return len(semi_naive([part_oids[op[1]]],
                                  lambda ref: list(deref(ref).uses)))

        def q_point(op):
            return [i.qty for i in forall(items).suchthat(A.id == op[1])]

        def w_slide(op):
            with db.transaction():
                for seq, det, energy in op[1]:
                    event_oids.append(db.pnew(BenchEvent, seq=seq,
                                              detector=det,
                                              energy=energy).oid)
                for _ in op[1]:
                    db.pdelete(event_oids.popleft())

        return {"scan": q_scan, "range": q_range, "join": q_join,
                "count": q_count, "explode": q_explode, "point": q_point,
                "slide": w_slide}

    # -- expected answers from the shadow rows ------------------------------

    def expected(self, op: tuple):
        kind = op[0]
        if kind == "scan":
            return sum(e for d, e in self.events.values() if d == op[1])
        if kind == "range":
            rows = [(self.events[s][1], s)
                    for s in range(op[1], op[1] + RANGE_ROWS)
                    if s in self.events]
            return [s for _e, s in sorted(rows)]
        if kind == "join":
            return sum(1 for i in self.items if i["price"] < op[1])
        if kind == "count":
            return sum(1 for s in self.events if op[1] <= s < op[2])
        if kind == "explode":
            seen, frontier = {op[1]}, [op[1]]
            while frontier:
                nxt = []
                for p in frontier:
                    for c in self.uses[p]:
                        if c not in seen:
                            seen.add(c)
                            nxt.append(c)
                frontier = nxt
            return len(seen)
        return [self.items[op[1]]["qty"]]

    def check_report(self, label: str, problems: List[str]) -> None:
        """One untimed report + points, recomputed from the shadow rows."""
        ops = self.plan(self.per_iteration)
        for op in ops:
            if op[0] == "slide":
                continue
            got, want = self.execute[op[0]](op), self.expected(op)
            same = (abs(got - want) <= 1e-6 * max(1.0, abs(want))
                    if isinstance(want, float) else got == want)
            if not same:
                problems.append("%s report: %s%r returned %r, shadow says %r"
                                % (label, op[0], op[1:], _brief(got),
                                   _brief(want)))
        slide = [op for op in ops if op[0] == "slide"]
        for op in slide:
            self.execute[op[0]](op)
        self.apply(slide)

    # -- timed run ----------------------------------------------------------

    def timed(self, seconds: float) -> List[Timed]:
        self.problems: List[str] = []
        self.check_report("first", self.problems)
        timed = run_windows(self.plan, self.execute, seconds, self.apply,
                            first_chunk=self.cfg["first_chunk"])
        self.check_report("last", self.problems)
        return [timed]

    # -- output checks ------------------------------------------------------

    def finish(self) -> Dict:
        problems = getattr(self, "problems", [])
        self.db.close()
        size = disk_bytes(self.path)
        live_bytes = layers.user_bytes(
            self.items + [_event_state(s, d, e)
                          for s, (d, e) in self.events.items()])
        db = Database(self.path)
        seen = {e.seq: (e.detector, e.energy) for e in db.cluster(BenchEvent)}
        if seen != self.events:
            problems.append("events differ from shadow after reopen: "
                            "%d stored, %d expected"
                            % (len(seen), len(self.events)))
        n_items = db.cluster(BenchItem).count()
        if n_items != len(self.items):
            problems.append("items: %d stored, %d expected"
                            % (n_items, len(self.items)))
        db.close()
        self.db = None
        return {"problems": problems, "disk_bytes": size,
                "live_user_bytes": live_bytes,
                "objects": len(self.events) + len(self.items)
                + len(self.part_oids) + self.cfg["suppliers"]}

    # -- traced run ---------------------------------------------------------

    def traced(self, spans: Spans) -> Dict:
        cfg = self.cfg
        n_ops = cfg["traced_iterations"] * self.per_iteration
        self.count_bytes = True
        self.problems = []
        out: Dict[str, float] = {}

        # Plan + compile: every shape's first execution on a fresh open.
        self.db.close()
        self._open()
        db = self.db
        first = self.plan(self.per_iteration)
        seen_kinds = set()
        for op in first:
            start = clock()
            self.execute[op[0]](op)
            end = clock()
            if op[0] in REPORT + ("point",) and op[0] not in seen_kinds:
                seen_kinds.add(op[0])
                spans.add("query.first_exec", start, end, -1, -1)
        self.apply(first)
        out["query.first_exec_ms"] = (
            sum(spans.durations("query.first_exec")) / len(seen_kinds) * 1e3)

        sums = layers.CounterSum(db)
        ops_a = self.plan(n_ops)
        plain_s = run_plain(ops_a, self.execute)
        self.apply(ops_a)

        ops_b = self.plan(n_ops)
        names = {"scan": "query.scan", "range": "query.range",
                 "join": "query.join", "count": "query.count",
                 "explode": "query.fixpoint", "point": "query.point",
                 "slide": "core.slide_txn"}
        start = clock()
        report = -1
        for k, op in enumerate(ops_b):
            iteration = k // self.per_iteration
            if op[0] == REPORT[0]:
                report_start = clock()
                # Parent row first, closed when the fifth query returns.
                report = spans.add("query.report", report_start,
                                   report_start, -1, iteration)
            fn = self.execute[op[0]]
            t0 = clock()
            fn(op)
            t1 = clock()
            parent = report if op[0] in REPORT else -1
            spans.add(names[op[0]], t0, t1, parent, iteration)
            if op[0] == REPORT[-1]:
                spans.rows[report] = ("query.report", report_start, t1, -1,
                                      iteration)
        traced_s = clock() - start
        self.apply(ops_b)
        sums.stop()
        totals = sums.totals
        n_all = len(ops_a) + len(ops_b)
        commits = sum(1 for op in ops_a + ops_b if op[0] == "slide")
        out.update(layers.counter_metrics({}, totals, n_all, commits,
                                          self.written_bytes))
        out["obs.trace_overhead_share"] = 1.0 - ratio(plain_s, traced_s)

        def p(name, q=0.5):
            return pct(spans.durations(name), q) * 1e3
        out["query.report_ms_p50"] = p("query.report")
        out["query.report_ms_p90"] = p("query.report", 0.9)
        for kind in ("point", "scan", "range", "join", "count", "fixpoint"):
            out["query.%s_ms_p50" % kind] = p("query.%s" % kind)
        n_events = len(self.events)
        out["query.scan_rows_per_s"] = ratio(
            n_events, out["query.scan_ms_p50"] / 1e3)
        plan_hits = totals.get("plan_cache.hits", 0.0)
        code_hits = totals.get("codegen.cache.hits", 0.0)
        out["query.plan_cache_hit_ratio"] = ratio(
            plan_hits, plan_hits + totals.get("plan_cache.misses", 0.0))
        out["query.codegen_cache_hit_ratio"] = ratio(
            code_hits, code_hits + totals.get("codegen.cache.misses", 0.0))

        # Rows the scan shape examined per row it returned.
        text = forall(db.cluster(BenchEvent)).suchthat(
            A.detector == 3).explain(analyze=True)
        match = re.search(r"rows=(\d+) \(in=(\d+)\)", text)
        out["query.rows_examined_per_row"] = ratio(int(match.group(2)),
                                                   int(match.group(1)))

        # The storage calls under the scan and the point lookups, alone.
        store = db.store
        rows = 0
        for _ in range(5):
            start = clock()
            rows = sum(len(batch) for batch in
                       store.scan_batches(BenchEvent.__name__))
            spans.add("storage.scan_batches", start, clock(), -1, -1)
        drain_s = pct(spans.durations("storage.scan_batches"), 0.5)
        out["storage.scan_batches_rows_per_s"] = ratio(rows, drain_s)
        out["query.self_scan_share"] = 1.0 - ratio(
            drain_s, out["query.scan_ms_p50"] / 1e3)
        probe_rng = random.Random("analytics:%d:probe" % self.seed)
        live_seqs = sorted(self.events)
        for _ in range(500):
            key = probe_rng.randrange(len(self.items))
            start = clock()
            store.index_search(BenchItem.__name__, "id", key)
            spans.add("storage.index_search.hash", start, clock(), -1, key)
            key = live_seqs[probe_rng.randrange(len(live_seqs))]
            start = clock()
            store.index_search(BenchEvent.__name__, "seq", key)
            spans.add("storage.index_search.btree", start, clock(), -1, key)
        for kind in ("hash", "btree"):
            out["storage.index_search_us_p50.%s" % kind] = pct(
                spans.durations("storage.index_search.%s" % kind), 0.5) * 1e6

        self.check_report("traced", self.problems)
        out.update(layers.store_probes(
            db, [_event_state(s, d, e)
                 for s, (d, e) in list(self.events.items())[:2000]], spans))
        tail = self.plan(cfg["traced_recovery_iterations"]
                         * self.per_iteration)
        for op in tail:
            self.execute[op[0]](op)
        self.apply(tail)
        self.db, out["storage.recovery_ms"] = layers.recovery_probe(
            db, self.path, spans)
        self.execute = self._ops(self.db)
        out["storage.vacuum_ms"] = layers.span_ms(
            spans, "storage.vacuum", lambda: self.db.vacuum(BenchEvent))[1]
        counts = {k: totals.get(k, 0.0) for k in (
            "buffer.misses", "buffer.evictions", "wal.appends", "wal.syncs",
            "wal.end_lsn", "txn.commits", "plan_cache.hits",
            "plan_cache.misses", "codegen.cache.hits",
            "codegen.cache.misses")}
        counts["ops"] = n_all
        return {"metrics": out, "counts": counts}


def _event_state(seq: int, detector: int, energy: float) -> Dict:
    return {"seq": seq, "detector": detector, "energy": energy}


def _brief(value):
    return value[:5] + ["..."] if isinstance(value, list) and len(value) > 5 \
        else value

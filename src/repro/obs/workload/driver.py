"""Workload driver: executes a scenario spec against an embedded Database.

The driver owns a small synthetic schema (items with a restock trigger,
a parts BOM DAG, versioned designs, append-only events) sized by the
scenario's ``dataset`` section, then runs each phase's client groups as
threads. Every operation is timed into a per-class latency histogram in
the database's own metrics registry, so the simulator, the Prometheus
exposition, and the ``repro top`` dashboard all read one source.

Latency semantics follow the coordinated-omission rule: closed-loop
clients measure from operation start (the client *waited* by design),
open-loop clients measure from the operation's **scheduled arrival**, so
a stalled engine shows up as growing latency rather than silently
reduced throughput.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ...core import (FloatField, IntField, OdeObject, RefField, SetField,
                     StringField, Trigger, newversion)
from ...errors import OdeError, SnapshotTooOldError
from ...query import A, forall, semi_naive
from .spec import DEFAULT_PARAMS, ScenarioSpec

#: Latency buckets in nanoseconds: ~10us .. 10s, quarter-decade spacing.
#: Wide enough that a stalled open-loop client still lands in a finite
#: bucket, fine enough for p99.9 interpolation to be meaningful.
LATENCY_BUCKETS_NS = tuple(
    int(base * 10 ** exp)
    for exp in range(4, 10)
    for base in (1.0, 1.8, 3.2, 5.6)
) + (10 ** 10,)

#: Quantiles reported per op class.
REPORT_QUANTILES = (0.50, 0.90, 0.99, 0.999)


# ---------------------------------------------------------------------------
# Synthetic schema
# ---------------------------------------------------------------------------

class SimSupplier(OdeObject):
    """Supplier side of the paper's running inventory example."""

    name = StringField(default="")
    region = StringField(default="")


class SimItem(OdeObject):
    """Stock item with the paper's perpetual restock trigger."""

    name = StringField(default="")
    price = FloatField(default=0.0)
    qty = IntField(default=100)
    category = IntField(default=0)
    reorder_level = IntField(default=0)
    supplier = RefField("SimSupplier")

    restock = Trigger(
        condition=lambda self: self.qty <= self.reorder_level,
        action=lambda self: setattr(self, "qty", self.qty + 100),
        perpetual=True)


class SimPart(OdeObject):
    """BOM node for recursive part-explosion queries."""

    name = StringField(default="")
    cost = FloatField(default=1.0)
    uses = SetField("SimPart")


class SimDesign(OdeObject):
    """Versioned document for newversion / time-travel churn."""

    name = StringField(default="")
    revision = IntField(default=0)
    notes = StringField(default="")


class SimEvent(OdeObject):
    """Append-only measurement row for ingest/analyze scenarios."""

    run = IntField(default=0)
    seq = IntField(default=0)
    energy = FloatField(default=0.0)
    detector = IntField(default=0)


DATASET_CLASSES = {
    "items": SimItem,
    "parts": SimPart,
    "designs": SimDesign,
    "events": SimEvent,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _ClientStats:
    """Per-thread tally; summed at join so it works uninstrumented too."""

    __slots__ = ("ops", "errors", "by_op")

    def __init__(self):
        self.ops = 0
        self.errors = 0
        self.by_op: Dict[str, int] = {}


class WorkloadDriver:
    """Run a :class:`~repro.obs.workload.spec.ScenarioSpec` against *db*.

    With ``instrument=False`` the driver performs identical work but
    records no histogram observations or counters — the pair measures
    observability overhead (``repro simulate --uninstrumented``).
    """

    def __init__(self, db, spec: ScenarioSpec, instrument: bool = True):
        self.db = db
        self.spec = spec
        self.instrument = instrument
        self.params = dict(DEFAULT_PARAMS)
        self.params.update(spec.params)
        self._refs: Dict[str, List[Any]] = {k: [] for k in DATASET_CLASSES}
        self._trigger_refs: List[Any] = []
        self._roots: List[Any] = []       # BOM roots for explode
        self._tokens: List[int] = []      # recent snapshot tokens
        self._tokens_lock = threading.Lock()
        self._stop = threading.Event()
        self._stats: List[_ClientStats] = []
        self._ingest_run = 0
        self._hists: Dict[str, Any] = {}
        if instrument:
            for op in sorted(set(op for ph in spec.phases
                                 for g in ph.clients for op in g.mix)):
                self._hists[op] = db.metrics.histogram(
                    "workload.op_ns", list(LATENCY_BUCKETS_NS), op=op)

    # -- setup ------------------------------------------------------------

    def setup(self) -> None:
        """Create clusters and populate the dataset inside batch txns."""
        db = self.db
        rng = random.Random("%s:setup" % self.spec.seed)
        for cls in (SimSupplier,) + tuple(DATASET_CLASSES.values()):
            db.create(cls, exist_ok=True)
        suppliers = []
        with db.transaction():
            for i in range(8):
                suppliers.append(db.pnew(
                    SimSupplier, name="sup%d" % i,
                    region=("east", "west", "north", "south")[i % 4]))
        n_items = self.spec.dataset.get("items", 0)
        n_cat = max(1, int(self.params["scan_categories"]))

        def load_batch(lo, hi, make):
            # run_transaction so a transient injected fault retries the
            # whole batch; refs are only published after commit, so a
            # rolled-back attempt leaves no dangling oids behind.
            def body():
                return [make(i).oid for i in range(lo, hi)]
            return db.run_transaction(body, retries=4)

        def make_item(i):
            return db.pnew(
                SimItem, name="item%06d" % i,
                price=round(rng.uniform(1, 500), 2),
                qty=rng.randrange(50, 500), category=i % n_cat,
                reorder_level=10,
                supplier=suppliers[i % len(suppliers)].oid)

        for start in range(0, n_items, 1000):
            self._refs["items"].extend(
                load_batch(start, min(start + 1000, n_items), make_item))
        n_trig = min(int(self.params["trigger_items"]),
                     len(self._refs["items"]))
        for ref in self._refs["items"][:n_trig]:
            db.run_transaction(lambda r=ref: db.deref(r).restock(),
                               retries=4)
            self._trigger_refs.append(ref)
        self._populate_parts(rng)
        def make_design(i):
            return db.pnew(SimDesign, name="design%05d" % i,
                           revision=0, notes="r0")

        def make_event(i):
            return db.pnew(SimEvent, run=0, seq=i,
                           energy=rng.uniform(0.1, 99.0), detector=i % 16)

        n_designs = self.spec.dataset.get("designs", 0)
        for start in range(0, n_designs, 1000):
            self._refs["designs"].extend(
                load_batch(start, min(start + 1000, n_designs), make_design))
        n_events = self.spec.dataset.get("events", 0)
        for start in range(0, n_events, 1000):
            self._refs["events"].extend(
                load_batch(start, min(start + 1000, n_events), make_event))
        self._tokens.append(db.snapshot_token())

    def _populate_parts(self, rng: random.Random) -> None:
        """Build a layered BOM DAG: each part uses 2-3 from layers below."""
        db = self.db
        n_parts = self.spec.dataset.get("parts", 0)
        if not n_parts:
            return
        made: List[Any] = []
        for start in range(0, n_parts, 500):
            def body(lo=start, hi=min(start + 500, n_parts)):
                batch: List[Any] = []
                for i in range(lo, hi):
                    part = db.pnew(SimPart, name="part%05d" % i,
                                   cost=round(rng.uniform(0.5, 20.0), 2))
                    pool = made + batch
                    if len(pool) >= 4:
                        for _ in range(rng.randrange(2, 4)):
                            child = pool[rng.randrange(
                                max(0, len(pool) - 200), len(pool))]
                            part.uses.insert(child)
                        part.uses = part.uses   # mark dirty
                    batch.append(part.oid)
                return batch
            made.extend(db.run_transaction(body, retries=4))
        self._refs["parts"].extend(made)
        self._roots = made[-max(1, n_parts // 10):]

    # -- operations -------------------------------------------------------

    def _pick(self, rng: random.Random, kind: str):
        refs = self._refs[kind]
        return refs[rng.randrange(len(refs))] if refs else None

    def _op_pnew(self, rng: random.Random) -> None:
        db = self.db
        with db.transaction():
            obj = db.pnew(SimItem, name="new%08d" % rng.getrandbits(30),
                          price=round(rng.uniform(1, 500), 2),
                          qty=rng.randrange(50, 500),
                          category=rng.randrange(
                              max(1, int(self.params["scan_categories"]))),
                          reorder_level=10)
        self._refs["items"].append(obj.oid)

    def _op_update(self, rng: random.Random) -> None:
        ref = self._pick(rng, "items")
        if ref is None:
            return
        db = self.db

        def body():
            obj = db.deref(ref)
            obj.qty = max(0, obj.qty + rng.randrange(-20, 21))
            obj.price = round(obj.price * rng.uniform(0.98, 1.02), 2)
        db.run_transaction(body, retries=2)

    def _op_deref(self, rng: random.Random) -> None:
        ref = self._pick(rng, "items")
        if ref is not None:
            obj = self.db.deref(ref)
            _ = obj.qty

    def _op_scan(self, rng: random.Random) -> None:
        cat = rng.randrange(max(1, int(self.params["scan_categories"])))
        total = 0
        for obj in forall(self.db.cluster(SimItem)).suchthat(
                A.category == cat):
            total += obj.qty

    def _op_explode(self, rng: random.Random) -> None:
        if not self._roots:
            return
        root = self._roots[rng.randrange(len(self._roots))]
        db = self.db
        semi_naive([root], lambda ref: list(db.deref(ref).uses))

    def _op_trigger(self, rng: random.Random) -> None:
        if not self._trigger_refs:
            return
        ref = self._trigger_refs[rng.randrange(len(self._trigger_refs))]
        db = self.db

        def body():
            obj = db.deref(ref)
            # Drain to the reorder level so the perpetual restock
            # trigger's condition flips and its action cascades.
            obj.qty = max(0, obj.reorder_level - rng.randrange(0, 5))
        db.run_transaction(body, retries=2)

    def _op_version(self, rng: random.Random) -> None:
        ref = self._pick(rng, "designs")
        if ref is None:
            return
        db = self.db

        def body():
            vref = newversion(db.deref(ref))
            obj = db.deref(vref)
            obj.revision += 1
            obj.notes = "r%d" % obj.revision
        db.run_transaction(body, retries=2)

    def _op_timetravel(self, rng: random.Random) -> None:
        with self._tokens_lock:
            if not self._tokens:
                return
            token = self._tokens[rng.randrange(len(self._tokens))]
        try:
            handle = self.db.cluster(SimItem).as_of(token)
            for i, obj in enumerate(handle):
                if i >= 50:
                    break
        except SnapshotTooOldError:
            with self._tokens_lock:
                if token in self._tokens:
                    self._tokens.remove(token)
            raise

    def _op_ingest(self, rng: random.Random) -> None:
        db = self.db
        batch = int(self.params["ingest_batch"])
        run = self._ingest_run = self._ingest_run + 1
        with db.transaction():
            for i in range(batch):
                obj = db.pnew(SimEvent, run=run, seq=i,
                              energy=rng.uniform(0.1, 99.0),
                              detector=i % 16)
                self._refs["events"].append(obj.oid)

    def _op_analyze(self, rng: random.Random) -> None:
        det = rng.randrange(16)
        total = n = 0
        for obj in forall(self.db.cluster(SimEvent)).suchthat(
                A.detector == det):
            total += obj.energy
            n += 1

    OPS: Dict[str, Callable] = {
        "pnew": _op_pnew, "update": _op_update, "deref": _op_deref,
        "scan": _op_scan, "explode": _op_explode, "trigger": _op_trigger,
        "version": _op_version, "timetravel": _op_timetravel,
        "ingest": _op_ingest, "analyze": _op_analyze,
    }

    # -- run --------------------------------------------------------------

    def _record(self, op: str, start_ns: int, stats: _ClientStats,
                error: bool) -> None:
        elapsed = time.perf_counter_ns() - start_ns
        stats.ops += 1
        stats.by_op[op] = stats.by_op.get(op, 0) + 1
        if error:
            stats.errors += 1
        if self.instrument:
            self._hists[op].observe(elapsed)
            if error:
                self.db.metrics.counter("workload.errors", op=op).inc()

    def _client_loop(self, phase, group, idx: int,
                     stats: _ClientStats) -> None:
        rng = random.Random("%s:%s:%s:%d" % (self.spec.seed, phase.name,
                                             group.arrival, idx))
        ops = list(group.mix)
        weights = [group.mix[o] for o in ops]
        deadline = time.perf_counter() + phase.duration_s
        token_every = 25
        since_token = 0
        next_arrival = time.perf_counter()
        while not self._stop.is_set() and time.perf_counter() < deadline:
            if group.arrival == "closed":
                start_ns = time.perf_counter_ns()
            else:
                # Open loop: wait for the scheduled arrival, then
                # measure from the *schedule*, not from now — latency
                # while the client was queued behind a slow engine
                # counts (no coordinated omission).
                gap = (1.0 / group.rate if group.arrival == "fixed"
                       else rng.expovariate(group.rate))
                wait = next_arrival - time.perf_counter()
                if wait > 0:
                    if self._stop.wait(min(wait, 0.25)):
                        return
                    if time.perf_counter() < next_arrival:
                        continue
                start_ns = int(next_arrival * 1e9)
                next_arrival += gap
            op = rng.choices(ops, weights)[0]
            error = False
            try:
                self.OPS[op](self, rng)
            except OdeError:
                error = True
            self._record(op, start_ns, stats, error)
            since_token += 1
            if since_token >= token_every:
                since_token = 0
                with self._tokens_lock:
                    self._tokens.append(self.db.snapshot_token())
                    if len(self._tokens) > 32:
                        self._tokens.pop(0)
            if group.arrival == "closed" and group.think_time_ms:
                jitter = float(self.params["think_jitter"])
                pause = group.think_time_ms / 1000.0 * rng.uniform(
                    1.0 - jitter, 1.0 + jitter)
                if self._stop.wait(pause):
                    return

    def run(self) -> Dict[str, Any]:
        """Execute every phase; returns the report dict."""
        t0 = time.perf_counter()
        for phase in self.spec.phases:
            threads = []
            for group in phase.clients:
                for idx in range(group.count):
                    stats = _ClientStats()
                    self._stats.append(stats)
                    t = threading.Thread(
                        target=self._client_loop,
                        args=(phase, group, idx, stats),
                        name="wl-%s-%d" % (phase.name, idx), daemon=True)
                    threads.append(t)
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if self._stop.is_set():
                break
        return self.report(time.perf_counter() - t0)

    def stop(self) -> None:
        self._stop.set()

    # -- report -----------------------------------------------------------

    def report(self, elapsed_s: float) -> Dict[str, Any]:
        """The run's report: per-op percentiles, throughput, errors."""
        total_ops = sum(s.ops for s in self._stats)
        total_errors = sum(s.errors for s in self._stats)
        by_op: Dict[str, int] = {}
        for s in self._stats:
            for op, n in s.by_op.items():
                by_op[op] = by_op.get(op, 0) + n
        out: Dict[str, Any] = {
            "scenario": self.spec.to_dict(),
            "elapsed_s": round(elapsed_s, 3),
            "ops": total_ops,
            "errors": total_errors,
            "ops_per_s": round(total_ops / elapsed_s, 1) if elapsed_s else 0,
            "by_op": by_op,
            "latency_ms": {},
            "instrumented": self.instrument,
        }
        if self.instrument:
            for op, hist in sorted(self._hists.items()):
                if hist.count == 0:
                    continue
                pcts = hist.percentiles(REPORT_QUANTILES)
                out["latency_ms"][op] = {
                    k: round(v / 1e6, 3) for k, v in pcts.items()
                    if v is not None}
                out["latency_ms"][op]["count"] = hist.count
                out["latency_ms"][op]["mean"] = round(
                    hist.sum / hist.count / 1e6, 3)
            out["metrics"] = {
                k: v for k, v in sorted(self.db.metrics.snapshot().items())
                if not isinstance(v, dict)}
        return out

"""``embedded_hot`` and ``embedded_cold``: the same ``repro.core`` calls on a
dataset that fits the caches and on one that does not.

Both run one thread in a closed loop against ``repro.Database``. A
generator-side shadow model follows every executed op and must equal the
database read back after a final close and reopen.
"""

from __future__ import annotations

import os
import random
from typing import Callable, Dict, List

from repro import Database, newversion

import layers
from harness import (Spans, Timed, Zipf, clock, disk_bytes, pct, ratio,
                     run_plain, run_windows, weighted_kinds)
from schema import BenchDesign, BenchItem, item_state

#: The time-travel probe reads as of this many ops before the stream's end:
#: pre-images are retained for about 100 KB of log, a few hundred commits.
AS_OF_LAG_OPS = 100

WRITE_KINDS = ("rmw", "pnew", "pdelete", "trigger", "newversion", "take")


class Embedded:
    read_kinds = ("deref",)
    write_kinds = ("rmw",)

    def __init__(self, name: str, cfg: Dict, seed: int, workdir: str):
        self.name = name
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.db = None
        self.execute: Dict[str, Callable] = {}

    # -- set-up -----------------------------------------------------------

    def reset(self) -> None:
        """Seeded generator state and shadow model; touches no database."""
        cfg = self.cfg
        data_rng = random.Random("%s:%d:data" % (self.name, self.seed))
        self.rng = random.Random("%s:%d:ops" % (self.name, self.seed))
        n_items = cfg["items"]
        #: shadow model: id -> full field dict (qty and fired move)
        self.items: Dict[int, Dict] = {
            i: dict(item_state(i, data_rng.randrange(50, 500),
                               round(data_rng.uniform(1, 500), 2), i % 100),
                    reorder_level=10, fired=0)
            for i in range(n_items)}
        self.oids: Dict[int, object] = {}
        self.design_oids: List[object] = []
        self.chain_len = [1] * cfg["designs"]
        self.triggered = set(range(cfg["trigger_items"]))
        self.live = list(range(n_items))
        self.next_id = n_items
        self.written_bytes = 0
        self.count_bytes = False
        theta = cfg["zipf_theta"]
        self.zipf = Zipf(n_items, theta, data_rng) if theta else None
        self.kinds, self.weights = weighted_kinds(cfg["mix"])

    def setup(self, attempt: int) -> None:
        """Schema, load, close/reopen, warm-up — all state starts fresh, so
        repeated set-ups of one run do identical work."""
        cfg = self.cfg
        self.reset()
        self.path = os.path.join(self.workdir, "setup%d" % attempt,
                                 "bench.odb")
        os.makedirs(os.path.dirname(self.path))
        db = Database(self.path)
        db.create(BenchItem)
        db.create(BenchDesign)
        rows = sorted(self.items.items())
        for lo in range(0, len(rows), 1000):
            with db.transaction():
                for i, state in rows[lo:lo + 1000]:
                    self.oids[i] = db.pnew(BenchItem, **state).oid
        with db.transaction():
            for i in range(cfg["designs"]):
                self.design_oids.append(db.pnew(
                    BenchDesign, **self._design_state(i, 0)).oid)
        with db.transaction():
            for i in sorted(self.triggered):
                db.deref(self.oids[i]).restock()
        db.close()
        self._open()
        warm = self.plan(cfg["warmup_ops"])
        for op in warm:
            self.execute[op[0]](op)
        self.apply(warm)

    def discard(self) -> None:
        self.db.close()
        self.db = None

    def _open(self) -> None:
        self.db = Database(self.path)
        # Updated in place: the timed loop keeps its reference over reopens.
        self.execute.update(self._ops(self.db))

    def _reopen(self) -> None:
        """Every in-process cache starts empty again: the live-object cache
        is unbounded and has no public eviction, so closing is the only
        way to keep derefs cold for a whole run."""
        self.db.close()
        self._open()

    # -- op stream ----------------------------------------------------------

    def plan(self, n: int) -> List[tuple]:
        """The next *n* ops. Targets come from the planner's view of which
        ids are live; values that depend on database state (a decremented
        qty) are computed by the op itself and mirrored by :meth:`apply`."""
        rng, live, zipf = self.rng, self.live, self.zipf
        kinds = rng.choices(self.kinds, self.weights, k=n)
        n_designs = self.cfg["designs"]
        ops = []
        for kind in kinds:
            if kind == "pnew":
                i = self.next_id
                self.next_id += 1
                live.append(i)
                ops.append((kind, i, item_state(
                    i, rng.randrange(50, 500),
                    round(rng.uniform(1, 500), 2), i % 100)))
            elif kind == "pdelete":
                # Never a trigger item (ids below the trigger count sit at
                # the front and are skipped), so the trigger set is fixed.
                slot = rng.randrange(len(self.triggered), len(live))
                live[slot], live[-1] = live[-1], live[slot]
                ops.append((kind, live.pop()))
            elif kind == "trigger":
                ops.append((kind, rng.randrange(len(self.triggered)),
                            rng.randrange(5)))
            elif kind == "newversion":
                ops.append((kind, rng.randrange(n_designs)))
            else:
                target = (zipf.draw(rng) if zipf is not None
                          else live[rng.randrange(len(live))])
                if kind == "deref":
                    ops.append((kind, target))
                elif kind == "rmw":
                    ops.append((kind, target, rng.randrange(-20, 21)))
                else:  # take
                    ops.append((kind, target, rng.randrange(1, 30)))
        return ops

    def apply(self, ops: List[tuple]) -> None:
        """Mirror executed *ops* on the shadow model."""
        items = self.items
        for op in ops:
            kind = op[0]
            if kind == "deref":
                continue
            if kind == "newversion":
                self.chain_len[op[1]] += 1
                if self.count_bytes:
                    self.written_bytes += layers.user_bytes(
                        [self._design_state(op[1], self.chain_len[op[1]] - 1)])
                continue
            if kind == "pdelete":
                del items[op[1]]
                continue
            if kind == "pnew":
                state = items[op[1]] = dict(op[2], reorder_level=10, fired=0)
            else:
                state = items[op[1]]
                if kind == "rmw":
                    state["qty"] = max(0, state["qty"] + op[2])
                elif kind == "take":
                    state["qty"] -= min(op[2], state["qty"])
                else:  # trigger
                    state["qty"] = state["reorder_level"] - op[2]
                if (op[1] in self.triggered
                        and state["qty"] <= state["reorder_level"]):
                    state["qty"] += 100
                    state["fired"] += 1
            if self.count_bytes:
                self.written_bytes += layers.user_bytes([state])

    @staticmethod
    def _design_state(i: int, revision: int) -> Dict:
        return {"name": "design%05d" % i, "revision": revision,
                "notes": "r%d" % revision}

    def _ops(self, db: Database) -> Dict[str, Callable]:
        oids, designs = self.oids, self.design_oids
        deref, transaction, pnew = db.deref, db.transaction, db.pnew

        def op_deref(op):
            return deref(oids[op[1]]).qty

        def op_rmw(op):
            with transaction():
                obj = deref(oids[op[1]])
                obj.qty = max(0, obj.qty + op[2])

        def op_pnew(op):
            with transaction():
                obj = pnew(BenchItem, **op[2])
            oids[op[1]] = obj.oid

        def op_pdelete(op):
            with transaction():
                db.pdelete(oids.pop(op[1]))

        def op_trigger(op):
            with transaction():
                obj = deref(oids[op[1]])
                obj.qty = obj.reorder_level - op[2]

        def op_newversion(op):
            with transaction():
                obj = deref(newversion(deref(designs[op[1]])))
                obj.revision += 1
                obj.notes = "r%d" % obj.revision

        def op_take(op):
            with transaction():
                deref(oids[op[1]]).take(op[2])

        return {"deref": op_deref, "rmw": op_rmw, "pnew": op_pnew,
                "pdelete": op_pdelete, "trigger": op_trigger,
                "newversion": op_newversion, "take": op_take}

    # -- timed run ----------------------------------------------------------

    def timed(self, seconds: float) -> List[Timed]:
        between = self._reopen if self.cfg["reopen_each_window"] else None
        return [run_windows(self.plan, self.execute, seconds, self.apply,
                            first_chunk=self.cfg["first_chunk"],
                            between=between)]

    # -- output checks ------------------------------------------------------

    def finish(self) -> Dict:
        """Final checkpoint (close), sizes, then reopen and compare the
        database with the shadow model."""
        self.db.close()
        size = disk_bytes(self.path)
        states = list(self.items.values()) + [
            self._design_state(i, rev)
            for i, n in enumerate(self.chain_len) for rev in range(n)]
        live_bytes = layers.user_bytes(states)
        db = self.db = Database(self.path)
        problems = []
        seen = {}
        for obj in db.cluster(BenchItem):
            seen[obj.id] = (obj.qty, obj.fired)
        want = {i: (s["qty"], s["fired"]) for i, s in self.items.items()}
        if seen != want:
            diff = [i for i in set(seen) | set(want)
                    if seen.get(i) != want.get(i)]
            problems.append("items differ from shadow: %d of %d (first %r)"
                            % (len(diff), len(want), sorted(diff)[:3]))
        for i, oid in enumerate(self.design_oids):
            chain = len(db.versions(oid))
            revision = db.deref(oid).revision
            if (chain, revision) != (self.chain_len[i], self.chain_len[i] - 1):
                problems.append("design %d: chain %d rev %d, shadow chain %d"
                                % (i, chain, revision, self.chain_len[i]))
                break
        db.close()
        self.db = None
        return {"problems": problems, "disk_bytes": size,
                "live_user_bytes": live_bytes,
                "objects": len(self.items) + sum(self.chain_len)}

    # -- traced run ---------------------------------------------------------

    def traced(self, spans: Spans) -> Dict:
        """Fixed op counts from the seed; returns per-layer values and the
        exact counts two runs of one seed must agree on."""
        cfg, db = self.cfg, self.db
        n = cfg["traced_ops"]
        every = cfg.get("traced_reopen_every", 0)
        self.count_bytes = True
        sums = layers.CounterSum(db)

        def reopen():
            # Counters restart with every open, so deltas add up per open.
            sums.stop()
            self._reopen()
            sums.start(self.db)

        # Phase A: the untraced loop body, for the tracing overhead.
        def reopen_on_schedule(k):
            if every and k % every == 0:
                reopen()
        ops_a = self.plan(n)
        plain_s = run_plain(ops_a, self.execute, reopen_on_schedule)
        self.apply(ops_a)

        # Phase B: the same mix with spans around each public call.
        ops_b = self.plan(n)
        token = None
        cold_ids: List[int] = []
        touched = set()
        traced_ops = self._traced_ops(spans, touched, cold_ids)
        start = clock()
        for k, op in enumerate(ops_b):
            if every and k % every == 0:
                reopen()    # not reopen_on_schedule: the closures are rebuilt
                touched.clear()
                traced_ops = self._traced_ops(spans, touched, cold_ids)
            if k == n - AS_OF_LAG_OPS:
                token = self.db.snapshot_token()
            traced_ops[op[0]](op, k)
        traced_s = clock() - start
        self.apply(ops_b)
        sums.stop()
        totals = sums.totals
        all_ops = ops_a + ops_b
        commits = sum(1 for op in all_ops if op[0] in WRITE_KINDS)

        out = layers.counter_metrics({}, totals, len(all_ops), commits,
                                     self.written_bytes)
        out["obs.trace_overhead_share"] = 1.0 - ratio(plain_s, traced_s)
        counts = {k: totals.get(k, 0.0) for k in (
            "buffer.misses", "buffer.evictions", "decoded.misses",
            "wal.appends", "wal.syncs", "wal.end_lsn", "txn.commits")}
        counts["ops"] = len(all_ops)
        db = self.db

        def p50(name, scale):
            return pct(spans.durations(name), 0.5) * scale
        out["core.deref_hot_us_p50"] = p50("core.deref_hot", 1e6)
        out["core.deref_cold_ms_p50"] = p50("core.deref_cold", 1e3)
        out["core.pnew_us_p50"] = p50("core.pnew", 1e6)
        out["core.commit_ms_p50"] = p50("core.commit", 1e3)
        out["core.update_txn_ms_p50"] = p50("core.update_txn", 1e3)
        out["core.trigger_cascade_ms_p50"] = p50("core.trigger_cascade", 1e3)
        out["core.newversion_ms_p50"] = p50("core.newversion", 1e3)
        out["core.constraint_call_us_p50"] = p50("core.constraint_call", 1e6)

        # Time travel: 50 objects as of a token a few dozen commits old.
        handle = db.cluster(BenchItem).as_of(token)
        for _ in range(20):
            start = clock()
            for k, _obj in enumerate(handle):
                if k >= 49:
                    break
            spans.add("core.as_of", start, clock(), -1, -1)
        out["core.as_of_ms_p50"] = p50("core.as_of", 1e3)

        # The storage calls under a cold deref, replayed on the same keys.
        if cold_ids:
            self._reopen()
            db = self.db
            store, cluster = db.store, BenchItem.__name__
            cold_ids = cold_ids[:cfg["traced_get_keys"]]
            misses = db.metrics.snapshot()["buffer.misses"]
            for i in cold_ids:
                serial = self.oids[i].serial
                start = clock()
                head = store.get(cluster, (serial, 0))
                store.get(cluster, (serial, head["current"]))
                spans.add("storage.get_cold", start, clock(), -1, i)
            misses = db.metrics.snapshot()["buffer.misses"] - misses
            out["storage.get_cold_ms_p50"] = p50("storage.get_cold", 1e3)
            out["storage.pages_read_per_get"] = ratio(misses, len(cold_ids))
            out["core.self_deref_cold_ms_p50"] = (
                out["core.deref_cold_ms_p50"]
                - out["storage.get_cold_ms_p50"])
            counts["get_cold.buffer_misses"] = misses

        out.update(layers.store_probes(
            db, list(self.items.values())[:2000], spans))
        # A fixed tail of committed work for the redo pass, then a crash.
        tail = self.plan(cfg["traced_recovery_ops"])
        for op in tail:
            self.execute[op[0]](op)
        self.apply(tail)
        self.db, out["storage.recovery_ms"] = layers.recovery_probe(
            db, self.path, spans)
        self.execute.update(self._ops(self.db))
        out["storage.vacuum_ms"] = layers.span_ms(
            spans, "storage.vacuum", lambda: self.db.vacuum(BenchItem))[1]
        return {"metrics": out, "counts": counts}

    def _traced_ops(self, spans: Spans, touched: set,
                    cold_ids: List[int]) -> Dict[str, Callable]:
        """Op bodies with a span around each public call. A deref is cold
        the first time an id is touched after a reopen (never on the
        resident workload, which does not reopen)."""
        db = self.db
        oids = self.oids
        deref, transaction, add = db.deref, db.transaction, spans.add
        plain = self.execute
        can_be_cold = bool(self.cfg["reopen_each_window"])

        def t_deref(op, k):
            cold = can_be_cold and op[1] not in touched
            start = clock()
            deref(oids[op[1]]).qty
            end = clock()
            if cold:
                touched.add(op[1])
                cold_ids.append(op[1])
            add("core.deref_cold" if cold else "core.deref_hot",
                start, end, -1, k)

        def t_rmw(op, k):
            touched.add(op[1])
            start = clock()
            with transaction():
                obj = deref(oids[op[1]])
                obj.qty = max(0, obj.qty + op[2])
                body_end = clock()
            end = clock()
            root = add("core.update_txn", start, end, -1, k)
            add("core.commit", body_end, end, root, k)

        def t_pnew(op, k):
            start = clock()
            with transaction():
                inner = clock()
                obj = db.pnew(BenchItem, **op[2])
                inner_end = clock()
            end = clock()
            oids[op[1]] = obj.oid
            root = add("core.pnew_txn", start, end, -1, k)
            add("core.pnew", inner, inner_end, root, k)
            add("core.commit", inner_end, end, root, k)

        def t_take(op, k):
            touched.add(op[1])
            start = clock()
            with transaction():
                obj = deref(oids[op[1]])
                inner = clock()
                obj.take(op[2])
                inner_end = clock()
            end = clock()
            root = add("core.take_txn", start, end, -1, k)
            add("core.constraint_call", inner, inner_end, root, k)
            add("core.commit", inner_end, end, root, k)

        def wrap(kind, name):
            fn = plain[kind]

            def run(op, k):
                start = clock()
                fn(op)
                add(name, start, clock(), -1, k)
            return run

        return {"deref": t_deref, "rmw": t_rmw, "pnew": t_pnew,
                "take": t_take,
                "pdelete": wrap("pdelete", "core.pdelete"),
                "trigger": wrap("trigger", "core.trigger_cascade"),
                "newversion": wrap("newversion", "core.newversion")}

"""``server_oltp``: two connections shipping O++ source to ``repro serve``.

The dataset fits the caches, so ``repro.server`` (framing, sessions,
admission) and ``repro.opp`` (lex, parse, interpret per request) do the
work while storage is all hits. The timed run is a closed loop; the traced
run adds the open-loop rate ladder and the layer probes. Both end with a
SIGKILL of the server and an embedded reopen that must hold every
acknowledged write.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from repro import Database
from repro.errors import OdeError
from repro.opp import Interpreter, parse, tokenize
from repro.server import (Client, decode_message, encode_frame,
                          encode_message)

import layers
from harness import (ROOT, Spans, Timed, clock, disk_bytes,
                     highest_passing_rate, pct, peak_rss_mb,
                     poisson_due_times, ratio, run_plain, run_windows,
                     rung_passes,
                     weighted_kinds)
from schema import OPP_CLASSES, OPP_CREATE

CONNECTIONS = 2
FAILURES = (OdeError, OSError)

LOOKUP = ('forall t in ritem suchthat (t->id == %d) '
          'printf("%%d\\n", t->qty);')
UPDATE = ('forall t in ritem suchthat (t->id == %d) '
          't->qty = t->qty + %d;')
PNEW = 'pnew rorder(%d, %d, %d, %.2f);'
SCAN = ('forall t in ritem suchthat (t->category == %d) '
        'printf("%%d\\n", t->qty);')
STREAM_ALL = 'forall t in ritem printf("%d\\n", t->qty);'


class ServerOltp:
    name = "server_oltp"
    read_kinds = ("lookup",)
    write_kinds = ("update",)

    def __init__(self, cfg: Dict, seed: int, workdir: str):
        self.cfg = cfg
        self.seed = seed
        self.workdir = workdir
        self.server: Optional[subprocess.Popen] = None
        self.clients: List[Client] = []
        self._finished: Optional[Dict] = None

    # -- set-up -----------------------------------------------------------

    def reset(self) -> None:
        """Seeded generator state and shadow rows; touches no database."""
        cfg = self.cfg
        rng = random.Random("server_oltp:%d:data" % self.seed)
        #: shadow: id -> [name, qty, category, price]; qty follows the acks
        self.rows: Dict[int, list] = {
            i: ["item%06d" % i, rng.randrange(50, 500),
                i % cfg["categories"], round(rng.uniform(1, 500), 2)]
            for i in range(cfg["items"])}
        self.orders: Dict[int, list] = {}
        self.executed: List[List[tuple]] = [[] for _ in range(CONNECTIONS)]
        self.failed_ops: List[tuple] = []
        self.attempts = [0] * CONNECTIONS
        self.next_id = [1_000_000 * (c + 1) for c in range(CONNECTIONS)]
        self.rngs = [random.Random("server_oltp:%d:ops:%d" % (self.seed, c))
                     for c in range(CONNECTIONS)]
        self.kinds, self.weights = weighted_kinds(cfg["mix"])
        self.category_size = cfg["items"] // cfg["categories"]

    def setup(self, attempt: int) -> None:
        """Build the database embedded (O++ has no index DDL), start the
        server on it, connect, declare the classes per session, warm up."""
        cfg = self.cfg
        self.reset()
        self.path = os.path.join(self.workdir, "setup%d" % attempt,
                                 "bench.odb")
        os.makedirs(os.path.dirname(self.path))
        rows = sorted(self.rows.items())
        db = Database(self.path)
        Interpreter(db).run(OPP_CLASSES + OPP_CREATE)
        db.create_index("ritem", "id", kind="hash")
        for lo in range(0, len(rows), 1000):
            with db.transaction():
                for i, row in rows[lo:lo + 1000]:
                    db.pnew("ritem", name=row[0], id=i, qty=row[1],
                            category=row[2], price=row[3])
        db.close()

        env = dict(os.environ,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.path],
            env=env, cwd=self.workdir, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline().split()
        if len(line) != 3 or line[0] != "LISTENING":
            raise RuntimeError("server did not start: %r" % (line,))
        self.host, self.port = line[1], int(line[2])
        self.clients = [Client(self.host, self.port)
                        for _ in range(CONNECTIONS)]
        for client in self.clients:
            client.execute(OPP_CLASSES)
        self.execute = [self._ops(c) for c in range(CONNECTIONS)]

        def warm_up(conn):
            warm = self.plan(conn, cfg["warmup_ops"])
            for op in warm:
                self.execute[conn][op[0]](op)
            self.executed[conn].extend(warm)
        # Both connections at once: under concurrent writers this program
        # settles into full scans for in-transaction updates (see README),
        # and the timed run must start from that steady state.
        self._on_threads(warm_up)

    def discard(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self._kill_server()

    def _kill_server(self) -> None:
        if self.server is not None:
            self.server.send_signal(signal.SIGKILL)
            self.server.wait()
            self.server.stdout.close()
            self.server = None

    # -- op stream ----------------------------------------------------------

    def plan(self, conn: int, n: int) -> List[tuple]:
        """The next *n* ops of one connection, O++ source included."""
        rng, cfg = self.rngs[conn], self.cfg
        n_items, categories = cfg["items"], cfg["categories"]
        ops = []
        for kind in rng.choices(self.kinds, self.weights, k=n):
            if kind == "lookup":
                i = rng.randrange(n_items)
                ops.append((kind, i, LOOKUP % i))
            elif kind == "update":
                # One in ten lands on a small hot set shared by both
                # connections, to force write-write conflicts.
                i = (rng.randrange(cfg["hot_rows"]) if rng.random() < 0.1
                     else rng.randrange(n_items))
                delta = rng.randrange(1, 21)
                ops.append((kind, i, UPDATE % (i, delta), delta))
            elif kind == "pnew":
                i = self.next_id[conn]
                self.next_id[conn] += 1
                order = [rng.randrange(n_items), rng.randrange(1, 10),
                         round(rng.uniform(1, 500), 2)]
                ops.append((kind, i, PNEW % (i, order[0], order[1], order[2]),
                            order))
            else:
                cat = rng.randrange(categories)
                ops.append((kind, cat, SCAN % cat))
        return ops

    def _ops(self, conn: int) -> Dict[str, Callable]:
        client, attempts = self.clients[conn], self.attempts
        floor = self.category_size

        def op_lookup(op):
            out = client.execute(op[2])
            if len(out) != 1:
                raise RuntimeError("lookup %d returned %r" % (op[1], out))

        def op_update(op):
            def body(c):
                attempts[conn] += 1
                c.execute(op[2])
            client.run_transaction(body)

        def op_pnew(op):
            client.execute(op[2])

        def op_scan(op):
            out = client.execute(op[2])
            if len(out) < floor:
                raise RuntimeError("scan of category %d returned %d rows"
                                   % (op[1], len(out)))

        return {"lookup": op_lookup, "update": op_update, "pnew": op_pnew,
                "scan": op_scan}

    # -- timed run ----------------------------------------------------------

    def _on_threads(self, target: Callable[[int], object]) -> List:
        """Run ``target(conn)`` on one thread per connection."""
        results: List = [None] * CONNECTIONS
        errors: List[BaseException] = []

        def work(conn):
            try:
                results[conn] = target(conn)
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
        threads = [threading.Thread(target=work, args=(c,))
                   for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return results

    def timed(self, seconds: float) -> List[Timed]:
        def client_loop(conn):
            timed = run_windows(
                lambda n: self.plan(conn, n), self.execute[conn], seconds,
                self.executed[conn].extend,
                first_chunk=self.cfg["first_chunk"], errors=FAILURES)
            self.failed_ops.extend(timed.failed_ops)
            return timed
        return self._on_threads(client_loop)

    # -- output checks ------------------------------------------------------

    def finish(self) -> Dict:
        """SIGKILL the server, reopen embedded, and require every
        acknowledged write in the recovered database."""
        if self._finished is not None:
            return self._finished
        rss = peak_rss_mb(self.server.pid)
        for client in self.clients:
            client.close()
        self.clients = []
        self._kill_server()

        failed = {id(op) for op in self.failed_ops}
        unsure = {op[1] for op in self.failed_ops}
        for ops in self.executed:
            for op in ops:
                if id(op) in failed:
                    continue
                if op[0] == "update":
                    self.rows[op[1]][1] += op[3]
                elif op[0] == "pnew":
                    self.orders[op[1]] = op[3]
        start = clock()
        db = Database(self.path)
        self.recovery_ms = (clock() - start) * 1e3
        Interpreter(db).run(OPP_CLASSES)
        problems = []
        stored = {obj.id: obj.qty for obj in db.cluster("ritem")}
        want = {i: row[1] for i, row in self.rows.items()}
        stored_orders = {obj.id: [obj.item, obj.qty, obj.amount]
                         for obj in db.cluster("rorder")}
        for label, got, expected in (("ritem", stored, want),
                                     ("rorder", stored_orders, self.orders)):
            wrong = [i for i in set(got) | set(expected)
                     if i not in unsure and got.get(i) != expected.get(i)]
            if wrong:
                problems.append(
                    "%s after SIGKILL + reopen differs from the ack ledger "
                    "in %d rows (first %r)"
                    % (label, len(wrong), sorted(wrong)[:3]))
        db.close()
        size = disk_bytes(self.path)
        live_bytes = layers.user_bytes(
            [_state(i, row) for i, row in self.rows.items()]
            + [_order_state(i, row) for i, row in self.orders.items()])
        self._finished = {"problems": problems, "disk_bytes": size,
                          "live_user_bytes": live_bytes, "rss_mb": rss,
                          "objects": len(self.rows) + len(self.orders)}
        return self._finished

    # -- traced run ---------------------------------------------------------

    def traced(self, spans: Spans) -> Dict:
        cfg = self.cfg
        n = cfg["traced_ops"]
        out: Dict[str, float] = {}
        wal_path = self.path + ".wal"
        before = _flat_stats(self.clients[0].stats())
        wal_before = os.path.getsize(wal_path)
        attempts_before = sum(self.attempts)

        # Phase A: the untraced loop body, for the tracing overhead.
        def plain(conn):
            ops = self.plan(conn, n)
            seconds = run_plain(ops, self.execute[conn])
            self.executed[conn].extend(ops)
            phase_ops.extend(ops)
            return seconds
        phase_ops: List[tuple] = []
        plain_s = max(self._on_threads(plain))

        # Phase B: one span per request, named after its op.
        traced_ops: List[List[tuple]] = [[] for _ in range(CONNECTIONS)]

        def with_spans(conn):
            ops = traced_ops[conn] = self.plan(conn, n)
            execute = self.execute[conn]
            start = clock()
            for k, op in enumerate(ops):
                fn = execute[op[0]]
                t0 = clock()
                fn(op)
                spans.add("server.request." + op[0], t0, clock(), -1,
                          conn * n + k)
            self.executed[conn].extend(ops)
            phase_ops.extend(ops)
            return clock() - start
        traced_s = max(self._on_threads(with_spans))
        out["obs.trace_overhead_share"] = 1.0 - ratio(plain_s, traced_s)

        after = _flat_stats(self.clients[0].stats())
        all_ops = phase_ops
        writes = [op for op in all_ops if op[0] in ("update", "pnew")]
        updates = sum(1 for op in all_ops if op[0] == "update")
        written = layers.user_bytes(
            [_order_state(op[1], op[3]) if op[0] == "pnew"
             else _state(op[1], self.rows[op[1]]) for op in writes])
        after["wal.end_lsn"] = os.path.getsize(wal_path)
        before["wal.end_lsn"] = wal_before
        out.update(layers.counter_metrics(before, after, len(all_ops),
                                          len(writes), written))
        out["storage.lock_waits_per_1k_ops"] = 1e3 * ratio(
            after["lock.waits"] - before["lock.waits"], len(all_ops))
        out["core.conflict_retry_share"] = ratio(
            sum(self.attempts) - attempts_before - updates, updates)
        counts = {"ops": len(all_ops), "writes": len(writes)}

        # server layer, one idle connection at a time
        client = self.clients[0]
        for _ in range(300):
            start = clock()
            client.ping()
            spans.add("server.ping", start, clock(), -1, -1)
        out["server.rtt_ping_us_p50"] = pct(
            spans.durations("server.ping"), 0.5) * 1e6
        for _ in range(30):
            start = clock()
            Client(self.host, self.port).close()
            spans.add("server.conn_setup", start, clock(), -1, -1)
        out["server.conn_setup_ms_p50"] = pct(
            spans.durations("server.conn_setup"), 0.5) * 1e3
        rows = 0
        for _ in range(3):
            start = clock()
            rows = len(client.execute(STREAM_ALL))
            spans.add("server.stream", start, clock(), -1, -1)
        out["server.stream_rows_per_s"] = ratio(
            rows, pct(spans.durations("server.stream"), 0.5))
        sample = [op for op in traced_ops[0]][:400]
        start = clock()
        for op in sample:
            for message in ({"op": "execute", "source": op[2]},
                            {"ok": True, "done": True, "output": ["123"]}):
                payload = encode_message(message)
                encode_frame(payload)
                decode_message(payload)
        spans.add("server.frame_codec", start, clock(), -1, -1)
        out["server.frame_codec_us_per_msg"] = ratio(
            (clock() - start) * 1e6, 2 * len(sample))

        # open loop: the rate ladder
        ladder = self._ladder(spans)
        limits = cfg["open_loop"]["limits"]
        out["server.ok_rate_per_s"] = highest_passing_rate(ladder, limits)
        fixed = [r for r in ladder
                 if r["rate"] == cfg["open_loop"]["fixed_rate"]] or ladder[-1:]
        out["server.open_p99_ms"] = fixed[0]["p99_ms"]
        out["server.refused_share"] = ratio(
            sum(r["bad"] for r in ladder), sum(r["sent"] for r in ladder))
        out["server.loadgen_late_ms_p99"] = fixed[0]["late_p99_ms"]
        counts["ladder"] = [{k: r[k] for k in ("rate", "sent", "bad",
                                               "p99_ms", "late_tail_ms")}
                            for r in ladder]

        # Everything acknowledged so far must survive the kill.
        self.finish()
        out["storage.recovery_ms"] = self.recovery_ms

        # opp layer: the same statements through an embedded Interpreter.
        db = Database(self.path)
        interp = Interpreter(db, echo=False)
        interp.run(OPP_CLASSES)
        by_kind: Dict[str, List[tuple]] = {}
        for op in traced_ops[0]:
            by_kind.setdefault(op[0], []).append(op)
        lex_s = parse_s = run_s = 0.0
        statements = 0
        for kind, ops in sorted(by_kind.items()):
            for op in ops[:200]:
                source = op[2]
                t0 = clock()
                tokenize(source)
                t1 = clock()
                parse(source)
                t2 = clock()
                interp.run(source)
                t3 = clock()
                spans.add("opp.lex", t0, t1, -1, -1)
                spans.add("opp.parse", t1, t2, -1, -1)
                spans.add("opp.run." + kind, t2, t3, -1, -1)
                lex_s += t1 - t0
                parse_s += t2 - t1
                run_s += t3 - t2
                statements += 1
            out["opp.interp_ms_p50.%s" % kind] = pct(
                spans.durations("opp.run." + kind), 0.5) * 1e3
        out["opp.lex_us_per_stmt"] = ratio(lex_s * 1e6, statements)
        # parse() lexes again inside; its own share is what is left.
        out["opp.parse_us_per_stmt"] = ratio((parse_s - lex_s) * 1e6,
                                             statements)
        out["opp.parse_share"] = ratio(parse_s, run_s)
        out["server.overhead_ms_p50"] = (
            pct(spans.durations("server.request.lookup"), 0.5) * 1e3
            - out["opp.interp_ms_p50.lookup"])
        out.update(layers.store_probes(
            db, [_state(i, row) for i, row in self.rows.items()], spans))
        db.close()
        return {"metrics": out, "counts": counts,
                "failed": len(self.failed_ops)}

    def _ladder(self, spans: Spans) -> List[Dict]:
        """Poisson arrivals at fixed absolute rates, each request timed
        from when it was due; stops after the first failing rung."""
        open_cfg = self.cfg["open_loop"]
        limits, rung_s = open_cfg["limits"], open_cfg["rung_seconds"]
        results = []
        for rate in open_cfg["ladder"]:
            per_conn = []
            for conn in range(CONNECTIONS):
                rng = random.Random("server_oltp:%d:open:%d:%d"
                                    % (self.seed, rate, conn))
                due = poisson_due_times(rate / CONNECTIONS, rung_s, rng)
                per_conn.append((due, self.plan(conn, len(due))))

            def fire(conn):
                due, ops = per_conn[conn]
                execute = self.execute[conn]
                lat, late, bad, done = [], [], 0, []
                origin = clock()
                for when, op in zip(due, ops):
                    wait = origin + when - clock()
                    if wait > 0:
                        time.sleep(wait)
                    sent = clock()
                    try:
                        execute[op[0]](op)
                        done.append(op)
                    except FAILURES:
                        bad += 1
                        self.failed_ops.append(op)
                        done.append(op)
                    end = clock()
                    lat.append(end - (origin + when))
                    late.append(max(0.0, sent - (origin + when)))
                self.executed[conn].extend(done)
                return lat, late, bad
            start = clock()
            parts = self._on_threads(fire)
            spans.add("server.open_rung", start, clock(), -1, rate)
            lat = [x for p in parts for x in p[0]]
            late = [x for p in parts for x in p[1]]
            tails = [x for p in parts for x in p[1][-max(1, len(p[1]) // 10):]]
            bad = sum(p[2] for p in parts)
            rung = {"rate": rate, "sent": len(lat), "bad": bad,
                    "p99_ms": pct(lat, 0.99) * 1e3,
                    "bad_share": ratio(bad, len(lat)),
                    "late_tail_ms": statistics.median(tails) * 1e3,
                    "late_p99_ms": pct(late, 0.99) * 1e3}
            results.append(rung)
            if not rung_passes(rung, limits):
                break
        return results


def _state(i: int, row: list) -> Dict:
    return {"name": row[0], "id": i, "qty": row[1], "category": row[2],
            "price": row[3]}


def _order_state(i: int, row: list) -> Dict:
    return {"id": i, "item": row[0], "qty": row[1], "amount": row[2]}


def _flat_stats(stats: Dict) -> Dict[str, float]:
    """``Client.stats()`` under the names ``metrics.snapshot()`` uses."""
    return {
        "buffer.hits": stats["buffer"]["hits"],
        "buffer.misses": stats["buffer"]["misses"],
        "buffer.evictions": stats["buffer"].get("evictions", 0),
        "decoded.hits": stats["decoded_cache"].get("hits", 0),
        "decoded.misses": stats["decoded_cache"].get("misses", 0),
        "wal.syncs": stats["wal"]["syncs"],
        "lock.waits": stats["locks"].get("waits", 0),
    }

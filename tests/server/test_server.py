"""Server behavior: sessions, admission control, deadlines, eviction,
graceful drain — all over real sockets against an in-process server."""

import socket
import threading
import time

import pytest

from repro.core.database import Database
from repro.errors import (ConnectionClosedError, DeadlineExceededError,
                          OdeError, OppSyntaxError, ServerOverloadedError,
                          TransactionError)
from repro.server import Client, OdeServer, ServerConfig, protocol

SCHEMA = """
class gadget { public: char* name; int qty; };
create gadget;
"""

#: O++ that spins long enough to blow a small deadline: the step hook
#: fires between top-level statements, so the busy work is many cheap
#: statements rather than one long one.
BUSY = "int b%d = 0;\n" + "while (b%d < 60000) b%d++;\n" * 3


def busy_src(tag: int) -> str:
    return BUSY.replace("%d", str(tag))


@pytest.fixture
def db(tmp_path):
    database = Database(str(tmp_path / "srv.odb"))
    yield database
    database.close()


def make_server(db, **overrides):
    overrides.setdefault("port", 0)
    return OdeServer(db, ServerConfig(**overrides)).start()


@pytest.fixture
def server(db):
    srv = make_server(db, allow_debug_delay=True)
    yield srv
    srv.shutdown()


def connect(server, **kw) -> Client:
    host, port = server.address
    return Client(host, port, **kw)


class TestExecute:
    def test_execute_and_output(self, server):
        with connect(server) as c:
            c.execute(SCHEMA)
            out = c.execute('pnew gadget("bolt", 7);\n'
                            "forall g in gadget suchthat (g->qty > 0) "
                            'printf("%s=%d\\n", g->name, g->qty);')
            assert out == ["bolt=7\n"]

    def test_interpreter_state_persists_across_requests(self, server):
        with connect(server) as c:
            c.execute("int counter = 40;")
            out = c.execute('counter += 2; printf("%d", counter);')
            assert out == ["42"]

    def test_interpreter_state_isolated_between_connections(self, server):
        with connect(server) as a, connect(server) as b:
            a.execute("int mine = 1;")
            with pytest.raises(OdeError):
                b.execute('printf("%d", mine);')

    def test_large_output_streams_in_chunks(self, server):
        with connect(server) as c:
            out = c.execute("int i = 0;\n"
                            'while (i < 2000) { printf("%d\\n", i); i++; }')
            assert len(out) == 2000
            assert out[0] == "0\n"
            assert out[-1] == "1999\n"

    def test_remote_error_is_typed(self, server):
        with connect(server) as c:
            with pytest.raises(OppSyntaxError):
                c.execute("this is not O++;")
            # The connection survives a request-level error.
            c.ping()


class TestTransactions:
    def test_txn_spans_requests_and_commits(self, server):
        with connect(server) as c:
            c.execute(SCHEMA)
            c.begin()
            c.execute('pnew gadget("nut", 1);')
            c.execute('pnew gadget("washer", 2);')
            c.commit()
            out = c.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["2"]

    def test_abort_discards(self, server):
        with connect(server) as c:
            c.execute(SCHEMA)
            c.begin()
            c.execute('pnew gadget("ghost", 9);')
            c.abort()
            out = c.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["0"]

    def test_uncommitted_writes_invisible_to_other_connection(self, server):
        with connect(server) as a, connect(server) as b:
            a.execute(SCHEMA)
            a.begin()
            a.execute('pnew gadget("secret", 5);')
            out = b.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["0"]
            a.commit()
            out = b.execute("int n2 = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n2++;\n"
                            'printf("%d", n2);')
            assert out == ["1"]

    def test_statement_error_aborts_open_txn(self, server):
        # Same rule as the embedded context manager: an error inside an
        # explicit transaction aborts it.
        with connect(server) as c:
            c.execute(SCHEMA)
            c.begin()
            c.execute('pnew gadget("doomed", 3);')
            with pytest.raises(OppSyntaxError):
                c.execute("syntax error here;")
            with pytest.raises(TransactionError):
                c.commit()
            out = c.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["0"]

    def test_malformed_request_leaves_txn_alone(self, server):
        # An unknown op is the client's bug, not the transaction's.
        with connect(server) as c:
            c.execute(SCHEMA)
            c.begin()
            c.execute('pnew gadget("keeper", 4);')
            with pytest.raises(protocol.ProtocolError):
                c._request({"op": "bogus"})
            c.commit()
            out = c.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["1"]

    def test_begin_twice_rejected(self, server):
        with connect(server) as c:
            c.begin()
            with pytest.raises(TransactionError):
                c.begin()
            c.abort()

    def test_disconnect_aborts_open_txn(self, db, server):
        with connect(server) as c:
            c.execute(SCHEMA)
        c2 = connect(server)
        c2.begin()
        c2.execute('pnew gadget("orphan", 8);')
        c2.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not db.store.active_transactions:
                break
            time.sleep(0.02)
        with connect(server) as c3:
            out = c3.execute("int n = 0;\n"
                            "forall g in gadget suchthat (g->qty > 0) n++;\n"
                            'printf("%d", n);')
            assert out == ["0"]


class TestDeadlines:
    def test_request_deadline_expires(self, server):
        with connect(server) as c:
            with pytest.raises(DeadlineExceededError):
                c.execute(busy_src(1), deadline_ms=30)
            # Deadlines are per-request: the connection survives.
            c.ping()

    def test_deadline_interrupts_single_statement_loop(self, server):
        # One ~multi-second while statement: the deadline must fire from
        # inside the loop (the interpreter's loop tick), not only at
        # top-level statement boundaries.
        with connect(server) as c:
            src = "int j = 0;\nwhile (j < 100000000) j++;"
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                c.execute(src, deadline_ms=100)
            assert time.monotonic() - start < 5.0
            c.ping()

    def test_deadline_mid_result_stream(self, db):
        # Small chunks + a slow trickle of output: the deadline check
        # before each chunk flush fires while results are streaming.
        srv = make_server(db, allow_debug_delay=True)
        try:
            with connect(srv) as c:
                src = ("int i = 0;\n"
                       'while (i < 400) { printf("%d\\n", i); i++; }\n'
                       + busy_src(2)
                       + 'printf("end\\n");')
                with pytest.raises(DeadlineExceededError):
                    c.execute(src, deadline_ms=40)
                c.ping()
        finally:
            srv.shutdown()

    def test_request_deadline_aborts_open_txn(self, server):
        with connect(server) as c:
            c.execute(SCHEMA)
            c.begin()
            c.execute('pnew gadget("late", 6);')
            with pytest.raises(DeadlineExceededError):
                c.execute(busy_src(3), deadline_ms=30)
            # The deadline expired mid-transaction: it was aborted.
            with pytest.raises(TransactionError):
                c.commit()

    def test_txn_deadline_reaps_idle_holder(self, db):
        srv = make_server(db, txn_timeout_s=0.3)
        try:
            with connect(srv) as c:
                c.execute(SCHEMA)
            c2 = connect(srv)
            c2.begin()
            c2.execute('pnew gadget("squatter", 2);')
            # Go silent on the open transaction past its deadline; the
            # reaper closes the socket and the handler thread aborts the
            # transaction on its own (the owning) thread.
            time.sleep(1.0)
            with pytest.raises((ConnectionClosedError, OSError)):
                c2.ping()
            evictions = [v for k, v in db.metrics.snapshot().items()
                         if "server.evictions" in k
                         and "txn_deadline" in k]
            assert sum(evictions) >= 1
            with connect(srv) as c3:
                out = c3.execute(
                    "int n = 0;\n"
                    "forall g in gadget suchthat (g->qty > 0) n++;\n"
                    'printf("%d", n);')
                assert out == ["0"]
        finally:
            srv.shutdown()


class TestAdmission:
    def test_inflight_cap_fast_fails(self, db):
        srv = make_server(db, max_inflight=1, admission_wait_s=0.02,
                          allow_debug_delay=True)
        try:
            blocker = connect(srv)
            t = threading.Thread(
                target=lambda: blocker.ping(delay_ms=800))
            t.start()
            time.sleep(0.2)  # let the blocker occupy the only slot
            with connect(srv) as c:
                with pytest.raises(ServerOverloadedError):
                    c.ping()
            t.join()
            blocker.close()
            snap = db.metrics.snapshot()
            rejects = [v for k, v in snap.items()
                       if "server.overload_rejects" in k
                       and "inflight" in k]
            assert sum(rejects) >= 1
        finally:
            srv.shutdown()

    def test_overload_is_transient_so_clients_retry(self, db):
        srv = make_server(db, max_inflight=1, admission_wait_s=0.02,
                          allow_debug_delay=True)
        try:
            blocker = connect(srv)
            t = threading.Thread(
                target=lambda: blocker.ping(delay_ms=600))
            t.start()
            time.sleep(0.2)
            from repro.retry import RetryPolicy
            with connect(srv, retry=RetryPolicy(retries=8,
                                                base_delay=0.1)) as c:
                # run_transaction sees ServerOverloadedError (transient),
                # backs off, and succeeds once the blocker finishes.
                result = c.run_transaction(lambda cl: "made it")
                assert result == "made it"
            t.join()
            blocker.close()
        finally:
            srv.shutdown()

    def test_connection_cap_fast_fails(self, db):
        srv = make_server(db, max_connections=2)
        try:
            a = connect(srv)
            b = connect(srv)
            a.ping()
            b.ping()
            with pytest.raises(ServerOverloadedError):
                with connect(srv) as c:
                    c.ping()
            a.close()
            b.close()
            # Slots free up once connections close.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    with connect(srv) as c:
                        c.ping()
                    break
                except (ServerOverloadedError, OSError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            rejects = [v for k, v in db.metrics.snapshot().items()
                       if "server.overload_rejects" in k
                       and "connections" in k]
            assert sum(rejects) >= 1
        finally:
            srv.shutdown()


class TestEviction:
    def test_idle_timeout_evicts(self, db):
        srv = make_server(db, idle_timeout_s=0.3)
        try:
            c = connect(srv)
            c.ping()
            time.sleep(0.9)
            with pytest.raises((ConnectionClosedError, OSError)):
                c.ping()
            c.close()
            evictions = [v for k, v in db.metrics.snapshot().items()
                         if "server.evictions" in k and "idle" in k]
            assert sum(evictions) >= 1
        finally:
            srv.shutdown()

    def test_slow_client_evicted_without_stalling_others(self, db):
        # The slow client asks for a huge result and never reads it;
        # with a tiny server-side send buffer the reply send blocks,
        # times out, and the connection is evicted — while a healthy
        # client on another connection keeps making progress throughout.
        srv = make_server(db, write_timeout_s=0.4, sndbuf=4096)
        try:
            slow = connect(srv)
            src = ('int i = 0;\n'
                   'while (i < 60000) { '
                   'printf("%d aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\\n", i); '
                   'i++; }')
            protocol.send_message(slow._sock,
                                  {"op": "execute", "source": src})
            # ...and never read a byte.
            healthy_ok = []
            stop = threading.Event()

            def healthy_loop():
                with connect(srv) as h:
                    while not stop.is_set():
                        h.ping()
                        healthy_ok.append(time.monotonic())
                        time.sleep(0.02)

            t = threading.Thread(target=healthy_loop)
            t.start()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                evicted = sum(
                    v for k, v in db.metrics.snapshot().items()
                    if "server.evictions" in k and "slow_client" in k)
                if evicted:
                    break
                time.sleep(0.05)
            stop.set()
            t.join()
            slow.close()
            assert evicted >= 1, "slow client was never evicted"
            assert len(healthy_ok) >= 5, (
                "healthy client starved while slow client was evicted")
        finally:
            srv.shutdown()


class TestDrain:
    def test_drain_waits_for_inflight_request(self, db):
        srv = make_server(db, allow_debug_delay=True, drain_timeout_s=5.0)
        c = connect(srv)
        result = {}

        def slow_request():
            try:
                c.ping(delay_ms=500)
                result["ok"] = True
            except OdeError as exc:
                result["err"] = exc

        t = threading.Thread(target=slow_request)
        t.start()
        time.sleep(0.15)
        srv.shutdown()  # must wait for the in-flight ping
        t.join()
        c.close()
        assert result.get("ok") is True

    def test_drain_closes_idle_connections(self, db):
        srv = make_server(db)
        c = connect(srv)
        c.ping()
        srv.shutdown()
        with pytest.raises((ConnectionClosedError, OSError,
                            protocol.ProtocolError)):
            c.ping()
            c.ping()
        c.close()

    def test_no_new_connections_while_draining(self, db):
        srv = make_server(db)
        host, port = srv.address
        srv.shutdown()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0).close()

    def test_shutdown_is_idempotent(self, db):
        srv = make_server(db)
        srv.shutdown()
        srv.shutdown()

    def test_db_reopens_cleanly_after_drain(self, tmp_path):
        path = str(tmp_path / "drain.odb")
        db = Database(path)
        srv = make_server(db)
        with connect(srv) as c:
            c.execute(SCHEMA)
            c.execute('pnew gadget("kept", 11);')
        srv.shutdown()
        db.close()
        db2 = Database(path)
        try:
            assert db2.verify() == []
            cluster = db2.cluster("gadget")
            assert sum(1 for _ in cluster) == 1
        finally:
            db2.close()


class TestObservability:
    def test_server_metrics_and_events(self, db, server):
        with connect(server) as c:
            c.execute(SCHEMA)
            c.ping()
        snap = db.metrics.snapshot()
        assert any("server.requests" in k for k in snap)
        assert any("server.connections.total" in k for k in snap)
        assert any("server.request_ns" in k for k in snap)
        kinds = [e["kind"] for e in db.events.snapshot()]
        assert "server_started" in kinds
        assert "server_conn_open" in kinds
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            kinds = [e["kind"] for e in db.events.snapshot()]
            if "server_conn_close" in kinds:
                break
            time.sleep(0.02)
        assert "server_conn_close" in kinds

    def test_stats_op(self, server):
        with connect(server) as c:
            stats = c.stats()
            assert "wal" in stats
            assert "buffer_pool" in stats

    def test_indexed_lookup_beside_a_pending_writer_probes(self, db, server):
        """Another connection's open write must not turn an indexed
        statement into an extent walk, and ``stats`` must say which it
        was: no keys peeked, one dirty row resolved per lookup."""
        with connect(server) as writer, connect(server) as reader:
            writer.execute(SCHEMA)
            writer.begin()
            for qty in range(200):
                writer.execute('pnew gadget("g%d", %d);' % (qty, qty))
            writer.commit()
            db.create_index("gadget", "qty", kind="hash")
            lookup = ("forall g in gadget suchthat (g->qty == 7) "
                      'printf("%s", g->name);')
            assert reader.execute(lookup) == ["g7"]
            writer.begin()
            writer.execute("forall g in gadget suchthat (g->qty == 7) "
                           "g->qty = 1007;")
            writer.execute(lookup)   # flushes the write: entry moved
            before = reader.stats()
            for _ in range(5):
                assert reader.execute(lookup) == ["g7"]
            after = reader.stats()
            writer.commit()
            assert reader.execute(lookup) == []
        assert (after["scan"]["records_peeked"]
                == before["scan"]["records_peeked"])
        assert (after["mvcc"]["index_overlay_rows"]
                - before["mvcc"]["index_overlay_rows"]) == 5

    def test_snapshot_token_op(self, server):
        with connect(server) as c:
            token = c.snapshot_token()
            assert isinstance(token, int)


class TestFaults:
    CLIENTS = 4
    INSERTS = 15

    def test_clients_reconnect_through_socket_read_faults(self, tmp_path,
                                                          monkeypatch):
        """``REPRO_FAULTS`` fails one request read in the server, which
        drops that connection: its client reconnects and redoes the
        insert, every client finishes, and the stored rows are exactly
        the inserts the server acknowledged. Each insert is one
        request, so a dropped connection has no open transaction."""
        def insert(c, name, j):
            c.execute('transaction { pnew gadget("%s", %d); }' % (name, j))

        self._stored_equals_acked(tmp_path, monkeypatch, insert)

    def test_dropped_transactions_abort_beside_commits(self, tmp_path,
                                                       monkeypatch):
        """The same with begin / execute / commit per insert: a dropped
        connection aborts its open transaction beside the other
        clients' commits on the same heap and index pages, and must take
        only its own insert with it."""
        def insert(c, name, j):
            c.begin()
            c.execute('pnew gadget("%s", %d);' % (name, j))
            c.commit()

        self._stored_equals_acked(tmp_path, monkeypatch, insert)

    def _stored_equals_acked(self, tmp_path, monkeypatch, insert):
        monkeypatch.setenv("REPRO_FAULTS", "server.recv.pre:error:25")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        database = Database(str(tmp_path / "faults.odb"))
        srv = make_server(database)
        acked, dropped, errors = [], [], []

        def client(idx):
            try:
                with connect(srv) as c:
                    for j in range(self.INSERTS):
                        name = "c%d-%d" % (idx, j)
                        while True:
                            try:
                                insert(c, name, j)
                                break
                            except (ConnectionClosedError, OSError):
                                dropped.append(idx)     # next op reconnects
                        acked.append(name)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        try:
            with connect(srv) as c:
                c.execute(SCHEMA)
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(self.CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads), "clients hung"
            assert not errors, errors[0]
            assert database.faults.injected > 0 and dropped
        finally:
            srv.shutdown()
        try:
            stored = sorted(g.name for g in database.cluster("gadget"))
            assert len(acked) == self.CLIENTS * self.INSERTS
            assert stored == sorted(acked)
        finally:
            database.close()


class TestStatementCache:
    LOOKUP = ('forall g in gadget suchthat (g->qty == %d) '
              'printf("%%s %%d\\n", g->name, g->qty);')

    @staticmethod
    def fill(client, n):
        client.execute(SCHEMA + 'int i = 0; while (i < %d) '
                       '{ pnew gadget("g", i); i++; }' % n)

    def test_session_keeps_no_output_between_requests(self, server):
        with connect(server) as c:
            self.fill(c, 50)
            for i in range(1000):
                assert c.execute(self.LOOKUP % (i % 50)) == [
                    "g %d\n" % (i % 50)]
            with pytest.raises(OdeError):
                c.execute('printf("lost\\n"); 1 / 0;')
            (entry,) = server._conns.values()
            assert len(entry.session.interp.output) == 0

    def test_stats_count_hits_and_misses(self, server):
        with connect(server) as c:
            self.fill(c, 10)
            before = c.stats()["opp"]
            for i in range(10):
                c.execute(self.LOOKUP % i)
            after = c.stats()["opp"]
        assert after["stmt_cache_misses"] - before["stmt_cache_misses"] == 1
        assert after["stmt_cache_hits"] - before["stmt_cache_hits"] == 9

    @pytest.mark.concurrency
    def test_two_connections_run_one_shape_with_their_own_literals(
            self, server):
        with connect(server) as c:
            self.fill(c, 40)
        errors = []

        def client(offset):
            try:
                with connect(server) as c:
                    c.execute("int mine = %d;" % offset)
                    for n in range(300):
                        i = (offset + 2 * n) % 40
                        assert c.execute(self.LOOKUP % i) == ["g %d\n" % i]
                        out = c.execute('printf("%%d %%s\\n", mine + %d, '
                                        '"c%d");' % (n, offset))
                        assert out == ["%d c%d\n" % (offset + n, offset)]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads), "clients hung"
        assert not errors, errors[0]

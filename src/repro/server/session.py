"""Per-connection transaction sessions.

Each accepted connection is served by one thread for its whole life, so
the Database's thread-local session machinery (PR 2/PR 7) maps onto
connections for free: the handler thread's ``db._txn`` *is* the remote
client's transaction, with its own MVCC snapshot, lock footprint and
scoped abort — no new concurrency machinery, just a 1:1 binding of
connection → thread → session.

A :class:`Session` owns the connection's O++ interpreter (state —
variables, classes — persists across requests, like the REPL) and
executes the request catalogue:

=================  =======================================================
``execute``        run O++ source (``source``); output streams back in
                   chunked frames (``done: false`` until the last)
``begin``          open an explicit transaction spanning requests
``commit``         commit it (constraints, triggers, fired actions)
``abort``          abort it
``ping``           liveness probe (``delay_ms`` honored only when the
                   server allows debug delays — admission-control drills)
``stats``          the server's ``db.stats()`` + server counters
``token``          a snapshot token for client-side time-travel reads
=================  =======================================================

Deadline discipline: every request runs under an *effective deadline* —
the sooner of the request's own ``deadline_ms`` budget and the open
transaction's deadline — checked between O++ statements (via the
interpreter's step hook) and before each streamed output chunk. Expiry
aborts the open transaction through the ordinary scoped-abort path and
answers :class:`~repro.errors.DeadlineExceededError`; the connection
itself survives (deadlines are per-request, not per-connection).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core.database import Transaction
from ..errors import (DeadlineExceededError, OdeError, TransactionError)
from ..opp.interp import Interpreter
from . import protocol

#: Output lines buffered before a chunk frame is flushed mid-execution.
CHUNK_LINES = 256


class Session:
    """One connection's interpreter + transaction state (single-threaded:
    only the connection's handler thread ever touches it)."""

    def __init__(self, db, conn, config, metrics):
        self.db = db
        self.conn = conn
        self.config = config
        self.metrics = metrics
        self.interp = Interpreter(db, echo=False)
        #: open explicit transaction (None = autocommit per statement)
        self.txn: Optional[Transaction] = None
        #: monotonic deadline of the open transaction
        self.txn_deadline: Optional[float] = None
        #: requests served / txns committed, for per-connection accounting
        self.requests = 0
        self.commits = 0
        #: True while a request is executing — the reaper must not evict
        #: an expired-deadline session mid-request (the step hook aborts
        #: it inline, with a typed answer instead of a dropped socket)
        self.busy = False

    # -- deadline helpers --------------------------------------------------

    def _effective_deadline(self, message: Dict) -> Optional[float]:
        """The sooner of the request budget and the txn deadline."""
        deadline = None
        budget_ms = message.get("deadline_ms")
        if budget_ms is not None:
            deadline = time.monotonic() + float(budget_ms) / 1000.0
        if self.txn_deadline is not None:
            deadline = (self.txn_deadline if deadline is None
                        else min(deadline, self.txn_deadline))
        return deadline

    def _check(self, deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            self.metrics.counter("server.deadline_aborts").inc()
            raise DeadlineExceededError("request deadline exceeded")

    # -- transaction plumbing ---------------------------------------------
    # The explicit remote transaction replicates Database.transaction()'s
    # body without the context manager, because it spans requests: begin
    # binds a handle to this thread's session slot, commit/abort finish
    # it through the same _commit/_abort the embedded path uses.

    def begin(self) -> None:
        if self.txn is not None:
            raise TransactionError("transactions do not nest")
        db = self.db
        txn_id = db.store.begin()
        self.txn = Transaction(txn_id, db)
        db._txn = self.txn
        if self.config.txn_timeout_s:
            self.txn_deadline = (time.monotonic()
                                 + self.config.txn_timeout_s)

    def commit(self) -> None:
        if self.txn is None:
            raise TransactionError("commit without begin")
        handle, self.txn, self.txn_deadline = self.txn, None, None
        db = self.db
        try:
            fired = db._commit(handle)
        finally:
            # _commit aborts internally on failure; either way the
            # handle is finished and the thread slot is clear.
            if db._txn is handle:
                db._txn = None
        db._run_fired_actions(fired)
        self.commits += 1

    def abort(self, reason: str = "client") -> None:
        if self.txn is None:
            raise TransactionError("abort without begin")
        self._abort_open(reason)

    def _abort_open(self, reason: str) -> None:
        """Abort the open transaction if any (idempotent; never raises
        past cleanup — used on deadline expiry and disconnect)."""
        handle, self.txn, self.txn_deadline = self.txn, None, None
        if handle is None or handle._done:
            return
        self.db._abort(handle, reason=reason)

    # -- request execution -------------------------------------------------

    def handle(self, message: Dict, send) -> None:
        """Serve one request; *send* ships a response message dict.

        Exactly one ``done: true`` frame terminates every request —
        either the final result or a typed error. Protocol-level
        failures (the client vanished mid-reply) propagate to the
        server loop, which evicts the connection.
        """
        self.requests += 1
        self.busy = True
        try:
            self._handle(message, send)
        finally:
            self.busy = False

    def _handle(self, message: Dict, send) -> None:
        op = message.get("op")
        deadline = self._effective_deadline(message)
        try:
            self._check(deadline)
            if op == "execute":
                self._execute(message, send, deadline)
                return
            if op == "begin":
                self.begin()
            elif op == "commit":
                self.commit()
            elif op == "abort":
                self.abort()
            elif op == "ping":
                delay_ms = float(message.get("delay_ms", 0) or 0)
                if delay_ms and self.config.allow_debug_delay:
                    time.sleep(delay_ms / 1000.0)
                self._check(deadline)
            elif op == "stats":
                send({"ok": True, "done": True,
                      "stats": self.db.stats()})
                return
            elif op == "token":
                send({"ok": True, "done": True,
                      "token": self.db.snapshot_token()})
                return
            else:
                raise protocol.ProtocolError("unknown op %r" % (op,))
            send({"ok": True, "done": True})
        except DeadlineExceededError as exc:
            # The deadline may have expired mid-transaction: the txn is
            # aborted (scoped abort) so no partial state survives it.
            self._abort_open("timeout")
            send(protocol.error_message(exc))
        except protocol.ProtocolError as exc:
            # A malformed *request* (unknown op, bad field) is the
            # client's bug, not the transaction's: answer the error and
            # leave any open transaction alone.
            send(protocol.error_message(exc))
        except TransactionError as exc:
            # Transaction state-machine errors from the non-execute ops:
            # a nested begin must NOT abort the live transaction (the
            # begin was a no-op), and a failed commit already rolled
            # itself back — nothing here holds half-done work.
            send(protocol.error_message(exc))
        except OdeError as exc:
            # A failed statement inside an *explicit* transaction leaves
            # the transaction aborted (same rule as the embedded context
            # manager: any exception aborts), and the client is told via
            # the typed error; autocommit statements aborted themselves.
            self._abort_open("error")
            send(protocol.error_message(exc))

    def _execute(self, message: Dict, send, deadline: Optional[float]):
        """Run O++ source, streaming output in chunked frames."""
        source = message.get("source")
        if not isinstance(source, str):
            raise protocol.ProtocolError("execute needs a string 'source'")
        interp = self.interp

        def flush(done: bool) -> None:
            # Output lines leave the session with the frame that carries
            # them: the connection keeps none past its request.
            chunk = interp.output[:]
            interp.output.clear()
            if chunk or done:
                send({"ok": True, "done": done, "output": chunk})

        def step() -> None:
            self._check(deadline)
            if len(interp.output) >= CHUNK_LINES:
                # Mid-execution flush: bounded server-side buffering,
                # and a slow client backpressures only itself (sendall
                # blocks on this connection's socket alone).
                flush(False)

        try:
            interp.run(source, step_hook=step)
            self._check(deadline)
        except OdeError as exc:
            interp.output.clear()     # unsent lines go with the error
            self._abort_open("timeout" if isinstance(
                exc, DeadlineExceededError) else "error")
            send(protocol.error_message(exc))
            return
        flush(True)

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Disconnect cleanup: abort any open transaction (on this, the
        owning thread — the only thread allowed to)."""
        try:
            self._abort_open("disconnect")
        except OdeError:
            pass  # a poisoned abort must not block connection teardown

"""Model test: indexed queries are snapshot-correct under churn.

A hypothesis state machine drives two or three sessions — each a worker
thread, because a transaction belongs to its thread — one step at a
time through the public ``Database`` API: explicit transactions that
stay open across steps, ``pnew``, updates of the indexed and of an
unindexed field, ``pdelete`` and index DDL. After any step any session
may run an indexed query (hash equality, btree range, range + ``by``
with the sort elided, ``count()``, a fused two-source join), and every
evaluator (generated code, ``.codegen(False)``, the traced pipeline
behind ``explain(analyze=True)``) must return exactly what a dict model
of that session's view holds: the committed state as of its ``begin``
plus its own writes, or the latest committed state outside a
transaction.

The rules never write an object another open transaction wrote, nor —
inside a transaction — one committed since its snapshot, so no step
blocks on a lock or loses a first-updater-wins race: every failure is a
wrong answer. Any open transaction may commit or abort, whoever wrote
beside it on the same heap or index page: undo is logical, so an abort
removes exactly its own records and entries (EXP-28). EXPERIMENTS.md
(EXP-23) records that the machine fails
within a few examples when ``IndexPlan._overlay`` is stubbed to return
the bare index candidates.
"""

import queue
import shutil
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 precondition, rule)

from repro.core import Database, IntField, OdeObject
from repro.core.oid import Oid
from repro.query import A, V, forall

N_KEYS = 5
R_MAX = 40
STEP_TIMEOUT = 30


class ModelRow(OdeObject):
    k = IntField(default=0)      # hash-indexed
    r = IntField(default=0)      # btree-indexed
    note = IntField(default=0)   # never indexed


class ModelTag(OdeObject):
    k = IntField(default=0)


class _Rollback(Exception):
    pass


class _Session(threading.Thread):
    """One database session: runs what it is handed, in order, on its
    own thread. ``"begin"`` opens ``db.transaction()`` and keeps it open
    until ``"commit"`` or ``"abort"``."""

    def __init__(self, db):
        super().__init__(daemon=True)
        self.db = db
        self.inbox = queue.Queue()
        self.outbox = queue.Queue()
        self.start()

    def call(self, cmd):
        self.inbox.put(cmd)
        try:
            value, exc = self.outbox.get(timeout=STEP_TIMEOUT)
        except queue.Empty:
            raise AssertionError("step blocked: %r" % (cmd,))
        if exc is not None:
            raise exc
        return value

    def run(self):
        while True:
            cmd = self.inbox.get()
            if cmd is None:
                return
            if cmd != "begin":
                self._do(cmd)
                continue
            try:
                with self.db.transaction():
                    self.outbox.put((None, None))
                    while True:
                        cmd = self.inbox.get()
                        if cmd == "commit":
                            break
                        if cmd == "abort":
                            raise _Rollback
                        self._do(cmd)
            except _Rollback:
                self.outbox.put((None, None))
            except BaseException as exc:  # noqa: BLE001 - handed to the test
                self.outbox.put((None, exc))
            else:
                self.outbox.put((None, None))

    def _do(self, fn):
        try:
            self.outbox.put((fn(), None))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            self.outbox.put((None, exc))


def _evaluators(make):
    """The same query through generated code, the interpreted pipeline
    and the traced pipeline."""
    return (("compiled", make()), ("interpreted", make().codegen(False)),
            ("traced", make().trace()))


def _image(obj):
    return (obj.oid.serial, obj.k, obj.r, obj.note)


class IndexedQueriesUnderChurn(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="overlay-model-")
        self.db = Database(self.dir + "/m.odb", durability="none")
        self.db.create(ModelRow)
        self.db.create(ModelTag)
        self.committed = {}      # serial -> (k, r, note)
        self.stamp = {}          # serial -> seq of its last commit
        self.seq = 0
        self.owner = {}          # serial -> session with a pending write
        self.indexed = set()
        self.tags = []           # (serial, k), never written after set-up
        self.sessions = []

    def teardown(self):
        for s in self.sessions:
            if s["open"]:
                s["thread"].call("abort")
            s["thread"].inbox.put(None)
            s["thread"].join(timeout=STEP_TIMEOUT)
        self.db.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- set-up ----------------------------------------------------------

    @initialize(n_sessions=st.integers(2, 3), n_rows=st.integers(6, 18),
                hash_first=st.booleans(), btree_first=st.booleans())
    def populate(self, n_sessions, n_rows, hash_first, btree_first):
        db = self.db
        self.sessions = [
            {"thread": _Session(db), "open": False, "base": None,
             "begin_seq": 0, "writes": {}}
            for _ in range(n_sessions)]

        def load():
            with db.transaction():
                rows = [db.pnew(ModelRow, k=i % N_KEYS, r=(i * 7) % R_MAX,
                                note=i) for i in range(n_rows)]
                tags = [db.pnew(ModelTag, k=i % N_KEYS) for i in range(7)]
            return ([_image(o) for o in rows],
                    [(o.oid.serial, o.k) for o in tags])

        rows, self.tags = self.sessions[0]["thread"].call(load)
        for serial, k, r, note in rows:
            self.committed[serial] = (k, r, note)
        if hash_first:
            self.create_hash_index()
        if btree_first:
            self.create_btree_index()

    def _create_index(self, field, kind):
        self.sessions[0]["thread"].call(
            lambda: self.db.create_index(ModelRow, field, kind=kind))
        self.indexed.add(field)

    def _quiet(self):
        return not any(s["open"] for s in self.sessions)

    @precondition(lambda self: self._quiet() and "k" not in self.indexed)
    @rule()
    def create_hash_index(self):
        self._create_index("k", "hash")

    @precondition(lambda self: self._quiet() and "r" not in self.indexed)
    @rule()
    def create_btree_index(self):
        self._create_index("r", "btree")

    # -- the model -------------------------------------------------------

    def _session(self, pick):
        i = pick % len(self.sessions)
        return i, self.sessions[i]

    def _view(self, s):
        if not s["open"]:
            return self.committed
        view = dict(s["base"])
        for serial, image in s["writes"].items():
            if image is None:
                view.pop(serial, None)
            else:
                view[serial] = image
        return view

    def _writable(self, i, s):
        """Serials session *i* can write without blocking or conflicting."""
        return sorted(
            serial for serial in self._view(s)
            if self.owner.get(serial, i) == i
            and (not s["open"] or self.stamp.get(serial, 0) <= s["begin_seq"]))

    def _write(self, i, s, serial, image, action):
        """Run *action* on session *i* — inside its open transaction, or
        as a transaction of its own — and record the new *image* (None:
        deleted; for a ``pnew`` the serial comes back from *action*)."""
        if s["open"]:
            made = s["thread"].call(action)
        else:
            def autocommit():
                with self.db.transaction():
                    return action()
            made = s["thread"].call(autocommit)
        serial = made if serial is None else serial
        if s["open"]:
            s["writes"][serial] = image
            self.owner[serial] = i
        else:
            self._apply({serial: image})

    def _apply(self, writes):
        self.seq += 1
        for serial, image in writes.items():
            if image is None:
                self.committed.pop(serial, None)
            else:
                self.committed[serial] = image
            self.stamp[serial] = self.seq

    # -- transactions ----------------------------------------------------

    @rule(pick=st.integers(0, 5))
    def begin(self, pick):
        i, s = self._session(pick)
        if s["open"]:
            return
        s["thread"].call("begin")
        s.update(open=True, base=dict(self.committed), begin_seq=self.seq,
                 writes={})

    @rule(pick=st.integers(0, 5), commit=st.booleans())
    def finish(self, pick, commit):
        i, s = self._session(pick)
        if not s["open"]:
            return
        s["thread"].call("commit" if commit else "abort")
        if commit and s["writes"]:
            self._apply(s["writes"])
        for serial in s["writes"]:
            self.owner.pop(serial, None)
        s.update(open=False, base=None, writes={})

    # -- writes ----------------------------------------------------------

    @rule(pick=st.integers(0, 5), k=st.integers(0, N_KEYS - 1),
          r=st.integers(0, R_MAX - 1))
    def pnew(self, pick, k, r):
        i, s = self._session(pick)
        self._write(i, s, None, (k, r, -1), lambda: self.db.pnew(
            ModelRow, k=k, r=r, note=-1).oid.serial)

    @rule(pick=st.integers(0, 5), nth=st.integers(0, 999),
          field=st.sampled_from(["k", "r", "note"]),
          value=st.integers(0, R_MAX - 1))
    def update(self, pick, nth, field, value):
        i, s = self._session(pick)
        serials = self._writable(i, s)
        if not serials:
            return
        serial = serials[nth % len(serials)]
        if field == "k":
            value %= N_KEYS
        k, r, note = self._view(s)[serial]
        image = {"k": (value, r, note), "r": (k, value, note),
                 "note": (k, r, value)}[field]
        self._write(i, s, serial, image, lambda: setattr(
            self.db.deref(Oid("ModelRow", serial)), field, value))

    @rule(pick=st.integers(0, 5), nth=st.integers(0, 999))
    def pdelete(self, pick, nth):
        i, s = self._session(pick)
        serials = self._writable(i, s)
        if not serials:
            return
        serial = serials[nth % len(serials)]
        self._write(i, s, serial, None, lambda: self.db.pdelete(
            Oid("ModelRow", serial)))

    # -- queries ---------------------------------------------------------

    def _rows(self):
        return self.db.cluster(ModelRow)

    @rule(pick=st.integers(0, 5), k=st.integers(0, N_KEYS - 1))
    def query_hash_eq(self, pick, k):
        i, s = self._session(pick)
        want = sorted((serial,) + image
                      for serial, image in self._view(s).items()
                      if image[0] == k)

        def run():
            make = lambda: forall(self._rows()).suchthat(A.k == k)  # noqa: E731
            out = {name: sorted(_image(o) for o in q)
                   for name, q in _evaluators(make)}
            out["count"] = [make().count(), make().codegen(False).count()]
            return out

        got = s["thread"].call(run)
        assert got.pop("count") == [len(want)] * 2
        for name, rows in got.items():
            assert rows == want, name

    @rule(pick=st.integers(0, 5), lo=st.integers(0, R_MAX - 1),
          width=st.integers(1, R_MAX), limit=st.integers(0, 6))
    def query_btree_range(self, pick, lo, width, limit):
        i, s = self._session(pick)
        hi = lo + width
        want = sorted(((serial,) + image
                       for serial, image in self._view(s).items()
                       if lo <= image[1] < hi), key=lambda row: row[2])
        want_keys = [row[2] for row in want]

        def run():
            make = lambda: forall(self._rows()).suchthat(  # noqa: E731
                (A.r >= lo) & (A.r < hi))
            out = {}
            for name, q in _evaluators(make):
                out[name] = sorted(_image(o) for o in q)
            for name, q in _evaluators(lambda: make().by(A.r)):
                out["by " + name] = [_image(o) for o in q]
            for name, q in _evaluators(lambda: make().by(A.r).limit(limit)):
                out["limit " + name] = [o.r for o in q]
            out["count"] = [make().count(), make().codegen(False).count()]
            return out

        got = s["thread"].call(run)
        assert got.pop("count") == [len(want)] * 2
        for name, rows in got.items():
            if name.startswith("limit "):
                assert rows == want_keys[:limit], name
            elif name.startswith("by "):
                # by() leaves the order inside a run of equal keys open.
                assert [row[2] for row in rows] == want_keys, name
                assert sorted(rows) == sorted(want), name
            else:
                assert rows == sorted(want), name

    @rule(pick=st.integers(0, 5), hi=st.integers(1, R_MAX))
    def query_fused_join(self, pick, hi):
        i, s = self._session(pick)
        want = sorted((serial, tag) for serial, image
                      in self._view(s).items() if image[1] < hi
                      for tag, tag_k in self.tags if tag_k == image[0])

        def run():
            make = lambda: forall(  # noqa: E731
                self._rows(), self.db.cluster(ModelTag)).suchthat(
                    (V[0].k == V[1].k) & (V[0].r < hi))
            out = {name: sorted((row.oid.serial, tag.oid.serial)
                                for row, tag in q)
                   for name, q in _evaluators(make)}
            out["count"] = [make().count(), make().codegen(False).count()]
            return out

        got = s["thread"].call(run)
        assert got.pop("count") == [len(want)] * 2
        for name, pairs in got.items():
            assert pairs == want, name


TestIndexedQueriesUnderChurn = IndexedQueriesUnderChurn.TestCase
TestIndexedQueriesUnderChurn.settings = settings(
    max_examples=200, stateful_step_count=18, deadline=None,
    suppress_health_check=list(HealthCheck))

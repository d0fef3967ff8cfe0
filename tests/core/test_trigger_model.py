"""Watch-set trigger evaluation against the evaluate-everything oracle.

The manager re-evaluates a condition only when the committing
transaction wrote something its last evaluation read (its watch set),
when the activation is new or unevaluated, when it fired last time and
is perpetual, or when the clock moved. The property runs random
operation sequences on two databases — one with the real manager, one
with :class:`tests.core.trigger_oracle.OracleTriggerManager` — and
requires the same firing log and the same ``is_active`` answers after
every step. The scenario tests pin each rule with a sequence that
breaks when the rule is left out.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (Database, IntField, OdeObject, RefField,
                        StringField, Trigger)
from repro.core.triggers import TriggerId
from repro.query import forall

from .trigger_oracle import install

#: database path -> firing log (actions run with the database they fired in)
LOGS = {}


def note(obj, *what):
    LOGS.setdefault(obj.database.store.path, []).append(what)


def _peer_level(self):
    peer = self.peer
    return -1 if peer is None else self.database.deref(peer).level


def _explode(self):
    raise RuntimeError("doomed commit")


class MDrop(OdeObject):
    n = IntField(default=0)


class MOther(OdeObject):
    n = IntField(default=0)


class MTank(OdeObject):
    name = StringField(default="")
    level = IntField(default=50)
    peer = RefField("MTank")

    low = Trigger(
        condition=lambda self, limit: self.level <= limit,
        action=lambda self, limit: note(self, "low", self.name, limit))
    empty = Trigger(
        condition=lambda self: self.level <= 0,
        action=lambda self: note(self, "empty", self.name),
        perpetual=True)
    pair = Trigger(
        condition=lambda self, other, limit:
            self.level + other.level >= limit,
        action=lambda self, other, limit:
            note(self, "pair", self.name, other.name, limit))
    via_peer = Trigger(
        condition=lambda self: _peer_level(self) >= 90,
        action=lambda self: note(self, "via_peer", self.name),
        perpetual=True)
    crowd = Trigger(
        condition=lambda self, n:
            forall(self.database.cluster(MDrop)).count() >= n,
        action=lambda self, n: note(self, "crowd", self.name, n),
        perpetual=True)
    tally = Trigger(
        condition=lambda self, n: self.database.cluster(MDrop).count() <= n,
        action=lambda self, n: note(self, "tally", self.name, n))
    full = Trigger(
        condition=lambda self, t: self.level >= 100,
        action=lambda self, t: note(self, "full", self.name),
        within=lambda self, t: t,
        timeout_action=lambda self, t: note(self, "timeout", self.name))
    history = Trigger(
        condition=lambda self: len(self.database.versions(self)) >= 3,
        action=lambda self: note(self, "history", self.name))
    bomb = Trigger(condition=_explode, action=lambda self: None)


TANKS = 3
KINDS = ("low", "empty", "pair", "via_peer", "crowd", "tally", "full",
         "history")


class Side:
    """One database of the pair, reopened in place."""

    def __init__(self, path, oracle):
        self.path = path
        self.oracle = oracle
        self.db = None
        self.open()
        db = self.db
        db.create(MTank)
        db.create(MDrop)
        db.create(MOther)
        with db.transaction():
            self.tanks = [db.pnew(MTank, name="t%d" % i).oid
                          for i in range(TANKS)]
            self.drops = [db.pnew(MDrop).oid for _ in range(2)]
            self.other = db.pnew(MOther).oid
        LOGS[db.store.path] = []

    def open(self):
        self.db = Database(self.path)
        if self.oracle:
            install(self.db)

    def tank(self, i):
        return self.db.deref(self.tanks[i])

    def run(self, op):
        """Apply *op*; the name of the exception it raised, or None."""
        try:
            self._run(op)
        except Exception as exc:  # noqa: BLE001 - compared across sides
            return type(exc).__name__
        return None

    def _run(self, op):
        db = self.db
        kind = op[0]
        if kind == "activate":
            _, i, trig, a, b = op
            tank = self.tank(i)
            if trig == "low":
                tank.low(a)
            elif trig == "empty":
                tank.empty()
            elif trig == "pair":
                tank.pair(self.tank(b % TANKS), a + 50)
            elif trig == "via_peer":
                tank.via_peer()
            elif trig == "crowd":
                tank.crowd(b)
            elif trig == "tally":
                tank.tally(b)
            elif trig == "full":
                tank.full(float(b))
            else:
                tank.history()
        elif kind == "deactivate":
            TriggerId(op[1], db.triggers).deactivate()
        elif kind == "write":
            with db.transaction():
                self.tank(op[1]).level = op[2]
        elif kind == "link":
            with db.transaction():
                self.tank(op[1]).peer = self.tanks[op[2]]
        elif kind == "pnew_drop":
            self.drops.append(db.pnew(MDrop).oid)
        elif kind == "pdelete_drop":
            if self.drops:
                db.pdelete(self.drops.pop(op[1] % len(self.drops)))
        elif kind == "write_other":
            with db.transaction():
                db.deref(self.other).n += 1
        elif kind == "newversion":
            db.newversion(self.tanks[op[1]])
        elif kind == "abort":
            with pytest.raises(KeyError):
                with db.transaction():
                    self.tank(op[1]).level = op[2]
                    raise KeyError("abort")
        elif kind == "doomed":
            with db.transaction():
                self.tank(op[1]).level = op[2]
                self.tank(op[1]).bomb()
        elif kind == "advance":
            db.advance_time(float(op[1]))
        elif kind == "reopen":
            db.close()
            self.open()
        else:  # pragma: no cover
            raise AssertionError(op)

    def observed(self):
        db = self.db
        serials = []
        if db.store.has_cluster("__activations__"):
            serials = sorted(state["serial"] for _rid, state in
                             db.store.scan("__activations__"))
        active = [TriggerId(s, db.triggers).is_active for s in serials]
        return list(LOGS[db.store.path]), serials, active


def run_pair(tmp_path, ops):
    """Run *ops* on a real and an oracle database, comparing the firing
    log and every activation's ``is_active`` after each step. Returns
    the real side (closed) and its firing log."""
    real = Side(str(tmp_path / "real.odb"), oracle=False)
    ref = Side(str(tmp_path / "oracle.odb"), oracle=True)
    try:
        for step, op in enumerate(ops):
            outcome = (real.run(op), ref.run(op))
            assert outcome[0] == outcome[1], (step, op, outcome)
            observed = real.observed()
            assert observed == ref.observed(), (step, op)
        return real, observed[0]
    finally:
        for side in (real, ref):
            if not side.db._closed:
                side.db.close()


tank_i = st.integers(0, TANKS - 1)
level = st.integers(-5, 110)
activation = st.tuples(st.just("activate"), tank_i, st.sampled_from(KINDS),
                       st.integers(0, 60), st.integers(0, 6))
write = st.tuples(st.just("write"), tank_i, level)
operation = st.one_of(
    activation, write, write, write,
    st.tuples(st.just("deactivate"), st.integers(1, 12)),
    st.tuples(st.just("link"), tank_i, tank_i),
    st.tuples(st.just("pnew_drop")),
    st.tuples(st.just("pdelete_drop"), st.integers(0, 5)),
    st.tuples(st.just("write_other")),
    st.tuples(st.just("newversion"), tank_i),
    st.tuples(st.just("abort"), tank_i, level),
    st.tuples(st.just("doomed"), tank_i, level),
    st.tuples(st.just("advance"), st.integers(1, 4)),
    st.tuples(st.just("reopen")),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prelude=st.lists(activation, min_size=2, max_size=6),
       ops=st.lists(operation, min_size=5, max_size=30))
def test_watch_sets_fire_as_the_oracle(tmp_path_factory, prelude, ops):
    run_pair(tmp_path_factory.mktemp("model"), prelude + ops)


class TestRules:
    """One sequence per rule; each fails when its rule is left out."""

    def test_a_write_to_the_watched_object_re_evaluates(self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "low", 20, 0),
            ("write_other",),
            ("write", 0, 10),
        ])
        assert log == [("low", "t0", 20)]

    def test_a_write_to_an_argument_or_through_a_ref_re_evaluates(
            self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "pair", 100, 1),   # t0 + t1 >= 150
            ("link", 2, 1),
            ("activate", 2, "via_peer", 0, 0),
            ("write", 1, 100),
        ])
        assert log == [("pair", "t0", "t1", 150),
                                      ("via_peer", "t2")]

    def test_pnew_and_pdelete_in_a_counted_cluster_re_evaluate(
            self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "crowd", 0, 3),
            ("activate", 1, "tally", 0, 1),
            ("pnew_drop",),
            ("pdelete_drop", 0),
            ("pdelete_drop", 0),
        ])
        assert log == [("crowd", "t0", 3), ("tally", "t1", 1)]

    def test_a_newversion_re_evaluates(self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "history", 0, 0),
            ("newversion", 0),
            ("write_other",),
            ("newversion", 0),
        ])
        assert log == [("history", "t0")]

    def test_a_perpetual_trigger_that_fired_fires_at_every_write(
            self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("write", 0, 0),
            ("activate", 0, "empty", 0, 0),
            ("write_other",),
            ("write_other",),
        ])
        assert log == [("empty", "t0")] * 3

    def test_moving_the_clock_times_out_unwatched_deadlines(self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "full", 0, 2),
            ("advance", 1),
            ("advance", 1),
        ])
        assert log == [("timeout", "t0")]

    def test_an_aborted_evaluation_publishes_nothing(self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("write", 0, 0),
            ("activate", 0, "empty", 0, 0),     # fires: hot
            ("doomed", 0, 50),                  # evaluates it false, aborts
            ("write_other",),                   # still hot: fires
        ])
        assert log == [("empty", "t0")] * 2

    def test_an_abort_reloads_only_the_activations_it_wrote(self, tmp_path):
        run_pair(tmp_path, [
            ("activate", 0, "low", 20, 0),
            ("activate", 1, "low", 20, 0),
            ("abort", 0, 10),
            ("doomed", 0, 10),
            ("write", 1, 10),
        ])
        side = Side(str(tmp_path / "counted.odb"), oracle=False)
        db = side.db
        try:
            side.tank(0).low(20)
            side.tank(1).low(20)
            with pytest.raises(KeyError):
                with db.transaction():
                    side.tank(0).level = 10
                    raise KeyError("abort")
            assert db.triggers._pending == set()
            before = db.metrics.get("trigger.evaluations")
            with db.transaction():
                side.tank(1).level = 10
            assert db.metrics.get("trigger.evaluations") - before == 1
        finally:
            db.close()

    def test_after_reopen_every_activation_is_evaluated_once(self, tmp_path):
        real, log = run_pair(tmp_path, [
            ("activate", 0, "low", 20, 0),
            ("reopen",),
            ("write_other",),
        ])
        assert real.db.triggers._pending == set()
        assert log == []


class TestCounters:
    def test_an_unrelated_write_skips_every_activation(self, tmp_path):
        db = Database(str(tmp_path / "c.odb"))
        try:
            db.create(MTank)
            db.create(MOther)
            with db.transaction():
                tanks = [db.pnew(MTank, name="t%d" % i) for i in range(100)]
                other = db.pnew(MOther)
            with db.transaction():
                for tank in tanks:
                    tank.empty()
            before = db.stats()["triggers"]
            assert before["active"] == 100
            with db.transaction():
                other.n += 1
            after = db.stats()["triggers"]
            assert after["evaluations"] - before["evaluations"] == 0
            assert after["skipped"] - before["skipped"] == 100
            assert db.metrics.get("trigger.skipped") == after["skipped"]
            with db.transaction():
                tanks[7].level = -1
            final = db.stats()["triggers"]
            assert final["evaluations"] - after["evaluations"] == 1
            assert final["firings"] - after["firings"] == 1
        finally:
            db.close()


@pytest.mark.concurrency
def test_2pl_commit_beside_a_locked_activated_object_does_not_wait(
        tmp_path):
    """Under strict 2PL a condition's reads take S locks. A commit that
    wrote nothing a condition watches evaluates none, so it does not
    queue behind another session's X lock on an activated object."""
    db = Database(str(tmp_path / "2pl.odb"))
    db._mvcc_on = False
    try:
        db.create(MTank)
        db.create(MOther)
        with db.transaction():
            tank = db.pnew(MTank, name="locked")
            other = db.pnew(MOther)
        tank.low(-100)                  # evaluated (false) at activation
        holding = threading.Event()
        release = threading.Event()

        def writer():
            with db.transaction():
                db.deref(tank.oid).level = 40   # X lock on the tank
                holding.set()
                release.wait(10)

        holder = threading.Thread(target=writer)
        holder.start()
        try:
            assert holding.wait(10)
            start = time.perf_counter()
            with db.transaction():
                db.deref(other.oid).n += 1
            waited = time.perf_counter() - start
            assert not release.is_set()
        finally:
            release.set()
            holder.join(10)
        assert waited < 2.0   # the lock wait times out after 5 s
    finally:
        db.close()


@pytest.mark.concurrency
def test_concurrent_commits_leave_no_true_condition_unchecked(tmp_path):
    """Sessions write the two tanks a ``pair`` condition adds up while
    other sessions evaluate it against older snapshots. A publish that
    raced another marks what it evaluated pending, so once the writers
    stop, one unrelated commit fires every activation whose condition
    is true in the committed state. (Two sessions can still both fire
    one once-only activation: its retirement takes no write lock.)"""
    db = Database(str(tmp_path / "mvcc.odb"))
    old_interval = sys.getswitchinterval()
    try:
        db.create(MTank)
        db.create(MOther)
        with db.transaction():
            tanks = [db.pnew(MTank, name="t%d" % i, level=0)
                     for i in range(4)]
            other = db.pnew(MOther)
        for i, tank in enumerate(tanks):
            for j, peer in enumerate(tanks):
                if i != j:
                    tank.pair(peer, 120 + 10 * i + j)
        sys.setswitchinterval(1e-5)
        errors = []

        def writer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(25):
                    tank, level = rng.choice(tanks), rng.randrange(0, 101)

                    def write():
                        db.deref(tank.oid).level = level
                    db.run_transaction(write, retries=50, backoff=0.0005)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
    finally:
        sys.setswitchinterval(old_interval)
    try:
        with db.transaction():
            db.deref(other.oid).n += 1
        levels = {tank.name: db.deref(tank.oid).level for tank in tanks}
        for act in db.triggers._activations().values():
            if act.active:
                mine = db.deref(act.oid).level
                theirs = db.deref(act.args[0]).level
                assert mine + theirs < act.args[1], (act.serial, levels)
    finally:
        db.close()


def _in_thread(fn):
    errors = []

    def run():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)
    thread = threading.Thread(target=run)
    thread.start()
    return thread, errors


@pytest.mark.concurrency
class TestRacingPublishes:
    """Two sessions whose commits overlap, ordered step by step."""

    def test_an_evaluation_overtaken_by_a_publish_stays_pending(
            self, tmp_path):
        """T and U each write one side of ``pair``; each evaluates it on
        a snapshot without the other's write and finds it false. U's
        publish comes after T's, which it began before: its result is
        stale, so the next writing commit checks the pair again."""
        db = Database(str(tmp_path / "race.odb"))
        try:
            db.create(MTank)
            db.create(MOther)
            with db.transaction():
                t0, t1 = (db.pnew(MTank, name="t%d" % i) for i in range(2))
                other = db.pnew(MOther)
            t0.pair(t1, 180)                        # 50 + 50 < 180
            u_wrote, t_committed = threading.Event(), threading.Event()

            def session_u():
                with db.transaction():
                    db.deref(t1.oid).level = 100
                    u_wrote.set()
                    assert t_committed.wait(10)

            with db.transaction():
                db.deref(t0.oid).level = 100
                u, errors = _in_thread(session_u)
                assert u_wrote.wait(10)
            t_committed.set()
            u.join(10)
            assert not u.is_alive() and errors == []
            assert LOGS.get(db.store.path, []) == []   # neither saw 200
            with db.transaction():
                db.deref(other.oid).n += 1
            assert LOGS[db.store.path] == [("pair", "t0", "t1", 180)]
        finally:
            db.close()

    def test_a_write_published_after_a_new_watch_set_re_checks_it(
            self, tmp_path):
        """U writes t1 while no condition watches it, and its publish is
        held back; T relinks t2's peer to t1 and evaluates on a snapshot
        without U's write, then publishes first. U's publish finds the
        activation now watching t1 and marks it pending."""
        db = Database(str(tmp_path / "relink.odb"))
        try:
            db.create(MTank)
            db.create(MOther)
            with db.transaction():
                t0, t1, t2 = (db.pnew(MTank, name="t%d" % i)
                              for i in range(3))
                other = db.pnew(MOther)
                t2.peer = t0
            t2.via_peer()                           # watches t2 and t0
            real_publish = db.triggers.publish
            held, release = threading.Event(), threading.Event()

            def publish(handle):
                if threading.current_thread() is not main:
                    held.set()
                    assert release.wait(10)
                real_publish(handle)
            main = threading.current_thread()
            db.triggers.publish = publish

            def session_u():
                with db.transaction():
                    db.deref(t1.oid).level = 100

            with db.transaction():
                db.deref(t2.oid).peer = t1.oid
                u, errors = _in_thread(session_u)
                assert held.wait(10)    # U committed, its publish waits
            release.set()
            u.join(10)
            assert not u.is_alive() and errors == []
            assert LOGS.get(db.store.path, []) == []
            with db.transaction():
                db.deref(other.oid).n += 1
            assert LOGS[db.store.path] == [("via_peer", "t2")]
        finally:
            db.close()

"""Triggers — the paper's active-database facility (section 6).

A trigger is declared in a class and *activated* per object, with
arguments; activation returns a trigger id::

    class StockItem(OdeObject):
        qty = IntField(default=0)
        reorder_level = IntField(default=0)

        reorder = Trigger(
            condition=lambda self, n: self.qty <= self.reorder_level,
            action=lambda self, n: place_order(self, n))

    tid = item.reorder(100)      # activate, as in the paper: sip->reorder(100)
    tid.deactivate()             # explicit deactivation

Semantics implemented exactly as the paper specifies:

* **Once-only vs perpetual** (``perpetual=True``): a once-only trigger is
  deactivated when it fires and must be reactivated explicitly; a
  perpetual trigger is reactivated automatically after firing.
* **Evaluation at end of transaction**: trigger conditions are conceptually
  evaluated at the end of each transaction, seeing its final state. A
  writing commit re-checks only the activations it may have changed:
  new or unchecked ones, those whose *watch set* (the object keys and
  clusters their last check read) it wrote, perpetual ones that fired
  last time, and all of them when it moved the clock. A condition is
  thus a function of database state and the clock; one that reads
  volatile program state sees a change to it only at the next check a
  database write or a clock move causes.
* **Weak coupling**: each firing creates an *independent* transaction
  whose body is the trigger action, executed after (but not necessarily
  immediately after) the triggering transaction commits. If the
  triggering transaction aborts, the trigger actions it generated are
  aborted with it.
* **Timed triggers** (``within=...``): if the condition does not become
  true within the duration (measured on the database's clock, which is
  virtual and advanced with ``db.advance_time``), the timeout action runs
  instead and the activation ends.
* Multiple activations of the same trigger on the same object may be in
  effect simultaneously, each with its own arguments and id.

Activations are persistent: they live in a hidden cluster and survive
database reopens, as an active database requires.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import StorageError, TriggerError
from .objects import class_registry, registry_generation
from .oid import Oid, Vref

#: Hidden cluster holding trigger activations.
ACTIVATION_CLUSTER = "__activations__"


def _compile_condition(condition):
    """Allow introspectable query predicates as trigger conditions.

    ``Trigger(condition=A.qty <= 100, ...)`` compiles the predicate's
    row check once at declaration time (``Predicate.compiled()``), so
    end-of-transaction evaluation runs a closure instead of walking the
    predicate tree per activation; activation arguments are ignored by
    the check, like the paper's clause form.
    """
    try:
        from ..query.predicates import Predicate
    except ImportError:  # pragma: no cover — partial installs
        return condition
    if not isinstance(condition, Predicate):
        return condition
    check = condition.compiled()

    def run(obj, *args):
        return bool(check(obj))
    run._ode_predicate = condition
    return run


class Trigger:
    """Class-level trigger declaration (a descriptor).

    *condition* and *action* are callables of ``(self, *args)`` where
    ``self`` is the object the activation is attached to and ``args`` are
    the activation arguments. *within*, for timed triggers, is either a
    number (duration) or a callable ``(self, *args) -> duration``;
    *timeout_action* then runs if the condition never became true in time.
    """

    def __init__(self, condition: Callable, action: Callable,
                 perpetual: bool = False,
                 within: Optional[Any] = None,
                 timeout_action: Optional[Callable] = None):
        if timeout_action is not None and within is None:
            raise TriggerError("timeout_action requires within=")
        condition = _compile_condition(condition)
        self.condition = condition
        self.action = action
        self.perpetual = perpetual
        self.within = within
        self.timeout_action = timeout_action
        self.name = "<unbound>"
        self.owner_name = "<unbound>"

    def __set_name__(self, owner, name: str) -> None:
        self.name = name
        self.owner_name = owner.__name__

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return _BoundTrigger(obj, self)

    def __repr__(self) -> str:
        kind = "perpetual " if self.perpetual else ""
        timed = " within" if self.within is not None else ""
        return "<%strigger %s.%s%s>" % (kind, self.owner_name,
                                        self.name, timed)


class _BoundTrigger:
    """``obj.trigger_name`` — calling it activates the trigger."""

    __slots__ = ("_obj", "_decl")

    def __init__(self, obj, decl: Trigger):
        self._obj = obj
        self._decl = decl

    def __call__(self, *args) -> "TriggerId":
        db = self._obj.database
        if db is None or not self._obj.is_persistent:
            raise TriggerError(
                "triggers can only be activated on persistent objects "
                "(%s.%s on a volatile instance)"
                % (self._decl.owner_name, self._decl.name))
        return db.triggers.activate(self._obj, self._decl, args)

    @property
    def declaration(self) -> Trigger:
        return self._decl


class TriggerId:
    """Handle for one activation; supports explicit deactivation."""

    __slots__ = ("serial", "_manager")

    def __init__(self, serial: int, manager: "TriggerManager"):
        self.serial = serial
        self._manager = manager

    def deactivate(self) -> bool:
        """Deactivate this activation (before it has fired).

        Returns False if it was already inactive. This is the paper's
        ``trigger-id`` deactivation form.
        """
        return self._manager.deactivate(self)

    @property
    def is_active(self) -> bool:
        return self._manager.is_active(self)

    def __eq__(self, other):
        return isinstance(other, TriggerId) and other.serial == self.serial

    def __hash__(self):
        return hash(("TriggerId", self.serial))

    def __repr__(self):
        return "TriggerId(%d)" % self.serial


class _Activation:
    """In-memory mirror of one persistent activation record.

    *decl* is the :class:`Trigger` the record's class and trigger names
    resolve to in the class registry (None: not registered here); the
    manager re-resolves it when the registry changes.
    """

    __slots__ = ("serial", "oid", "class_name", "trigger_name", "args",
                 "deadline", "active", "decl")

    def __init__(self, serial: int, oid: Oid, class_name: str,
                 trigger_name: str, args: tuple,
                 deadline: Optional[float], active: bool):
        self.serial = serial
        self.oid = oid
        self.class_name = class_name
        self.trigger_name = trigger_name
        self.args = args
        self.deadline = deadline
        self.active = active
        self.decl: Optional[Trigger] = None

    def to_state(self) -> Dict[str, Any]:
        return {
            "serial": self.serial,
            "oid": [self.oid.cluster, self.oid.serial],
            "class_name": self.class_name,
            "trigger_name": self.trigger_name,
            "args": list(self.args),
            "deadline": self.deadline,
            "active": self.active,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "_Activation":
        return cls(state["serial"], Oid(*state["oid"]), state["class_name"],
                   state["trigger_name"], tuple(state["args"]),
                   state["deadline"], state["active"])

    def resolve(self) -> Optional[Trigger]:
        cls = class_registry().get(self.class_name)
        if cls is None:
            return None
        return cls._ode_triggers.get(self.trigger_name)


class FiredAction:
    """A scheduled trigger action, to run as an independent transaction."""

    __slots__ = ("activation_serial", "description", "thunk")

    def __init__(self, activation_serial: int, description: str,
                 thunk: Callable[[], None]):
        self.activation_serial = activation_serial
        self.description = description
        self.thunk = thunk

    def __repr__(self):
        return "FiredAction(%s)" % self.description


class _Stage:
    """One transaction's trigger bookkeeping until it commits or aborts.

    *results* maps each activation the commit evaluated to ``(keys,
    clusters, hot)``: the object keys and clusters its condition read
    and whether it fired while staying active. *written* holds the
    serials of the activation records the transaction wrote.
    """

    __slots__ = ("results", "written")

    def __init__(self):
        self.results: Dict[int, Tuple[Set, Set, bool]] = {}
        self.written: Set[int] = set()


class TriggerManager:
    """Owns activations; evaluates conditions at transaction boundaries.

    A condition is re-evaluated at a writing commit only when its value
    may have changed (see DESIGN.md, "Trigger model"): the activation is
    *pending* (new, never evaluated since the mirror was loaded, or its
    last result is suspect), the transaction wrote an object key or a
    cluster in its *watch set* (what its last evaluation read), it fired
    last time and is perpetual (*hot*), or the clock moved.
    """

    def __init__(self, db):
        self._db = db
        self._cache: Optional[Dict[int, _Activation]] = None
        # Guards the mirror and the watch index. Never held while a
        # condition runs: a condition may wait on a 2PL lock.
        self._mutex = threading.RLock()
        #: Serials of the active activations.
        self._live: Set[int] = set()
        self._pending: Set[int] = set()
        self._hot: Set[int] = set()
        #: serial -> (keys, clusters) of its last published evaluation,
        #: and the inverted index over them.
        self._watching: Dict[int, Tuple[Set, Set]] = {}
        self._by_key: Dict[Tuple[str, int], Set[int]] = {}
        self._by_cluster: Dict[str, Set[int]] = {}
        #: Bumped by every publish. A transaction whose begin-time value
        #: (``Transaction.trigger_epoch``) differs at its own publish
        #: evaluated against a snapshot another commit has overtaken.
        self._epoch = 0
        self._registry_gen = None
        self._staged: Dict[int, _Stage] = {}
        metrics = db.store.metrics
        self._evaluations = metrics.counter("trigger.evaluations")
        self._skipped = metrics.counter("trigger.skipped")
        self._firings = metrics.counter("trigger.firings")
        self._timeouts = metrics.counter("trigger.timeouts")

    # -- activation bookkeeping ------------------------------------------------

    def _ensure_cluster(self, txn: int) -> None:
        store = self._db.store
        if not store.has_cluster(ACTIVATION_CLUSTER):
            store.create_cluster(txn, ACTIVATION_CLUSTER)

    def _activations(self) -> Dict[int, _Activation]:
        cache = self._cache
        if cache is not None:
            return cache
        with self._mutex:
            if self._cache is None:
                store = self._db.store
                acts = []
                if store.has_cluster(ACTIVATION_CLUSTER):
                    acts = [_Activation.from_state(state)
                            for _rid, state in store.scan(ACTIVATION_CLUSTER)]
                acts.sort(key=lambda act: act.serial)
                for act in acts:
                    act.decl = act.resolve()
                self._registry_gen = registry_generation()
                self._live = {act.serial for act in acts if act.active}
                # Watch sets are memory-only: every activation is
                # evaluated once after a (re)load.
                self._pending = set(self._live)
                self._hot = set()
                self._watching = {}
                self._by_key = {}
                self._by_cluster = {}
                self._cache = {act.serial: act for act in acts}
            return self._cache

    def invalidate(self) -> None:
        """Drop the in-memory mirror; the next use reloads it."""
        with self._mutex:
            self._cache = None

    def _stage(self, txn: int) -> _Stage:
        stage = self._staged.get(txn)
        if stage is None:
            stage = self._staged[txn] = _Stage()
        return stage

    def _save(self, txn: int, act: _Activation) -> None:
        self._stage(txn).written.add(act.serial)
        self._db.store.put(txn, ACTIVATION_CLUSTER, (act.serial, 0),
                           act.to_state())

    def _retire(self, txn: int, act: _Activation) -> None:
        with self._mutex:
            act.active = False
            self._live.discard(act.serial)
        self._save(txn, act)

    # -- public operations -------------------------------------------------------

    def activate(self, obj, decl: Trigger, args: tuple) -> TriggerId:
        """Record a new activation of *decl* on *obj* with *args*."""
        db = self._db
        stored_args = tuple(
            a.oid if hasattr(a, "is_persistent") and a.is_persistent else a
            for a in args)
        with db._implicit_txn() as txn:
            self._ensure_cluster(txn)
            serial = db.store.allocate_serial(txn, ACTIVATION_CLUSTER)
            deadline = None
            if decl.within is not None:
                duration = (decl.within(obj, *args) if callable(decl.within)
                            else decl.within)
                deadline = db.now() + float(duration)
            act = _Activation(serial, obj.oid, type(obj).__name__,
                              decl.name, stored_args, deadline, True)
            act.decl = act.resolve()
            with self._mutex:
                self._activations()[serial] = act
                self._live.add(serial)
            self._save(txn, act)
        return TriggerId(serial, self)

    def deactivate(self, tid: TriggerId) -> bool:
        act = self._activations().get(tid.serial)
        if act is None or not act.active:
            return False
        with self._db._implicit_txn() as txn:
            self._retire(txn, act)
        return True

    def is_active(self, tid: TriggerId) -> bool:
        act = self._activations().get(tid.serial)
        return bool(act and act.active)

    def active_count(self) -> int:
        self._activations()
        return len(self._live)

    def stats(self) -> Dict[str, int]:
        return {"active": self.active_count(),
                "evaluations": self._evaluations.value,
                "skipped": self._skipped.value,
                "firings": self._firings.value,
                "timeouts": self._timeouts.value}

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, handle, clock_moved: bool = False) -> List[FiredAction]:
        """Evaluate the conditions this commit may have changed.

        Called by the database at the end of a writing transaction,
        *before* commit: deactivations of fired once-only triggers join
        the triggering transaction (so an abort restores them), while the
        returned actions are executed as independent transactions only if
        the commit succeeds (weak coupling). What each condition read is
        staged; :meth:`publish` makes it the activation's watch set once
        the commit is durable.
        """
        txn = handle.txn_id
        stage = self._stage(txn)
        with self._mutex:
            acts = self._activations()
            if not self._live:
                return []
            self._refresh_declarations(acts)
            if clock_moved or handle.ddl:
                serials = self._live
            else:
                serials = self._candidates(handle, stage)
            todo = [acts[serial] for serial in sorted(serials)
                    if serial in acts]
            n_live = len(self._live)
        db = self._db
        fired: List[FiredAction] = []
        results = stage.results
        now = db.now()
        evaluated = firings = timeouts = 0
        for act in todo:
            decl = act.decl
            if not act.active or decl is None:
                continue
            evaluated += 1
            keys: Set[Tuple[str, int]] = set()
            clusters: Set[str] = set()
            handle.watch, handle.watch_clusters = keys, clusters
            try:
                obj = db.deref(act.oid, _missing_ok=True)
                hit = obj is not None and decl.condition(
                    obj, *self._rehydrate(act.args))
            finally:
                handle.watch = handle.watch_clusters = None
            if obj is None:
                # Object was deleted: the activation dies with it.
                self._retire(txn, act)
                continue
            if hit:
                firings += 1
                if not decl.perpetual:
                    self._retire(txn, act)
                fired.append(self._make_action(act, decl, False))
            elif act.deadline is not None and now >= act.deadline:
                timeouts += 1
                self._retire(txn, act)
                if decl.timeout_action is not None:
                    fired.append(self._make_action(act, decl, True))
            results[act.serial] = (keys, clusters,
                                   bool(hit) and decl.perpetual)
        self._evaluations.inc(evaluated)
        self._skipped.inc(max(0, n_live - evaluated))
        self._firings.inc(firings)
        self._timeouts.inc(timeouts)
        return fired

    def _refresh_declarations(self, acts: Dict[int, _Activation]) -> None:
        """Re-resolve declarations after the class registry changed; an
        activation whose declaration did is evaluated afresh."""
        gen = registry_generation()
        if gen == self._registry_gen:
            return
        self._registry_gen = gen
        for act in acts.values():
            decl = act.resolve()
            if decl is not act.decl:
                act.decl = decl
                if act.active:
                    self._pending.add(act.serial)

    def _candidates(self, handle, stage: _Stage) -> Set[int]:
        """Activations whose condition this commit may have changed."""
        return (self._pending | self._hot | stage.written
                | self._watchers(handle.write_set))

    def _watchers(self, write_set) -> Set[int]:
        """Activations watching a key, or the cluster of a key, in
        *write_set*: O(written keys), not O(activations)."""
        out: Set[int] = set()
        by_key, by_cluster = self._by_key, self._by_cluster
        if by_key:
            for key in write_set:
                watchers = by_key.get(key)
                if watchers:
                    out |= watchers
        if by_cluster:
            for cluster in {key[0] for key in write_set}:
                watchers = by_cluster.get(cluster)
                if watchers:
                    out |= watchers
        return out

    def publish(self, handle) -> None:
        """Make a committed transaction's evaluations current.

        An activation it evaluated now watches what its condition read;
        one it did not evaluate but whose watch set its writes touched —
        possible only beside concurrent commits — becomes pending. If
        another commit published since this transaction began, its
        snapshot may have missed that commit's writes, so what it
        evaluated becomes pending instead of clean.
        """
        stage = self._staged.pop(handle.txn_id, None)
        if stage is None:
            return
        with self._mutex:
            stale = handle.trigger_epoch != self._epoch
            self._epoch += 1
            acts = self._cache
            if acts is None:
                return  # reloads with everything pending
            results = stage.results
            for serial in stage.written:
                act = acts.get(serial)
                if act is None or not act.active:
                    self._forget(serial)
                elif serial not in results:
                    self._pending.add(serial)
            for serial, (keys, clusters, hot) in results.items():
                act = acts.get(serial)
                if act is None or not act.active:
                    self._forget(serial)
                    continue
                self._watch(serial, keys, clusters)
                if hot:
                    self._hot.add(serial)
                else:
                    self._hot.discard(serial)
                if stale:
                    self._pending.add(serial)
                else:
                    self._pending.discard(serial)
            self._pending.update(
                serial for serial in self._watchers(handle.write_set)
                if serial not in results)

    def rollback(self, txn: int) -> None:
        """Forget an aborted transaction's evaluations and reload the
        activation records it wrote from the rolled-back store."""
        stage = self._staged.pop(txn, None)
        if stage is None or not stage.written:
            return
        with self._mutex:
            acts = self._cache
            if acts is None:
                return
            store = self._db.store
            try:
                exists = store.has_cluster(ACTIVATION_CLUSTER)
                states = {serial: (store.get(ACTIVATION_CLUSTER, (serial, 0))
                                   if exists else None)
                          for serial in stage.written}
            except StorageError:
                # The store cannot be read (a failed WAL flush): reload
                # the whole mirror once it can.
                self._cache = None
                return
            for serial, state in states.items():
                act = acts.get(serial)
                if state is None:
                    acts.pop(serial, None)
                    self._live.discard(serial)
                    self._forget(serial)
                    continue
                fresh = _Activation.from_state(state)
                if act is None:
                    act = acts[serial] = fresh
                    act.decl = act.resolve()
                else:
                    act.active, act.deadline = fresh.active, fresh.deadline
                if act.active:
                    self._live.add(serial)
                    self._pending.add(serial)
                else:
                    self._live.discard(serial)
                    self._forget(serial)

    def _watch(self, serial: int, keys: Set, clusters: Set) -> None:
        old = self._watching.get(serial)
        if old is not None:
            if old[0] == keys and old[1] == clusters:
                return
            self._unindex(serial, old)
        self._watching[serial] = (keys, clusters)
        for key in keys:
            self._by_key.setdefault(key, set()).add(serial)
        for cluster in clusters:
            self._by_cluster.setdefault(cluster, set()).add(serial)

    def _forget(self, serial: int) -> None:
        self._pending.discard(serial)
        self._hot.discard(serial)
        old = self._watching.pop(serial, None)
        if old is not None:
            self._unindex(serial, old)

    def _unindex(self, serial: int, watched: Tuple[Set, Set]) -> None:
        for index, entries in ((self._by_key, watched[0]),
                               (self._by_cluster, watched[1])):
            for entry in entries:
                watchers = index.get(entry)
                if watchers is not None:
                    watchers.discard(serial)
                    if not watchers:
                        del index[entry]

    def _make_action(self, act: _Activation, decl: Trigger,
                     timed_out: bool) -> FiredAction:
        db = self._db
        oid, args = act.oid, act.args
        run = decl.timeout_action if timed_out else decl.action

        def thunk() -> None:
            obj = db.deref(oid, _missing_ok=True)
            if obj is None:
                return
            run(obj, *self._rehydrate(args))

        what = "timeout of " if timed_out else ""
        description = "%s%s.%s on %r" % (what, act.class_name,
                                         act.trigger_name, oid)
        return FiredAction(act.serial, description, thunk)

    def _rehydrate(self, args: tuple) -> tuple:
        """Turn stored Oid/Vref arguments back into live objects."""
        return tuple(self._db.deref(a) if isinstance(a, (Oid, Vref)) else a
                     for a in args)

"""The evaluate-everything trigger manager: the reference the watch-set
manager is compared against.

At every writing commit it derefs and checks *every* active activation,
in activation order, exactly as section 6 states the semantics ("trigger
conditions are conceptually evaluated at the end of each transaction").
It keeps no watch sets, and an abort drops its whole mirror.
Install it on a fresh database with ``install(db)``.
"""

from repro.core.triggers import TriggerManager


class OracleTriggerManager(TriggerManager):
    def evaluate(self, handle, clock_moved=False):
        txn = handle.txn_id
        fired = []
        now = self._db.now()
        acts = self._activations()
        for serial in sorted(acts):
            act = acts[serial]
            if not act.active:
                continue
            decl = act.resolve()
            if decl is None:
                continue
            obj = self._db.deref(act.oid, _missing_ok=True)
            if obj is None:
                self._retire(txn, act)
                continue
            if decl.condition(obj, *self._rehydrate(act.args)):
                if not decl.perpetual:
                    self._retire(txn, act)
                fired.append(self._make_action(act, decl, False))
            elif act.deadline is not None and now >= act.deadline:
                self._retire(txn, act)
                if decl.timeout_action is not None:
                    fired.append(self._make_action(act, decl, True))
        return fired

    def publish(self, handle):
        self._staged.pop(handle.txn_id, None)

    def rollback(self, txn):
        self._staged.pop(txn, None)
        self.invalidate()


def install(db):
    """Replace *db*'s trigger manager by the oracle (before any use)."""
    db.triggers = OracleTriggerManager(db)
    return db

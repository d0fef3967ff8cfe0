"""Randomized-but-deterministic workload for the crash harness.

This module plays two roles:

* **Imported by the harness** (parent process) for :func:`generate`, the
  pure function that maps ``(seed, n_ops)`` to the exact operation list
  and the model state after every prefix. The harness replays it to know
  what the database *should* contain after recovering from a crash at an
  arbitrary point.

* **Run as a script** (child process) it executes that same operation
  list against a real :class:`~repro.core.database.Database`, one
  transaction per operation, appending each acknowledged commit to an
  fsynced *oracle* file **after** the commit returns. Before every
  :data:`ABORT_EVERY`-th operation it also runs a transaction that
  creates, updates and deletes objects and then aborts (no model state
  changes), so the kill points land inside undo too and recovery must
  finish an abort a crash cut short. Faults are armed
  through ``REPRO_FAULTS`` (see :mod:`repro.storage.faults`), so the
  child can be killed at any registered failpoint; the oracle then lower-
  bounds the set of operations recovery must preserve.

Exit codes: 0 = workload completed and closed cleanly; 47 = injected
process death (``faults.DIE_EXIT_CODE``); 3 = an operation raised (an
injected EIO, a failed WAL, degraded mode, ...) — the child stops
without closing, which the harness treats like a crash.
"""

from __future__ import annotations

import json
import os
import random
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)

from repro import Database, IntField, OdeObject, StringField, newversion
from repro.storage import pagefile

from tests.storage.legacy_layouts import (stamp_version, to_version_2,
                                          to_version_5)

#: Exit code when an operation raised instead of dying at a failpoint.
ERROR_EXIT_CODE = 3

#: With ``REPRO_WORKLOAD_MAINT=1`` the child runs a deterministic
#: maintenance call (a vacuum) after every this-many committed ops — the
#: maintenance matrix uses it to hit the ``vacuum.*`` failpoints at
#: reproducible points. Vacuum never changes logical content, so the
#: model states are unaffected.
MAINT_EVERY = 8

#: Every this-many ops, an aborted transaction runs first (see the
#: module docs).
ABORT_EVERY = 3

# With ``REPRO_WORKLOAD_V2=1`` the child runs its first ops with no
# faults armed, then — in place of the first maintenance call — rewrites
# the whole store as a version-2 binary left it and reopens it, arming
# ``REPRO_FAULTS`` for that open: the kill points fall inside the
# conversion every open runs (see reopen_as_version_2).
# ``REPRO_WORKLOAD_V5=1`` does the same with a format-5 store — every
# object record a codec dict — whose conversion rewrites each record
# positionally (see reopen_as_version_5).
# ``REPRO_WORKLOAD_POOL`` shrinks the buffer pool so page write-backs
# happen inside the conversion, and ``REPRO_WORKLOAD_HITS`` names a file
# that receives the failpoint hit counters once the open returns (the
# harness calibrates its kill points from a fault-free run).
# ``REPRO_WORKLOAD_SKIP_CHECKSUM=1`` makes the child an intentionally
# broken build that writes pages without checksums (the harness's
# negative control).


def reopen_as_version_2(db, db_path: str, faults: str, **options):
    """Close *db* with every structure in its version-2 layout — hash
    object directories, a version-3 tree for ``name``, the old hash
    index for ``qty`` — and a version-2 header; reopen it with *faults*
    armed. The open converts everything back in one transaction."""
    store = db.store
    to_version_2(store, hash_indexes={("CrashItem", "qty")})
    db.close()
    stamp_version(db_path, 2)
    os.environ["REPRO_FAULTS"] = faults
    db = Database(db_path, **options)
    hits_path = os.environ.get("REPRO_WORKLOAD_HITS")
    if hits_path:
        with open(hits_path, "w") as handle:
            json.dump(_hits(db.store), handle)
    return db


def reopen_as_version_5(db, db_path: str, faults: str, **options):
    """Close *db* with every object record in the dict layout of format
    5 and a version-5 header; reopen it with *faults* armed. The open
    rewrites every record positionally in one transaction."""
    store = db.store
    to_version_5(store)
    db.close()
    stamp_version(db_path, 5)
    os.environ["REPRO_FAULTS"] = faults
    db = Database(db_path, **options)
    hits_path = os.environ.get("REPRO_WORKLOAD_HITS")
    if hits_path:
        with open(hits_path, "w") as handle:
            json.dump(_hits(db.store), handle)
    return db


def run_maintenance(db) -> None:
    """One deterministic maintenance call (content-neutral): a vacuum,
    which rewrites the cluster in one transaction."""
    db.store.vacuum("CrashItem")


class _Abort(Exception):
    """Raised to roll back the workload's aborted transactions."""


def run_aborted(db, live, i: int) -> None:
    """Write beside the committed state, then abort: two creates (one
    with a name near a leaf's worth, to split and later detach index
    leaves), an update and a delete of live objects."""
    names = sorted(live)
    try:
        with db.transaction():
            db.pnew(CrashItem, name="abort-%d" % i, qty=-1)
            db.pnew(CrashItem, name="abort-%d%s" % (i, "~" * 600), qty=-2)
            if names:
                live[names[i % len(names)]].qty = -3
                db.pdelete(live[names[(i // 2) % len(names)]].oid)
            raise _Abort
    except _Abort:
        pass


def _hits(store):
    return {name: point.hits
            for name, point in store.faults._points.items()}


class CrashItem(OdeObject):
    """The one persistent class the workload exercises."""

    name = StringField(default="")
    qty = IntField(default=0)


def generate(seed: int, n_ops: int):
    """The deterministic op list and per-prefix model states.

    Returns ``(ops, models)`` where ``ops[i]`` is ``(kind, name, arg)``
    and ``models[k]`` is the ``{name: qty}`` mapping the database must
    hold after exactly the first ``k`` operations have committed
    (``len(models) == n_ops + 1``; ``models[0]`` is empty). Everything
    is a pure function of ``seed``, so parent and child independently
    agree on the workload without sharing state.
    """
    rng = random.Random(seed)
    model = {}
    ops = []
    models = [dict(model)]
    for i in range(n_ops):
        if not model or rng.random() < 0.5:
            # Names are keys of the ordered index: variable length (5 to
            # ~880 bytes, a handful to a leaf, so a dozen live objects
            # split and detach leaves), sort order unrelated to creation
            # order.
            op = ("create", "obj-%d%s" % (i, "-" * (i * 37 % 30 * 30)),
                  rng.randrange(1000))
        else:
            name = sorted(model)[rng.randrange(len(model))]
            roll = rng.random()
            if roll < 0.45:
                op = ("update", name, rng.randrange(1000))
            elif roll < 0.70:
                op = ("newversion", name, rng.randrange(1000))
            else:
                # Deletes come off the ends of the key order, alternately
                # (the leftmost-leaf and rightmost-leaf paths).
                op = ("delete", sorted(model)[0 if i % 2 else -1], None)
        kind, name, arg = op
        if kind == "delete":
            del model[name]
        else:
            model[name] = arg
        ops.append(op)
        models.append(dict(model))
    return ops, models


def run_child(db_path: str, oracle_path: str, seed: int, n_ops: int,
              durability: str) -> int:
    """Execute the workload; returns the exit code (may ``os._exit`` 47)."""
    ops, _ = generate(seed, n_ops)
    maint = os.environ.get("REPRO_WORKLOAD_MAINT") == "1"
    v2 = os.environ.get("REPRO_WORKLOAD_V2") == "1"
    v5 = os.environ.get("REPRO_WORKLOAD_V5") == "1"
    faults = os.environ.pop("REPRO_FAULTS", "") if v2 or v5 else None
    pagefile.SKIP_CHECKSUM = (
        os.environ.get("REPRO_WORKLOAD_SKIP_CHECKSUM") == "1")
    # Unbuffered append + fsync per line: an oracle entry on disk means
    # the commit it names was acknowledged as durable before the entry
    # was written, so oracle ⊆ recovered must hold (full/group modes).
    oracle = open(oracle_path, "ab", buffering=0)
    try:
        options = {"durability": durability,
                   "pool_size": int(os.environ.get("REPRO_WORKLOAD_POOL",
                                                   256))}
        db = Database(db_path, **options)
        if "CrashItem" not in db.clusters():
            db.create(CrashItem)
            db.create_index(CrashItem, "qty", kind="hash")
            db.create_index(CrashItem, "name", kind="btree")
        live = {obj.name: obj for obj in db.cluster(CrashItem)}
        for i, (kind, name, arg) in enumerate(ops):
            if i % ABORT_EVERY == 1:
                run_aborted(db, live, i)
                # A rolled-back pdelete leaves its handle volatile.
                live = {obj.name: obj for obj in db.cluster(CrashItem)}
            with db.transaction():
                if kind == "create":
                    live[name] = db.pnew(CrashItem, name=name, qty=arg)
                elif kind == "update":
                    live[name].qty = arg
                elif kind == "newversion":
                    newversion(live[name])
                    live[name].qty = arg
                else:
                    db.pdelete(live[name].oid)
                    del live[name]
            oracle.write(b"%d\n" % i)
            os.fsync(oracle.fileno())
            if (v2 or v5) and i + 1 == MAINT_EVERY:
                reopen = reopen_as_version_2 if v2 else reopen_as_version_5
                db = reopen(db, db_path, faults, **options)
                live = {obj.name: obj for obj in db.cluster(CrashItem)}
            elif maint and (i + 1) % MAINT_EVERY == 0:
                run_maintenance(db)
    except BaseException:
        import traceback
        traceback.print_exc()
        return ERROR_EXIT_CODE
    db.close()
    return 0


def main(argv) -> int:
    db_path, oracle_path, seed, n_ops, durability = argv
    return run_child(db_path, oracle_path, int(seed), int(n_ops), durability)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

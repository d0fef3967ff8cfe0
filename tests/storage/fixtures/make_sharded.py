"""Regenerate the N-file store fixtures of ``test_one_file.py``.

The package can no longer create a store split over several page files,
so these fixtures were written by the last tree that could: git commit
74e1367 (``git archive 74e1367 | tar -x -C old``), with this file copied
into ``old/tests/storage/fixtures/`` and run from ``old`` as::

    PYTHONPATH=src:. python tests/storage/fixtures/make_sharded.py OUTDIR

Each fixture is ``<name>.tar.xz`` (the page files ``f.odb``,
``f.odb.s1`` .. ``f.odb.s3`` and the log ``f.odb.wal``) plus
``<name>.json``: the serials of the versioned object and of the object
whose ``low(5)`` activation a write to ``qty`` fires, and what
``test_upgrade_fold.answers`` returned for the store, computed by that
tree after it opened a copy (recovering and converting it as needed).

* ``clean4`` — ``test_upgrade_fold.build(path, 4)``, closed cleanly:
  format 6, 4 files, an empty log.
* ``crashed4`` — ``clean4`` reopened with a 16-page pool, two committed
  transactions (an update, a ``pnew``), then a transaction left open
  (four ``pnew``s whose serials route to files 2, 3, 0 and 1, a
  ``pdelete`` of serial 6 in file 2, an update) with the log flushed,
  and the process killed with ``os._exit``: the log holds a loser with
  object-table inserts and a delete in files 1-3.
* ``v4_4`` and ``v5_4`` — ``build(path, 4)`` rewritten by
  ``legacy_layouts.to_two_records`` (two dict records per object) or
  ``to_version_5`` (one dict record per object), stamped format 4 or 5.
* ``v2_4`` — ``build(path, 4)`` rewritten by
  ``legacy_layouts.to_version_2`` with the ``qty`` index as a
  ``kind="hash"`` index, every file stamped format 2: hash object
  directories, two dict records per object, a hash index.
"""

import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

FILES = ("f.odb", "f.odb.s1", "f.odb.s2", "f.odb.s3", "f.odb.wal")


def _crash_child(path):
    """Runs in a subprocess: committed work, then a loser, then death."""
    from repro import Database
    from tests.storage.test_upgrade_fold import FoldItem

    db = Database(path, pool_size=16)
    oids = sorted(db.cluster(FoldItem).oids(), key=lambda o: o.serial)
    with db.transaction():
        db.deref(oids[5]).qty = 30
    with db.transaction():
        db.pnew(FoldItem, name="late", qty=31)
    with db.transaction() as txn:
        for i in range(4):
            db.pnew(FoldItem, name="lost%d" % i, qty=40 + i)
        db.pdelete(next(o for o in oids if o.serial == 6))
        db.deref(oids[7]).qty = 41
        db._flush(txn.txn_id)
        db.store._wal.flush()
        os._exit(0)


def _answers(path, versioned_serial):
    from repro import Database
    from repro.core.oid import Oid
    from tests.storage.test_upgrade_fold import answers

    db = Database(path)
    try:
        assert db.verify() == []
        got = answers(db, Oid("FoldItem", versioned_serial))
    finally:
        db.close()
    return json.loads(json.dumps(got, default=repr))


def _pack(workdir, outdir, name, versioned_serial, watched_serial):
    with tarfile.open(os.path.join(outdir, name + ".tar.xz"), "w:xz") as tar:
        for file in FILES:
            if os.path.exists(os.path.join(workdir, file)):
                tar.add(os.path.join(workdir, file), arcname=file)
    copy = tempfile.mkdtemp()
    try:
        for file in FILES:
            if os.path.exists(os.path.join(workdir, file)):
                shutil.copy(os.path.join(workdir, file), copy)
        got = _answers(os.path.join(copy, "f.odb"), versioned_serial)
    finally:
        shutil.rmtree(copy)
    with open(os.path.join(outdir, name + ".json"), "w") as handle:
        json.dump({"versioned": versioned_serial, "watched": watched_serial,
                   "answers": got}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return got


def main(outdir):
    from repro.storage.store import Store
    from tests.storage.legacy_layouts import (stamp_version, to_two_records,
                                              to_version_2, to_version_5)
    from tests.storage.test_upgrade_fold import answers, build

    os.makedirs(outdir, exist_ok=True)
    for name in ("clean4", "crashed4", "v4_4", "v5_4", "v2_4"):
        workdir = tempfile.mkdtemp()
        path = os.path.join(workdir, "f.odb")
        db, versioned, watched = build(path, 4)
        before = json.loads(json.dumps(answers(db, versioned), default=repr))
        db.close()
        if name == "crashed4":
            proc = subprocess.run([sys.executable, __file__, "--crash", path])
            assert proc.returncode == 0
        elif name != "clean4":
            store = Store(path)
            if name == "v2_4":
                to_version_2(store, hash_indexes={("FoldItem", "qty")})
            else:
                (to_two_records if name == "v4_4" else to_version_5)(store)
            store.close()
            stamp_version(path, int(name[1]), 4)
        got = _pack(workdir, outdir, name, versioned.serial, watched.serial)
        if name != "crashed4":
            assert got == before, name
        shutil.rmtree(workdir)


if __name__ == "__main__":
    if sys.argv[1] == "--crash":
        _crash_child(sys.argv[2])
    else:
        main(sys.argv[1])

"""Serial blocks outlive the transaction that reserved them (§2 object
identity): a serial another transaction committed is never issued again,
whether the reserver aborts, its process dies while it is open, or it
had rewritten the cluster's catalog record before it reserved."""

import os
import subprocess
import sys
import threading

from repro import Database, IntField, OdeObject

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class SerialItem(OdeObject):
    n = IntField(default=0)


class _Rollback(Exception):
    pass


def committed_beside_an_open_reserver(db, end):
    """A ``pnew`` in a transaction left open (it reserves the block), a
    second session's ``pnew`` committed from that block, then *end*
    called with the first transaction still open. Returns the second
    session's serial."""
    reserved, ended = threading.Event(), threading.Event()
    errors = []

    def reserver():
        try:
            with db.transaction():
                db.pnew(SerialItem, n=1)
                reserved.set()
                ended.wait(30)
                raise _Rollback
        except _Rollback:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            reserved.set()

    thread = threading.Thread(target=reserver)
    thread.start()
    assert reserved.wait(30)
    other = []
    taker = threading.Thread(
        target=lambda: other.append(db.pnew(SerialItem, n=2).oid.serial))
    taker.start()
    taker.join(30)
    try:
        end()
    finally:
        ended.set()
        thread.join(30)
    assert errors == []
    return other[0]


def serials(db):
    return sorted(oid.serial for oid in db.cluster(SerialItem).oids())


def test_an_abort_of_the_reserver_keeps_the_block(db_path):
    db = Database(db_path)
    try:
        db.create(SerialItem)
        kept = committed_beside_an_open_reserver(db, lambda: None)
        # the reserver has aborted; its block is still the cluster's
        made = [db.pnew(SerialItem, n=3).oid.serial for _ in range(70)]
        assert kept not in made
        assert serials(db) == sorted([kept] + made)
        assert db.verify() == []
    finally:
        db.close()


#: Run in a child process: the reserver's transaction is open when the
#: process dies.
CHILD = """
import os, sys
from repro import Database
from tests.core.test_serial_blocks import (
    SerialItem, committed_beside_an_open_reserver)
db = Database(sys.argv[1])
db.create(SerialItem)
print(committed_beside_an_open_reserver(db, lambda: os._exit(0)))
"""


def test_a_crash_of_the_reserver_keeps_the_block(db_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", CHILD, db_path], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-1500:]
    db = Database(db_path)
    try:
        kept = serials(db)
        assert len(kept) == 1                 # the committed one
        made = [db.pnew(SerialItem, n=3).oid.serial for _ in range(70)]
        assert kept[0] not in made
        assert serials(db) == sorted(kept + made)
        assert db.verify() == []
    finally:
        db.close()


def test_a_reservation_after_a_catalog_rewrite_survives_its_abort(db_path):
    """``create_index`` rewrites the cluster's catalog record in the
    caller's transaction; the ``pnew`` after it reserves. Rolling the
    record back to its before-image must not move serial reservation
    back under the serials committed since."""
    db = Database(db_path)
    try:
        db.create(SerialItem)
        try:
            with db.transaction():
                db.create_index(SerialItem, "n")
                db.pnew(SerialItem, n=1)
                raise _Rollback
        except _Rollback:
            pass
        made = [db.pnew(SerialItem, n=2).oid.serial for _ in range(130)]
        assert len(set(made)) == len(made)
        assert serials(db) == sorted(made)
        db.close()
        db = Database(db_path)
        more = [db.pnew(SerialItem, n=3).oid.serial for _ in range(3)]
        assert not set(more) & set(made)
        assert db.verify() == []
    finally:
        db.close()

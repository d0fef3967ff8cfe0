"""The crash-consistency harness (EXP-16).

One *cycle* = run the deterministic workload (:mod:`tests.crash.workload`)
in a subprocess with one or more failpoints armed through ``REPRO_FAULTS``,
let the injected fault kill it (or fail its current operation), then reopen
the database **in this process** — which runs crash recovery — and audit:

1. the database opens at all (recovery never leaves an unopenable store);
2. it is not in degraded mode after recovery;
3. the storage + object integrity checker (``db.verify()``) is clean;
4. the surviving contents — and, entry for entry, the ordered index on
   ``name`` — equal the workload model after exactly ``k``
   operations for some ``k ≥`` the number of *acknowledged* commits in the
   oracle file (every acked-durable commit survived; nothing partial,
   nothing reordered — the sequential workload makes the committed set a
   prefix);
5. the recovered database still accepts writes (create + delete probe).

For faults that model *lying hardware* (``wal.flush.lie``) losing
acknowledged commits is exactly the simulated failure, so the audit drops
invariant 4's lower bound to zero (``strict=False``) but still requires
the state to be *some* consistent prefix.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.storage.faults import DIE_EXIT_CODE, KNOWN_FAILPOINTS

from .workload import CrashItem, ERROR_EXIT_CODE, generate

WORKLOAD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "workload.py")

#: Exit codes a faulted child may legitimately end with.
OK_EXIT_CODES = (0, ERROR_EXIT_CODE, DIE_EXIT_CODE)


class CycleResult:
    """Everything one crash/recover cycle produced."""

    def __init__(self, spec, returncode, acked, problems, stderr):
        self.spec = spec
        self.returncode = returncode
        self.acked = acked
        self.problems = problems
        self.stderr = stderr

    def __repr__(self):
        return ("CycleResult(spec=%r, rc=%d, acked=%d, problems=%r)"
                % (self.spec, self.returncode, self.acked, self.problems))


def read_oracle(oracle_path: str) -> int:
    """Number of acknowledged commits (with a contiguity sanity check)."""
    if not os.path.exists(oracle_path):
        return 0
    with open(oracle_path, "rb") as handle:
        lines = handle.read().split()
    for i, line in enumerate(lines):
        assert int(line) == i, "oracle file is not contiguous: %r" % lines
    return len(lines)


def run_cycle(tmpdir: str, spec: str, seed: int = 1337, n_ops: int = 40,
              durability: str = "full", strict: bool = True,
              extra_env=None, timeout: float = 120.0,
              inspect=None) -> CycleResult:
    """Run one crash/recover/audit cycle; see the module docstring.
    *inspect*, when given, looks at the database file the child left
    before the audit reopens it, returning problems of its own."""
    db_path = os.path.join(tmpdir, "crash.odb")
    oracle_path = os.path.join(tmpdir, "oracle.log")
    env = dict(os.environ)
    env["REPRO_FAULTS"] = spec
    env["REPRO_FAULTS_SEED"] = str(seed)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, WORKLOAD, db_path, oracle_path,
         str(seed), str(n_ops), durability],
        env=env, capture_output=True, timeout=timeout)
    acked = read_oracle(oracle_path)
    problems = []
    if proc.returncode not in OK_EXIT_CODES:
        problems.append("child exited %d: %s"
                        % (proc.returncode, proc.stderr.decode()[-500:]))
    if inspect is not None and os.path.exists(db_path):
        problems.extend(inspect(db_path))
    problems.extend(audit(db_path, seed, n_ops, acked, strict=strict))
    return CycleResult(spec, proc.returncode, acked, problems,
                       proc.stderr.decode())


def audit(db_path: str, seed: int, n_ops: int, acked: int,
          strict: bool = True):
    """Recover the database in-process and check every invariant.

    Returns a list of violation strings (empty = the cycle is sound).
    """
    problems = []
    if not os.path.exists(db_path):
        if acked:
            problems.append("no database file, yet %d commits acked" % acked)
        return problems
    from repro import Database
    try:
        db = Database(db_path)
    except Exception as exc:  # an unopenable store is always a violation
        problems.append("recovery failed to reopen the store: %s: %s"
                        % (type(exc).__name__, exc))
        return problems
    try:
        if db.degraded is not None:
            problems.append("degraded after recovery: %s" % db.degraded)
        for issue in db.verify():
            problems.append("integrity: %s" % issue)
        state = {}
        if "CrashItem" in db.clusters():
            extent = list(db.cluster(CrashItem))
            state = {obj.name: obj.qty for obj in extent}
            # The ordered index (the crash may have predated its
            # creation) holds exactly the recovered extent, in key order.
            if "name" in db.store.indexes_on("CrashItem"):
                db.store.index("CrashItem", "name").check_invariants()
                indexed = list(db.store.index_range("CrashItem", "name"))
                if indexed != sorted((obj.name, obj.oid.serial)
                                     for obj in extent):
                    problems.append(
                        "ordered index holds %d entries that are not the "
                        "%d recovered objects in key order"
                        % (len(indexed), len(extent)))
        _, models = generate(seed, n_ops)
        lower = acked if strict else 0
        matched = None
        for k in range(lower, n_ops + 1):
            if models[k] == state:
                matched = k
                break
        if matched is None:
            problems.append(
                "state matches no committed prefix >= %d acked ops "
                "(%d objects recovered)" % (lower, len(state)))
        # A recovered store must still take writes (the crash may have
        # predated the cluster's creation; creating it is then the probe).
        if not problems:
            if "CrashItem" not in db.clusters():
                db.create(CrashItem)
            with db.transaction():
                probe = db.pnew(CrashItem, name="__probe__", qty=1)
            db.pdelete(probe.oid)
    except Exception as exc:
        problems.append("audit raised %s: %s" % (type(exc).__name__, exc))
    finally:
        try:
            db.close()
        except Exception as exc:
            problems.append("close after recovery raised %s: %s"
                            % (type(exc).__name__, exc))
    return problems


def kill_specs(hits=(2, 13)):
    """The kill-point matrix: ``(label, REPRO_FAULTS spec, strict)``.

    Derived from :data:`~repro.storage.faults.KNOWN_FAILPOINTS`, with two
    failure modes needing company to be observable:

    * a **lost** page write is undetectable until the next crash (the old
      page image carries a valid checksum), so it is paired with a death
      at the next log truncation — the classic "lost write, then crash
      before the checkpoint completes";
    * a **lying WAL fsync** only loses data when the process dies while
      the lie is still in the write cache, so it is paired with a death
      at the next flush. Losing acked commits is then the *simulated*
      hardware fault, so those cycles audit with ``strict=False``.
    """
    specs = []
    for name, action in KNOWN_FAILPOINTS:
        if name.startswith(("shard.", "recluster.", "server.")):
            # Multi-shard-only points never fire on the default 1-shard
            # workload, and socket-layer points never fire embedded (the
            # cycle would just be a fault-free run); shard_kill_specs()
            # and tests/crash/test_server_crash.py cover them.
            continue
        for at_hit in hits:
            if action == "lost":
                spec = "%s:lost:%d;wal.truncate.pre:die:1" % (name, at_hit)
                strict = True
            elif name == "wal.flush.lie":
                spec = ("wal.flush.lie:lie:%d;wal.flush.pre:die:%d"
                        % (at_hit, at_hit + 1))
                strict = False
            else:
                spec = "%s:%s:%d" % (name, action, at_hit)
                strict = True
            specs.append(("%s@%d" % (name, at_hit), spec, strict))
    return specs


#: Environment for the shard matrix: a 4-shard store, the background
#: recluster daemon off (its timing is non-deterministic; reclustering is
#: exercised via the workload's deterministic maintenance calls instead),
#: and the workload's maintenance ops on.
SHARD_ENV = {
    "REPRO_SHARDS": "4",
    "REPRO_RECLUSTER": "0",
    "REPRO_WORKLOAD_MAINT": "1",
}


def shard_kill_specs():
    """Kill-point matrix for the sharded store: ``(label, spec, strict,
    extra_env)``.

    Covers the shard-only failpoints (store creation and reclustering)
    plus a sample of the core WAL/pagefile points re-run under a 4-shard
    store with deterministic recluster maintenance — the recovery,
    checkpoint and torn-write machinery all route through the gpid
    router there, which the 1-shard matrix cannot see.

    The ``shard.open.*`` points fire once per extra shard file (3 times
    for 4 shards) and only during creation; ``shard.root.pre`` exactly
    once; the recluster points once per maintenance call.
    """
    specs = []
    for name in ("shard.root.pre", "shard.open.pre", "shard.open.post"):
        hits = (1,) if name == "shard.root.pre" else (1, 2, 3)
        for at_hit in hits:
            specs.append(("%s@%d" % (name, at_hit),
                          "%s:die:%d" % (name, at_hit), True, SHARD_ENV))
    for name in ("recluster.pre", "recluster.commit.pre"):
        for at_hit in (1, 2, 4):
            specs.append(("%s@%d" % (name, at_hit),
                          "%s:die:%d" % (name, at_hit), True, SHARD_ENV))
    for name, action in (("wal.flush.pre", "die"),
                         ("pagefile.write.pre", "die"),
                         ("pagefile.write.torn", "torn"),
                         ("wal.truncate.pre", "die"),
                         ("pagefile.sync.pre", "die")):
        for at_hit in (2, 13):
            specs.append(("4shard-%s@%d" % (name, at_hit),
                          "%s:%s:%d" % (name, action, at_hit), True,
                          SHARD_ENV))
    return specs


# -- version-2 layout cycles (EXP-22, EXP-27) ---------------------------------


def v2_env(shards: int) -> dict:
    """Environment of an old-layout cycle: after its first ops the child
    rewrites the store as a version-2 binary left it and reopens it with
    the faults armed, so they fire inside the conversion that open runs
    (later maintenance calls recluster). The small pool forces page
    write-backs inside the conversion."""
    return {
        "REPRO_SHARDS": str(shards),
        "REPRO_RECLUSTER": "0",
        "REPRO_WORKLOAD_MAINT": "1",
        "REPRO_WORKLOAD_V2": "1",
        "REPRO_WORKLOAD_POOL": "8",
    }


#: Failpoints aimed *inside* the conversion at open (which also
#: allocates the new tables' mid and leaf pages and the new trees'
#: nodes), each at these fractions of the hit-count window it spans.
V2_CONVERSION_POINTS = (("wal.append.pre", "die"),
                        ("wal.append.post", "die"),
                        ("wal.flush.pre", "die"),
                        ("pagefile.write.pre", "die"),
                        ("pagefile.write.torn", "torn"),
                        ("pagefile.write.post", "die"))
V2_FRACTIONS = (0.0, 0.5, 1.0)


def v2_conversion_windows(tmpdir: str, shards: int, seed: int = 1337,
                          n_ops: int = 40) -> dict:
    """``{failpoint: (0, hits)}``: the hits each point takes in the
    reopen that converts, from one fault-free child run with every point
    armed at an unreachable hit count (armed points are the ones that
    count). The counters start with that open's store, and nothing
    before the conversion appends to the log or writes a page."""
    hits_path = os.path.join(tmpdir, "hits.json")
    env = dict(os.environ)
    env.update(v2_env(shards))
    env["REPRO_WORKLOAD_HITS"] = hits_path
    env["REPRO_FAULTS"] = ";".join(
        "%s:%s:1000000000" % point for point in V2_CONVERSION_POINTS)
    proc = subprocess.run(
        [sys.executable, WORKLOAD, os.path.join(tmpdir, "calibrate.odb"),
         os.path.join(tmpdir, "calibrate.log"), str(seed), str(n_ops),
         "full"], env=env, capture_output=True, timeout=120.0)
    assert proc.returncode == 0, proc.stderr.decode()[-1500:]
    with open(hits_path) as handle:
        hits = json.load(handle)
    return {name: (0, hits[name]) for name, _action in V2_CONVERSION_POINTS}


def conversion_state(db_path: str):
    """What a crash inside the conversion at open left: every retired
    structure still in place or none, never a mix. Recovers the store
    with the conversion switched off and returns a list of problems."""
    from unittest import mock

    from repro.storage.page import PageType
    from repro.storage.store import Store
    from repro.storage.upgrade import BTREE_FORMAT_KEY

    with mock.patch.object(Store, "_upgrade_format", lambda self: None):
        store = Store(db_path)
    try:
        directories, hashed = [], []
        for info in store.catalog.clusters():
            for _heap, root in info.shards:
                with store._pool.page(root) as page:
                    directories.append(
                        page.page_type == PageType.HASH_DIRECTORY)
            hashed += [ix.kind == "hash" for ix in info.indexes.values()]
        # Old trees carry no mark of their own: the conversion's
        # transaction records that it rebuilt them.
        old = store.catalog.get_meta(BTREE_FORMAT_KEY) != 4
    finally:
        store.close()
    if old != all(directories) or old != any(hashed) or (
            not old and any(directories)):
        return ["a crash inside the conversion left a mix of old and new "
                "structures: trees %s, hash directories %r, hash indexes "
                "%r" % ("old" if old else "new", directories, hashed)]
    return []


def v2_kill_specs():
    """``(label, shards, failpoint, action, where)`` for the old-layout
    matrix. *where* is a fraction of the conversion's hit window
    (resolved against :func:`v2_conversion_windows` at run time), or a
    plain hit count (int) for the recluster points, whose first hit is
    the first recluster after the conversion."""
    specs = []
    for shards in (1, 4):
        for name, action in V2_CONVERSION_POINTS:
            for where in V2_FRACTIONS:
                specs.append(("v2-%dshard-%s@%.0f%%"
                              % (shards, name, 100 * where),
                              shards, name, action, where))
    for name in ("recluster.pre", "recluster.commit.pre"):
        specs.append(("v2-4shard-%s@1" % name, 4, name, "die", 1))
    return specs

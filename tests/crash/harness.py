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
import shutil
import subprocess
import sys

from repro.storage.faults import DIE_EXIT_CODE, KNOWN_FAILPOINTS

from .workload import CrashItem, ERROR_EXIT_CODE, generate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
#: The child that opens (so converts) a four-file fixture store.
FIXTURE_CHILD = os.path.join(HERE, "fixture_child.py")

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
              inspect=None, fixture=None) -> CycleResult:
    """Run one crash/recover/audit cycle; see the module docstring.
    *inspect*, when given, looks at the database file the child left
    before the audit reopens it, returning problems of its own. With a
    *fixture* (see :func:`place_fixture`) the workload runs on that
    four-file store, whose open converts it, and the audit also checks
    that the fixture's objects answer as they did (:func:`fixture_audit`)."""
    db_path = os.path.join(tmpdir, "crash.odb")
    oracle_path = os.path.join(tmpdir, "oracle.log")
    meta = None if fixture is None else place_fixture(fixture, db_path)
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
    if meta is not None:
        problems.extend(fixture_audit(db_path, meta))
    return CycleResult(spec, proc.returncode, acked, problems,
                       proc.stderr.decode())


# -- four-file stores (tests/storage/fixtures) --------------------------------


def place_fixture(name: str, db_path: str) -> dict:
    """Unpack fixture *name* as the store at *db_path*; returns its
    metadata (see :func:`tests.storage.fixtures.unpack`)."""
    from tests.storage.fixtures import unpack

    staging = db_path + ".unpack"
    path, meta = unpack(name, staging)
    for file in os.listdir(staging):
        os.rename(os.path.join(staging, file),
                  db_path + file[len(os.path.basename(path)):])
    shutil.rmtree(staging)
    return meta


def fixture_audit(db_path: str, meta: dict):
    """After a cycle on a fixture: the fixture's objects answer as the
    binary that wrote it said, no file besides the main one and its log
    is left, every cluster has one heap and one object table, and a
    second open converts nothing. Returns a list of problems."""
    from repro import Database
    from repro.storage.upgrade import FILES_ROOT_KEY, _split_clusters

    from tests.storage.fixtures import comparable, extra_files
    from tests.storage.test_upgrade_fold import answers

    problems = []
    for attempt in ("first", "second"):
        try:
            db = Database(db_path)
        except Exception as exc:
            return ["%s reopen failed: %s: %s"
                    % (attempt, type(exc).__name__, exc)]
        try:
            if attempt == "second" and (
                    db.events.snapshot("files_merged")
                    or db.events.snapshot("format_upgrade")):
                problems.append("a second open converted again")
            got = comparable(answers(db, meta["versioned"]))
            if got != meta["answers"]:
                problems.append("the fixture's objects answer %r, not %r"
                                % (got, meta["answers"]))
            if db.verify():
                problems.append("integrity: %s" % db.verify())
            if extra_files(db_path):
                problems.append("files left: %s" % extra_files(db_path))
            if (_split_clusters(db.store.catalog)
                    or db.store._pagefile.get_root(FILES_ROOT_KEY)):
                problems.append("a cluster still names several files")
        except Exception as exc:
            problems.append("fixture audit raised %s: %s"
                            % (type(exc).__name__, exc))
        finally:
            db.close()
    return problems


def run_fixture_cycle(tmpdir: str, fixture: str, spec: str,
                      vacuum: bool = False, pool: int = 8,
                      timeout: float = 120.0) -> CycleResult:
    """Open fixture *fixture* in a child with *spec* armed, so the kill
    falls inside the conversion the open runs (or, with *vacuum*, in a
    vacuum after it), then audit the reopened store against the
    fixture's answers (:func:`fixture_audit`)."""
    db_path = os.path.join(tmpdir, "crash.odb")
    meta = place_fixture(fixture, db_path)
    env = dict(os.environ)
    env["REPRO_FAULTS"] = spec
    proc = subprocess.run(
        [sys.executable, FIXTURE_CHILD, db_path, str(pool),
         "1" if vacuum else "0"],
        env=env, capture_output=True, timeout=timeout)
    problems = []
    if proc.returncode not in OK_EXIT_CODES:
        problems.append("child exited %d: %s"
                        % (proc.returncode, proc.stderr.decode()[-500:]))
    problems.extend(fixture_audit(db_path, meta))
    return CycleResult(spec, proc.returncode, 0, problems,
                       proc.stderr.decode())


def fixture_windows(tmpdir: str, fixture: str, points,
                    pool: int = 8) -> dict:
    """``{failpoint: (0, hits)}``: the hits each of *points* takes while
    fixture *fixture* opens, from one fault-free child run with every
    point armed at an unreachable hit count."""
    db_path = os.path.join(tmpdir, "calibrate.odb")
    place_fixture(fixture, db_path)
    hits_path = os.path.join(tmpdir, "hits.json")
    env = dict(os.environ)
    env["REPRO_FAULTS"] = ";".join(
        "%s:%s:1000000000" % point for point in points)
    proc = subprocess.run(
        [sys.executable, FIXTURE_CHILD, db_path, str(pool), "0",
         hits_path], env=env, capture_output=True, timeout=120.0)
    assert proc.returncode == 0, proc.stderr.decode()[-1500:]
    with open(hits_path) as handle:
        hits = json.load(handle)
    return {name: (0, hits[name]) for name, _action in points}


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
        if name.startswith(("vacuum.", "server.", "upgrade.")):
            # Vacuum points never fire on the default workload (it runs
            # no maintenance), the conversion's points only on an older
            # file, and socket-layer points never fire embedded (the
            # cycle would just be a fault-free run); shard_kill_specs(),
            # v2_kill_specs() and tests/crash/test_server_crash.py
            # cover them.
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


#: Environment for the maintenance cycles: the workload's deterministic
#: maintenance calls (vacuums) on.
MAINT_ENV = {"REPRO_WORKLOAD_MAINT": "1"}

#: The fixtures the merge's own kill points run on: one whose log holds
#: a loser to recover first, one with every retired layout to convert
#: after.
MERGE_FIXTURES = ("crashed4", "v2_4")


def shard_kill_specs():
    """Kill points for the stores older binaries split over four files,
    plus the vacuum points: ``(label, spec, child, fixture)``. *child*
    ``"workload"`` is a :func:`run_cycle` with the maintenance calls on,
    on *fixture* when one is named; ``"open"`` is a
    :func:`run_fixture_cycle` of *fixture*.

    * The vacuum rewrite's points, on the default one-file workload with
      its deterministic vacuums on; they fire once per maintenance call.
    * A sample of the core WAL/pagefile points while the workload runs on
      the ``crashed4`` fixture: the hits count from the open, whose
      recovery and merge run through the conversion's router, so the
      low ones land inside the merge and the high ones in the workload.
    * The merge's own points (:data:`MERGE_FIXTURES`): during the copy
      (each cluster's), after the commit and checkpoint, and after the
      root naming the files is cleared, before they are unlinked.
    """
    specs = []
    for name in ("vacuum.pre", "vacuum.commit.pre"):
        for at_hit in (1, 2, 4):
            specs.append(("%s@%d" % (name, at_hit),
                          "%s:die:%d" % (name, at_hit), "workload", None))
    for name, action in (("wal.flush.pre", "die"),
                         ("pagefile.write.pre", "die"),
                         ("pagefile.write.torn", "torn"),
                         ("wal.truncate.pre", "die"),
                         ("pagefile.sync.pre", "die")):
        for at_hit in (2, 13):
            specs.append(("4shard-%s@%d" % (name, at_hit),
                          "%s:%s:%d" % (name, action, at_hit), "workload",
                          "crashed4"))
    for fixture in MERGE_FIXTURES:
        for name, at_hit in (("upgrade.merge.copy", 1),
                             ("upgrade.merge.copy", 2),
                             ("upgrade.merge.root", 1),
                             ("upgrade.merge.unlink", 1)):
            specs.append(("merge-%s-%s@%d" % (fixture, name, at_hit),
                          "%s:die:%d" % (name, at_hit), "open", fixture))
    return specs


# -- version-2 layout cycles (EXP-22, EXP-27) ---------------------------------


def v2_env() -> dict:
    """Environment of an old-layout cycle: after its first ops the child
    rewrites the store as a version-2 binary left it and reopens it with
    the faults armed, so they fire inside the conversion that open runs
    (later maintenance calls vacuum). The small pool forces page
    write-backs inside the conversion."""
    return {
        "REPRO_WORKLOAD_MAINT": "1",
        "REPRO_WORKLOAD_V2": "1",
        "REPRO_WORKLOAD_POOL": "8",
    }


#: Failpoints aimed *inside* the conversion at open (which also
#: allocates the new tables' mid and leaf pages and the new trees'
#: nodes, folds each object's two records into one and rewrites every
#: record positionally), each at these fractions of the hit-count window
#: it spans.
V2_CONVERSION_POINTS = (("wal.append.pre", "die"),
                        ("wal.append.post", "die"),
                        ("wal.flush.pre", "die"),
                        ("pagefile.write.pre", "die"),
                        ("pagefile.write.torn", "torn"),
                        ("pagefile.write.post", "die"),
                        ("upgrade.fold", "die"),
                        ("upgrade.relayout", "die"))
V2_FRACTIONS = (0.0, 0.5, 1.0)


def v5_env() -> dict:
    """Environment of a format-5 cycle: after its first ops the child
    rewrites every object record in the dict layout of format 5 and
    reopens the store with the faults armed, so they fire inside the
    positional rewrite that open runs."""
    return {
        "REPRO_WORKLOAD_V5": "1",
        "REPRO_WORKLOAD_POOL": "8",
    }


#: Failpoints aimed inside the format 5 -> 6 rewrite at open.
V5_CONVERSION_POINTS = (("wal.append.pre", "die"),
                        ("pagefile.write.pre", "die"),
                        ("upgrade.relayout", "die"))


def conversion_windows(tmpdir: str, env: dict, points, seed: int = 1337,
                       n_ops: int = 40) -> dict:
    """``{failpoint: (0, hits)}``: the hits each of *points* takes in
    the reopen that converts, from one fault-free child run under *env*
    with every point armed at an unreachable hit count (armed points are
    the ones that count). The counters start with that open's store, and
    nothing before the conversion appends to the log or writes a page."""
    hits_path = os.path.join(tmpdir, "hits.json")
    child_env = dict(os.environ)
    child_env.update(env)
    child_env["REPRO_WORKLOAD_HITS"] = hits_path
    child_env["REPRO_FAULTS"] = ";".join(
        "%s:%s:1000000000" % point for point in points)
    proc = subprocess.run(
        [sys.executable, WORKLOAD, os.path.join(tmpdir, "calibrate.odb"),
         os.path.join(tmpdir, "calibrate.log"), str(seed), str(n_ops),
         "full"], env=child_env, capture_output=True, timeout=120.0)
    assert proc.returncode == 0, proc.stderr.decode()[-1500:]
    with open(hits_path) as handle:
        hits = json.load(handle)
    return {name: (0, hits[name]) for name, _action in points}


def v2_conversion_windows(tmpdir: str, shards: int, seed: int = 1337,
                          n_ops: int = 40) -> dict:
    """:func:`conversion_windows` of a version-2 cycle on one file, or
    :func:`fixture_windows` of the four-file ``v2_4`` fixture."""
    if shards > 1:
        return fixture_windows(tmpdir, "v2_4", V2_CONVERSION_POINTS)
    return conversion_windows(tmpdir, v2_env(), V2_CONVERSION_POINTS,
                              seed, n_ops)


def v5_conversion_windows(tmpdir: str, shards: int, seed: int = 1337,
                          n_ops: int = 40) -> dict:
    """:func:`conversion_windows` of a format-5 cycle on one file, or
    :func:`fixture_windows` of the four-file ``v5_4`` fixture."""
    if shards > 1:
        return fixture_windows(tmpdir, "v5_4", V5_CONVERSION_POINTS)
    return conversion_windows(tmpdir, v5_env(), V5_CONVERSION_POINTS,
                              seed, n_ops)


def _recovered_heads(db_path: str, inspect):
    """Recover the store with the conversion switched off and return
    ``(inspect(store), head_layouts of CrashItem)``."""
    from unittest import mock

    from repro.storage.store import Store

    from tests.storage.legacy_layouts import head_layouts

    with mock.patch.object(Store, "_upgrade_format", lambda self: None):
        store = Store(db_path)
    try:
        seen = inspect(store)
        heads = (head_layouts(store, "CrashItem")
                 if store.has_cluster("CrashItem") else (0, 0, 0))
    finally:
        store.close()
    return seen, heads


def conversion_state(db_path: str):
    """What a crash inside the conversion at open left: every retired
    structure still in place or none, never a mix. Recovers the store
    with the conversion switched off and returns a list of problems."""
    from repro.storage.page import PageType
    from repro.storage.upgrade import BTREE_FORMAT_KEY

    def structures(store):
        directories, hashed = [], []
        for info in store.catalog.clusters():
            with store._pool.page(info.directory_page) as page:
                directories.append(page.page_type == PageType.HASH_DIRECTORY)
            hashed += [ix.kind == "hash" for ix in info.indexes.values()]
        # Old trees carry no mark of their own: the conversion's
        # transaction records that it rebuilt them.
        old = store.catalog.get_meta(BTREE_FORMAT_KEY) != 4
        return directories, hashed, old

    (directories, hashed, old), heads = _recovered_heads(db_path,
                                                         structures)
    # (two-record, dict, positional) heads: all two-record before the
    # conversion's commit, all positional after it.
    if old != all(directories) or old != any(hashed) or (
            not old and any(directories)) or heads[1] or (
            all(heads) or (any(heads) and old != bool(heads[0]))):
        return ["a crash inside the conversion left a mix of old and new "
                "structures: trees %s, hash directories %r, hash indexes "
                "%r, (two-record, dict, positional) objects %r"
                % ("old" if old else "new", directories, hashed, heads)]
    return []


def relayout_state(db_path: str):
    """What a crash inside the format 5 -> 6 rewrite left: every object
    record in the dict layout or every one positional, never a mix."""
    _, heads = _recovered_heads(db_path, lambda store: None)
    if heads[0] or (heads[1] and heads[2]):
        return ["a crash inside the positional rewrite left a mix of "
                "layouts: (two-record, dict, positional) objects %r"
                % (heads,)]
    return []


def v2_kill_specs():
    """``(label, shards, failpoint, action, where)`` for the old-layout
    matrix: the one-file workload cycles, and the same points while the
    ``v2_4`` fixture, a version-2 store over four files, opens
    (*shards* 4). *where* is a fraction of the conversion's hit window
    (resolved against :func:`v2_conversion_windows` at run time), or a
    plain hit count (int) for the vacuum points, whose first hit is
    the first vacuum after the conversion."""
    specs = []
    for shards in (1, 4):
        for name, action in V2_CONVERSION_POINTS:
            for where in V2_FRACTIONS:
                specs.append(("v2-%dshard-%s@%.0f%%"
                              % (shards, name, 100 * where),
                              shards, name, action, where))
    for name in ("vacuum.pre", "vacuum.commit.pre"):
        specs.append(("v2-4shard-%s@1" % name, 4, name, "die", 1))
    return specs


def v5_kill_specs():
    """``(label, shards, failpoint, action, fraction)`` for the format-5
    matrix: every :data:`V5_CONVERSION_POINTS` entry at each fraction of
    its window in the rewrite, on one file and on the four-file ``v5_4``
    fixture."""
    return [("v5-%dshard-%s@%.0f%%" % (shards, name, 100 * where),
             shards, name, action, where)
            for shards in (1, 4)
            for name, action in V5_CONVERSION_POINTS
            for where in V2_FRACTIONS]

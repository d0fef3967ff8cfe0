"""Database — the Ode environment a program talks to.

This is the public entry point of the reproduction. It binds the paper's
linguistic facilities to the storage engine:

* ``db.create(Class)`` — the paper's ``create`` macro: make the cluster
  (type extent) for a class. Creating a persistent object *requires* its
  cluster to exist (section 2.5).
* ``db.pnew(Class, field=value, ...)`` — the paper's ``pnew``: allocate a
  persistent object, returning a live handle that doubles as the pointer.
* ``db.pdelete(ref_or_obj)`` — the paper's ``pdelete``.
* ``db.deref(oid_or_vref)`` — pointer dereference: generic references
  yield the current version, specific references a pinned (read-only if
  non-current) version.
* ``db.transaction()`` — a context manager. The paper treats a whole O++
  program as one transaction; here any block can be one. Constraints of
  updated objects are checked at commit; trigger conditions are evaluated
  at end of transaction; fired trigger actions run *after* commit, each as
  an independent transaction (weak coupling, section 6). An exception (or
  a constraint violation) aborts and rolls back everything including
  trigger bookkeeping.
* ``db.newversion(obj)`` and the version navigation in
  :mod:`repro.core.versions` (section 4).
* A virtual clock (``db.now()`` / ``db.advance_time(dt)``) driving timed
  triggers deterministically.

Storage layout per persistent object (cluster = class name):

================  =====================================================
key                record
================  =====================================================
``(serial, 0)``   version head, carrying the current version's state:
                  ``{"current": v, "chain": [v1, ...],
                  "state": {field: stored value}}``
``(serial, v)``   a non-current version ``v`` of the chain:
                  ``{"state": {field: stored value}}``
================  =====================================================

So an object with one version is one record: ``pnew`` is one put,
``pdelete`` one delete, a cold deref one directory probe and one heap
read. On disk a record is positional (:mod:`repro.storage.records`): a
fixed header, then the state's values in the order of one of the
cluster's layouts — ``tuple(state)``, registered in the catalog by the
first transaction that writes it — so field names are stored once per
cluster, not once per record. This module is the only code that builds
records (:meth:`Database._head_record`, :meth:`Database._version_record`).
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple, Type, Union)

from ..errors import (ClusterExistsError, ClusterNotFoundError,
                      ConstraintViolation, DanglingReferenceError,
                      DeadlockError, LockTimeoutError, NotPersistentError,
                      SchemaError, SnapshotConflictError, TransactionError,
                      TransientError, TransientIOError, TriggerActionError,
                      VersionError)
from ..query.optimizer import PlanCache
from ..query.stats import StatsManager
from ..storage.locks import (EXCLUSIVE, INTENT_EXCLUSIVE, INTENT_SHARED,
                             SHARED)
from ..storage.records import encode_head, encode_version
from ..storage.store import Store
from .mvcc import STORE as _MVCC_STORE
from .mvcc import MVCCManager
from .objects import OdeMeta, OdeObject, class_registry
from .oid import Oid, Vref
from .triggers import ACTIVATION_CLUSTER, FiredAction, TriggerManager

#: Safety valve for cascading trigger actions (action fires trigger fires
#: action ...); beyond this many independent transactions we stop and raise.
MAX_TRIGGER_CASCADE = 1000

Ref = Union[Oid, Vref, OdeObject]


def _abort_reason(exc: BaseException) -> str:
    """Classify an abort-triggering exception for ``txn.aborts{reason}``."""
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, LockTimeoutError):
        return "timeout"
    if isinstance(exc, ConstraintViolation):
        return "constraint"
    if isinstance(exc, SnapshotConflictError):
        return "conflict"
    return "error"


class DecodedCache:
    """Bounded LRU of decoded object images keyed by ``(cluster, serial)``.

    Each entry carries the decoded head record (which holds the current
    state) together with its ``(page_no, page_lsn)`` physical token. An
    entry is served only after :meth:`Store.tokens_valid` confirms the
    token, so correctness never depends on eager invalidation: any
    mutation of the record — including transaction abort (CLRs) and crash
    recovery — bumps the home page's LSN and the entry silently misses.
    Eager :meth:`invalidate` calls on the write paths exist for hygiene
    (they free memory sooner and avoid pointless validations), not for
    safety.

    Entries whose token carries ``lsn == 0`` are never stored (a freshly
    formatted page starts at 0, so 0 cannot distinguish versions).
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses",
                 "evictions")

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        # (cluster, serial) -> (token, head, version, state)
        #   token: (head_page, head_lsn)
        self._entries: "Dict[tuple, tuple]" = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple):
        # Single dict reads/deletes are GIL-atomic; only `put`'s eviction
        # sweep (a len check plus bulk delete) needs the lock. Keeping
        # `get`/`invalidate` lock-free keeps the deref fast path and the
        # write path (which invalidates under the object X lock) from
        # serializing on one global lock.
        return self._entries.get(key)

    def put(self, key: tuple, token: tuple, head: Dict, version: int,
            state: Dict) -> None:
        if token[1] == 0:
            return
        with self._lock:
            if len(self._entries) >= self.capacity:
                # Random-ish wholesale trim (dict order = insertion order):
                # drop the oldest half. Cheaper than per-get LRU updates,
                # and the LSN tokens make over-eviction merely a perf
                # effect.
                drop = len(self._entries) // 2 + 1
                for stale in list(self._entries)[:drop]:
                    # pop, not del: a lock-free invalidate may race the sweep
                    self._entries.pop(stale, None)
                self.evictions += drop
            self._entries[key] = (token, head, version, state)

    def invalidate(self, key: tuple) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class VersionCache:
    """Bounded cache of pinned-version materializations keyed by Vref.

    Replaces the previously unbounded ``_vcache`` dict: version-churn
    workloads (many ``newversion`` calls, each pinning read-only
    history) used to leak one live object per pinned version forever.
    Same trim strategy as :class:`DecodedCache` — insertion-order
    wholesale trim under the lock, lock-free GIL-atomic ``get`` — because
    entries are pure caches: a miss just re-materializes from the store.

    A side index ``(cluster, serial) -> {Vref}`` finds one object's
    pinned versions, so a ``pdelete`` or an abort costs O(versions of
    the objects it touched), never O(entries).
    """

    __slots__ = ("capacity", "_entries", "_by_object", "_lock", "hits",
                 "evictions")

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._entries: Dict[Vref, OdeObject] = {}
        self._by_object: Dict[Tuple[str, int], Set[Vref]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.evictions = 0

    def get(self, vref: Vref):
        obj = self._entries.get(vref)
        if obj is not None:
            self.hits += 1
        return obj

    def put(self, vref: Vref, obj: OdeObject) -> None:
        with self._lock:
            if len(self._entries) >= self.capacity:
                drop = len(self._entries) // 2 + 1
                for stale in list(self._entries)[:drop]:
                    self._drop(stale)
                self.evictions += drop
            self._entries[vref] = obj
            self._by_object.setdefault((vref.cluster, vref.serial),
                                       set()).add(vref)

    def _drop(self, vref: Vref):
        """Remove one entry (caller holds the lock); returns its object."""
        obj = self._entries.pop(vref, None)
        key = (vref.cluster, vref.serial)
        pinned = self._by_object.get(key)
        if pinned is not None:
            pinned.discard(vref)
            if not pinned:
                del self._by_object[key]
        return obj

    def pop(self, vref: Vref, default=None):
        with self._lock:
            obj = self._drop(vref)
        return default if obj is None else obj

    def versions_of(self, cluster: str, serial: int) -> List[Vref]:
        """The cached pinned versions of one object."""
        with self._lock:
            return list(self._by_object.get((cluster, serial), ()))

    def clear(self) -> None:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._by_object.clear()
            self.evictions += dropped

    def invalidate_cluster(self, cluster: str) -> int:
        """Drop every entry of *cluster* (vacuum rewrote its chains)."""
        with self._lock:
            stale = [vref for key, pinned in self._by_object.items()
                     if key[0] == cluster for vref in pinned]
            for vref in stale:
                self._drop(vref)
            self.evictions += len(stale)
        return len(stale)

    def __getitem__(self, vref: Vref) -> OdeObject:
        return self._entries[vref]

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "capacity": self.capacity,
                "hits": self.hits, "evictions": self.evictions}


def _state_key(state: Dict, fields: List[str]):
    """Index key for *fields* out of a stored state dict."""
    if len(fields) == 1:
        return state.get(fields[0])
    return tuple(state.get(f) for f in fields)


class Transaction:
    """Handle for an open transaction.

    Besides identifying the storage transaction, the handle carries the
    per-transaction bookkeeping the concurrency layer needs: the *read
    set* and *write set* of ``(cluster, serial)`` keys the transaction
    has locked (so repeated derefs skip the lock manager), the subset of
    keys *created* by this transaction, the cluster-level lock modes
    already taken, and whether the transaction performed DDL (which
    widens what an abort must invalidate).
    """

    __slots__ = ("txn_id", "db", "_done", "_begin_lsn", "read_set",
                 "write_set", "created", "_cluster_modes", "ddl",
                 "snapshot_lsn", "read_clusters", "trigger_epoch",
                 "watch", "watch_clusters")

    def __init__(self, txn_id: int, db: "Database"):
        self.txn_id = txn_id
        self.db = db
        self._done = False
        # Where this transaction's log chain starts; a commit whose chain
        # never advanced past this wrote nothing (read-only transaction).
        self._begin_lsn = db.store._journal.active.get(txn_id)
        # Read before the snapshot is taken: a trigger publish after
        # this point may have written what the snapshot cannot see.
        self.trigger_epoch = db.triggers._epoch
        self.read_set: Set[Tuple[str, int]] = set()
        self.write_set: Set[Tuple[str, int]] = set()
        self.created: Set[Tuple[str, int]] = set()
        self._cluster_modes: Set[Tuple[str, str]] = set()
        self.ddl = False
        #: MVCC snapshot: reads resolve to the newest content committed
        #: at or before this LSN (None when MVCC is disabled — then reads
        #: take S locks instead).
        self.snapshot_lsn: Optional[int] = (
            db._mvcc.begin_snapshot(txn_id) if db._mvcc_on else None)
        #: Clusters this transaction has scanned (forall iteration);
        #: writes to objects of these clusters get the write-conflict
        #: check even when the individual object was never derefed.
        self.read_clusters: Set[str] = set()
        #: While one trigger condition runs: the object keys and the
        #: clusters it reads (its watch set); None otherwise.
        self.watch: Optional[Set[Tuple[str, int]]] = None
        self.watch_clusters: Optional[Set[str]] = None

    def lock_cluster(self, locks, cluster: str, mode: str) -> None:
        """Take (once per mode) the cluster-level lock for this txn."""
        if (cluster, mode) in self._cluster_modes:
            return
        locks.acquire(self.txn_id, ("cluster", cluster), mode)
        self._cluster_modes.add((cluster, mode))

    def __repr__(self):
        return "Transaction(%d%s)" % (self.txn_id,
                                      ", done" if self._done else "")


class _Session(threading.local):
    """Per-thread transaction state.

    Each thread talking to a :class:`Database` gets its own open
    transaction handle and its own deferred-dirty map, so concurrent
    threads never observe (or clobber) each other's in-flight state.
    """

    def __init__(self):
        self.txn: Optional[Transaction] = None
        self.dirty: Dict[int, OdeObject] = {}  # id(obj) -> obj


class Database:
    """An Ode database: persistent objects, clusters, versions, triggers."""

    def __init__(self, path: str, pool_size: int = 256,
                 durability: str = "full",
                 shards: Optional[int] = None):
        """Open (creating if absent) the database stored at *path*.

        *durability* selects the commit fsync policy: ``"full"`` (fsync
        every commit), ``"group"`` (group commit — one fsync per batch)
        or ``"none"`` (only checkpoints fsync). See
        :mod:`repro.storage.wal`. *shards* splits the storage
        across N hash-ranged shards when the database is first created
        (``REPRO_SHARDS`` applies when omitted; an existing database
        keeps its creation-time count) — see
        :mod:`repro.storage.sharding`.
        """
        self.store = Store(path, pool_size=pool_size, durability=durability,
                           shards=shards)
        #: MVCC snapshot reads: transactions read as of a snapshot LSN
        #: through per-object version histories instead of taking S
        #: locks; X locks remain for write-write conflicts. Setting this
        #: False before any transaction runs restores strict-2PL shared
        #: locking — the reference the differential tests compare
        #: snapshot reads against.
        self._mvcc_on = True
        self._mvcc = MVCCManager(start_lsn=self.store._wal.end_lsn)
        self.store.on_commit = self._on_store_commit
        self.triggers = TriggerManager(self)
        #: Incremental per-cluster statistics for the cost-based optimizer.
        self.cluster_stats = StatsManager(self)
        #: Cached plans keyed on (cluster, predicate shape).
        self.plan_cache = PlanCache()
        #: Generated predicate / join-key expressions, keyed on their
        #: source text (a pure function of it: never invalidated).
        from ..query.codegen import CodegenCache
        self.codegen_cache = CodegenCache()
        #: Master switch for generated expressions on this database;
        #: off, queries evaluate the predicates' own closures.
        self.codegen_enabled = True
        #: Bumped on index DDL; outstanding cached plans become invalid.
        self._plan_epoch = 0
        #: (cluster, serial) -> live current-version object
        self._cache: Dict[tuple, OdeObject] = {}
        #: Decoded head/state images with LSN validity tokens: repeated
        #: derefs of an unchanged object skip the directory probes and
        #: ``decode_value`` entirely (see :class:`DecodedCache`).
        self._decoded = DecodedCache()
        #: Vref -> live pinned-version object (bounded; see VersionCache)
        self._vcache = VersionCache()
        #: Guards _cache/_vcache mutation (they are shared across threads;
        #: the objects inside are protected by the lock manager instead).
        self._cache_lock = threading.RLock()
        #: Per-thread open transaction + deferred-dirty map.
        self._session = _Session()
        self._clock: float = float(
            self.store.catalog.get_meta("clock", 0.0))
        self._clock_dirty = False
        self._closed = False
        #: The observability registry + event ring (owned by the store so
        #: storage components can reach them; shared verbatim here).
        self.metrics = self.store.metrics
        self.events = self.store.events
        self._register_metrics()

    def _register_metrics(self) -> None:
        from ..query import optimizer as _optimizer
        metrics = self.metrics
        decoded = self._decoded
        metrics.counter_fn("decoded.hits", lambda: decoded.hits)
        metrics.counter_fn("decoded.misses", lambda: decoded.misses)
        metrics.counter_fn("decoded.evictions", lambda: decoded.evictions)
        metrics.gauge_fn("decoded.entries", lambda: len(decoded))
        vcache = self._vcache
        metrics.counter_fn("vcache.hits", lambda: vcache.hits)
        metrics.counter_fn("vcache.evictions", lambda: vcache.evictions)
        metrics.gauge_fn("vcache.entries", lambda: len(vcache))
        mvcc = self._mvcc
        metrics.counter_fn("mvcc.resolutions", lambda: mvcc.resolutions)
        metrics.counter_fn("mvcc.conflicts", lambda: mvcc.conflicts)
        metrics.counter_fn("mvcc.index_overlay_rows",
                           lambda: mvcc.index_overlay_rows)
        metrics.gauge_fn("mvcc.histories", mvcc.history_count)
        metrics.gauge_fn("mvcc.active_snapshots", mvcc.active_snapshots)
        plan_cache = self.plan_cache
        metrics.counter_fn("plan_cache.hits", lambda: plan_cache.hits)
        metrics.counter_fn("plan_cache.misses", lambda: plan_cache.misses)
        metrics.counter_fn("plan_cache.invalidations",
                           lambda: plan_cache.invalidations)
        metrics.gauge_fn("plan_cache.entries",
                         lambda: len(plan_cache._entries))
        metrics.counter_fn("plan.builds", lambda: _optimizer.PLAN_BUILDS)
        codegen_cache = self.codegen_cache
        metrics.counter_fn("codegen.cache.hits",
                           lambda: codegen_cache.hits)
        metrics.counter_fn("codegen.cache.misses",
                           lambda: codegen_cache.misses)
        metrics.counter_fn("codegen.compile_ns",
                           lambda: codegen_cache.compile_ns)
        metrics.gauge_fn("codegen.cache.entries",
                         lambda: len(codegen_cache._entries))
        metrics.gauge_fn("txn.active",
                         lambda: len(self.store._journal.active))
        # Owned (GIL-atomic) counters: bumped directly on the txn/query
        # paths rather than sampled from component state.
        self._txn_commits = metrics.counter("txn.commits")
        self._q_mode_compiled = metrics.counter("query.exec.mode",
                                                mode="compiled")
        self._q_mode_interpreted = metrics.counter("query.exec.mode",
                                                   mode="interpreted")
        self._query_count = metrics.counter("query.count")
        self._query_slow = metrics.counter("query.slow")
        self._query_ns = metrics.histogram(
            "query.duration_ns",
            (1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10))

    def _record_query(self, kind: str, detail: str, ns: int,
                      rows: int) -> None:
        """Account one finished (traced or materialized) query.

        Called from the query layer only on paths that already know their
        wall time — tracing, ``explain analyze``, the O++ forall
        statement — so untraced streaming iteration pays nothing.
        """
        self._query_count.inc()
        self._query_ns.observe(ns)
        if ns >= self.events.slow_query_ns:
            self._query_slow.inc()
            self.events.emit("slow_query", query=kind, detail=detail,
                             ms=ns / 1e6, rows=rows)

    def forall(self, *sources, trace: bool = False):
        """Begin a :class:`~repro.query.iterate.Forall` iteration.

        Sources may be cluster handles, Ode classes, cluster names, or
        any re-iterable; classes and names resolve to this database's
        cluster handles. With *trace=True* the iteration records
        per-operator spans (see :meth:`Forall.trace`)."""
        from ..query.iterate import Forall
        resolved = []
        for source in sources:
            if isinstance(source, (str, OdeMeta)):
                resolved.append(self.cluster(source))
            else:
                resolved.append(source)
        it = Forall(*resolved)
        if trace:
            it.trace()
        return it

    # The historical single-threaded attributes survive as views over the
    # per-thread session, so the query layer (and tests) keep reading
    # ``db._txn`` / ``db._dirty`` and naturally see their own thread's
    # state.

    @property
    def _txn(self) -> Optional[Transaction]:
        return self._session.txn

    @_txn.setter
    def _txn(self, handle: Optional[Transaction]) -> None:
        self._session.txn = handle

    @property
    def _dirty(self) -> Dict[int, OdeObject]:
        return self._session.dirty

    # ------------------------------------------------------------------
    # logical locking (strict 2PL over the store's lock manager)
    # ------------------------------------------------------------------

    def _lock_for_read(self, cluster: str, serial: int) -> None:
        """Record (MVCC) or S-lock (2PL) one object read for the open txn.

        Under MVCC snapshot reads no lock is taken at all — visibility
        comes from the snapshot LSN and the version histories — but the
        read is noted in the read set so a later write to the same object
        gets the write-conflict check. With MVCC disabled this is the
        original strict-2PL path: S on the object plus IS on its cluster.

        Outside a transaction reads are unlocked either way —
        autocommitted reads see the latest committed state, which is all
        a transactionless caller can ask for.
        """
        handle = self._session.txn
        if handle is None:
            return
        watch = handle.watch
        if watch is not None:
            watch.add((cluster, serial))
        if self._mvcc_on:
            handle.read_set.add((cluster, serial))
            return
        key = (cluster, serial)
        if key in handle.read_set or key in handle.write_set:
            return
        modes = handle._cluster_modes
        if (cluster, SHARED) in modes or (cluster, EXCLUSIVE) in modes:
            # A cluster-level S (scan) or X (DDL) lock subsumes per-object
            # S locks: one lock-manager call covers the whole forall
            # instead of one per object visited.
            return
        locks = self.store.locks
        handle.lock_cluster(locks, cluster, INTENT_SHARED)
        locks.acquire(handle.txn_id, ("obj", cluster, serial), SHARED)
        handle.read_set.add(key)

    def _lock_for_write(self, cluster: str, serial: int,
                        created: bool = False,
                        full_image: bool = False,
                        lazy: bool = False,
                        loaded: Optional[list] = None) -> None:
        """X-lock one object (plus IX on its cluster) for the open txn.

        Under MVCC the grant additionally runs the first-updater-wins
        check (writing an object this transaction has *read* — directly
        or via a cluster scan — that another transaction committed to
        since our snapshot raises :class:`SnapshotConflictError`) and
        registers the object's committed pre-image with the MVCC
        histories before the first store mutation can happen. *lazy*
        marks the deferred field-write path, whose store mutation only
        happens at flush: registration skips the image load and the
        flush materializes the pre-image just before writing. A pre-image
        this call does load is also appended to *loaded*: it is the
        stored object as of now, which a delete would otherwise fetch a
        second time.
        """
        handle = self._session.txn
        if handle is None:
            return
        key = (cluster, serial)
        if key not in handle.write_set:
            if (cluster, EXCLUSIVE) in handle._cluster_modes:
                # Cluster X (DDL/vacuum) subsumes object X locks; still
                # record the write so abort invalidation stays scoped.
                handle.write_set.add(key)
            else:
                locks = self.store.locks
                handle.lock_cluster(locks, cluster, INTENT_EXCLUSIVE)
                locks.acquire(handle.txn_id, ("obj", cluster, serial),
                              EXCLUSIVE)
                handle.write_set.add(key)
            if self._mvcc_on:
                snapshot = handle.snapshot_lsn
                if (snapshot is not None and not created
                        and (key in handle.read_set
                             or cluster in handle.read_clusters)
                        and self._mvcc.committed_after(cluster, serial,
                                                       snapshot)):
                    self._mvcc.conflicts += 1
                    raise SnapshotConflictError(
                        "write to %s:%d conflicts with a commit newer "
                        "than this transaction's snapshot (lsn %d)"
                        % (cluster, serial, snapshot))
                if created:
                    # Fresh serial: the committed pre-image is "no
                    # object" by construction — skip the store probe.
                    self._mvcc.register(handle.txn_id, cluster, serial,
                                        lambda: None)
                elif lazy:
                    # Deferred field write: the store stays clean until
                    # flush, so defer the image load too. The loader is
                    # only invoked if a concurrent reader needs the
                    # pre-image before the flush fills it for free.
                    self._mvcc.register(
                        handle.txn_id, cluster, serial,
                        lambda: self._load_image(cluster, serial),
                        lazy=True)
                else:
                    self._mvcc.register(
                        handle.txn_id, cluster, serial,
                        lambda: self._load_image_into(
                            loaded, cluster, serial, full_image))
        elif self._mvcc_on and not lazy:
            # Already registered earlier in this transaction. If that
            # registration was lazy (deferred field write — the store is
            # still clean), the coming immediate mutation needs the
            # pre-image captured now; and if the mutation deletes
            # non-current version records, a partial image must grow to
            # cover the whole chain first.
            self._mvcc.register(
                handle.txn_id, cluster, serial,
                lambda: self._load_image_into(loaded, cluster, serial,
                                              full_image))
            if full_image:
                self._mvcc.upgrade_image(
                    handle.txn_id, cluster, serial,
                    lambda img: self._fill_image(cluster, serial, img))
        if created:
            handle.created.add(key)

    def _lock_cluster_scan(self, cluster: str) -> None:
        """Note (MVCC) or S-lock (2PL) a whole-cluster scan (``forall``)."""
        handle = self._session.txn
        if handle is None:
            return
        if handle.watch_clusters is not None:
            handle.watch_clusters.add(cluster)
        if self._mvcc_on:
            handle.read_clusters.add(cluster)
            return
        handle.lock_cluster(self.store.locks, cluster, SHARED)

    def _watch_cluster(self, cluster: str) -> None:
        """Note a cluster read that takes no scan lock (a count) in the
        running trigger condition's watch set."""
        handle = self._session.txn
        if handle is not None and handle.watch_clusters is not None:
            handle.watch_clusters.add(cluster)

    # ------------------------------------------------------------------
    # MVCC plumbing (snapshot visibility over the version histories)
    # ------------------------------------------------------------------

    def _on_store_commit(self, txn: int, clsn: Optional[int]) -> None:
        """Store commit hook: stamp this transaction's pre-images.

        Runs after the WAL commit record exists and before lock release.
        *clsn* is None only on the degraded trivial-commit path, where a
        writer was rolled back in memory — its pre-images are dropped as
        an abort.
        """
        if clsn is not None:
            self._mvcc.commit(txn, clsn)
        else:
            self._mvcc.abort(txn)

    def _load_image(self, cluster: str, serial: int, full: bool = False):
        """The committed image of one object: ``(head, {version: state})``
        or None when the object does not exist. Called under the object's
        X lock, so the records cannot move while being read.

        The default image is *partial* — the head, which carries the
        current version's state, and nothing else: all a field write or
        ``newversion`` can touch, so registration stays O(1) in the chain
        length. Mutations that remove non-current version records
        (``pdelete``) load the whole chain (``full=True``); pinned-version
        readers handle the partial case by falling back to the store,
        sound because old version states are immutable short of such a
        full-image delete.
        """
        head, version, state = self._load_current(cluster, serial)
        if head is None:
            return None
        states = {version: state}
        if full:
            self._fill_image(cluster, serial, (head, states))
        return (head, states)

    def _load_image_into(self, loaded: Optional[list], cluster: str,
                         serial: int, full: bool):
        """:meth:`_load_image`, also handed to the caller of
        :meth:`_lock_for_write` through *loaded*."""
        image = self._load_image(cluster, serial, full)
        if loaded is not None:
            loaded.append(image)
        return image

    def _fill_image(self, cluster: str, serial: int, img) -> None:
        """Extend a partial pre-image to the full chain, in place.

        Called (under the registry lock, before the deleting mutation)
        when a transaction that registered a partial image goes on to
        remove version records. Only versions missing from the image are
        read, from their own records — everything this transaction
        already mutated (the head and the state it carried) is in the
        image, and the rest are immutable.
        """
        head, states = img
        store = self.store
        for version in head["chain"]:
            if version not in states:
                rec = store.get(cluster, (serial, version))
                if rec is not None:
                    states[version] = rec["state"]

    def _lazy_image(self, cluster: str, serial: int, head,
                    version: int, state):
        """Pre-image for a lazily registered flush write.

        The flush already holds the old head and state (loaded for index
        maintenance); only a write through a handle on a non-current
        version costs a store read of the head here. Runs inside the registry lock via
        :meth:`MVCCManager.fill_lazy`, before the flush's store write.
        """
        if head is None:
            head = self.store.get(cluster, (serial, 0))
            if head is None:
                return None
        return (head, {version: state} if state is not None else {})

    def _materialize_snapshot(self, cluster: str, serial: int,
                              img) -> OdeObject:
        """A private, read-only materialization of a resolved image.

        Never the shared cache object (whose in-memory state may carry a
        concurrent writer's uncommitted mutations) and never cached: the
        object belongs to the resolving reader alone. Writing to it
        raises :class:`SnapshotConflictError` — the reader is looking at
        data that is (or is about to be) superseded, so a read-modify-
        write through it must retry on a fresh snapshot, not silently
        lose the concurrent update.
        """
        head, states = img
        version = head["current"]
        obj = self._materialize(Oid(cluster, serial), version,
                                dict(states[version]), readonly=True)
        obj.__dict__["_p_snapshot_stale"] = True
        return obj

    def snapshot_token(self) -> int:
        """An opaque token naming "the database as of now" for time-travel
        reads: pass it to ``ClusterHandle.as_of`` / ``Forall.as_of`` (or
        O++ ``forall ... as of``). Tokens are session-scoped (histories
        live in memory) and reach back only over recent activity; older
        tokens raise :class:`SnapshotTooOldError` rather than answer
        wrongly."""
        return self._mvcc.last_commit_lsn

    def _scan_visibility(self, cluster: str, as_of: Optional[int] = None):
        """The visibility overlay for one cluster scan, or None (2PL mode).

        The overlay holds a *live* reference to the cluster's history
        dict, so writers that register mid-scan are visible to the
        per-record check — combined with registration-before-mutation
        this means a scan that decodes a writer's uncommitted bytes
        always finds the history entry and resolves the committed
        pre-image instead.
        """
        if not self._mvcc_on:
            if as_of is not None:
                raise TransactionError(
                    "as-of reads require MVCC (this database reads "
                    "under strict 2PL)")
            return None
        if as_of is not None:
            self._mvcc.check_snapshot(as_of)
            snapshot, txn_id = as_of, -2  # never matches a real txn
        else:
            snapshot, txn_id = self._reader()
        return _ScanVis(self, cluster, self._mvcc.histories(cluster),
                        snapshot, txn_id)

    def _reader(self) -> Tuple[Optional[int], int]:
        """``(snapshot LSN, txn id)`` of the calling session's reads."""
        handle = self._session.txn
        if handle is not None:
            return handle.snapshot_lsn, handle.txn_id
        return None, -1  # autocommit: read-committed

    def _lock_cluster_ddl(self, cluster: str) -> None:
        """X-lock a whole cluster (index DDL, cluster rewrites)."""
        handle = self._session.txn
        if handle is not None:
            handle.lock_cluster(self.store.locks, cluster, EXCLUSIVE)
            handle.ddl = True

    # ------------------------------------------------------------------
    # clock (virtual time for timed triggers)
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time (seconds; starts at 0 for a new database)."""
        return self._clock

    def advance_time(self, seconds: float) -> None:
        """Advance the virtual clock; timed triggers past their deadline
        fire their timeout actions (each as an independent transaction)."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._clock += float(seconds)
        self._clock_dirty = True
        with self._implicit_txn():
            pass  # the commit pipeline persists the clock and evaluates

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Run the block as one transaction.

        Commit on normal exit (constraints checked, triggers evaluated,
        fired actions run afterwards); abort and re-raise on exception.
        """
        if self._txn is not None:
            raise TransactionError("transactions do not nest")
        txn_id = self.store.begin()
        handle = Transaction(txn_id, self)
        self._txn = handle
        try:
            yield handle
        except BaseException as exc:
            self._abort(handle, reason=_abort_reason(exc))
            raise
        fired = self._commit(handle)
        self._run_fired_actions(fired)

    def run_transaction(self, fn: Callable[[], Any], retries: int = 3,
                        backoff: float = 0.01,
                        policy: Optional["RetryPolicy"] = None) -> Any:
        """Run *fn* inside a transaction, retrying on transient failures.

        Under concurrency a transaction can be picked as a deadlock
        victim (:class:`DeadlockError`), time out on a lock
        (:class:`LockTimeoutError`), or lose a first-updater-wins race
        (:class:`SnapshotConflictError`); a flaky disk can fail a read
        with :class:`TransientIOError`. All of these subclass
        :class:`~repro.errors.TransientError` — "aborted through no
        fault of its own, run it again" — and that single isinstance
        check is the retry criterion. This helper re-runs *fn* up to
        *retries* more times with jittered exponential backoff (see
        :mod:`repro.retry`), re-raising the last error if every attempt
        fails. *fn* takes no arguments and its return value is passed
        through. Permanent failures — checksum corruption, degraded
        mode, WAL flush failure — are not transient and never retried.

        *policy* overrides the whole delay curve; the *retries*/*backoff*
        pair is kept for callers of the historical signature and builds
        an equivalent policy lazily (only once a retry actually happens,
        so the no-conflict fast path allocates nothing).
        """
        attempt = 0
        while True:
            try:
                with self.transaction():
                    return fn()
            except TransientError:
                attempt += 1
                if policy is None:
                    from ..retry import RetryPolicy
                    policy = RetryPolicy(retries=retries,
                                         base_delay=backoff)
                if attempt > policy.retries:
                    raise
                self.metrics.counter("txn.retries").inc()
                policy.sleep(policy.delay(attempt))

    def _implicit_txn(self) -> "_ImplicitTxn":
        """Join the open transaction, or wrap the block in a private one.

        Hand-rolled context manager (not ``@contextmanager``): this wraps
        every autocommitted operation, where the generator machinery is
        measurable overhead.
        """
        return _ImplicitTxn(self)

    def _commit(self, handle: Transaction) -> List[FiredAction]:
        txn = handle.txn_id
        try:
            for obj in list(self._dirty.values()):
                obj.check_constraints()
            self._flush(txn)
            clock_moved = self._clock_dirty
            if clock_moved:
                self.store.catalog.set_meta(txn, "clock", self._clock)
                self._clock_dirty = False
            # Trigger conditions are conceptually evaluated at the end of
            # each transaction (section 6); the manager re-evaluates the
            # ones this transaction's writes (or the clock) may have
            # changed. A transaction that wrote nothing cannot have
            # changed any condition, so evaluation is skipped — this is
            # what lets a side-effect-free perpetual trigger action
            # terminate instead of re-firing forever.
            if self.store._journal.active.get(txn) != handle._begin_lsn:
                fired = self.triggers.evaluate(handle, clock_moved)
            else:
                fired = []
        except BaseException as exc:
            self._abort(handle, reason=_abort_reason(exc))
            raise
        try:
            self.store.commit(txn)
        except BaseException:
            # WalFlushError path: the journal undid the transaction in
            # memory — drop its MVCC pre-images (and snapshot pin) and
            # its trigger bookkeeping the same way an abort would.
            self._mvcc.abort(txn)
            self.triggers.rollback(txn)
            raise
        self.triggers.publish(handle)
        self._txn_commits.inc()
        handle._done = True
        self._txn = None
        return fired

    def _abort(self, handle: Transaction, reason: str = "error") -> None:
        self.metrics.counter("txn.aborts", reason=reason).inc()
        # Keep the transaction's locks through the cache reload: once the
        # locks drop, another thread may start rewriting the very objects
        # we are restoring.
        self.store.abort(handle.txn_id, release_locks=False)
        # After the store rollback: readers resolving through a still-
        # pending history entry saw the pre-image, which is exactly the
        # rolled-back content, so either order is consistent.
        self._mvcc.abort(handle.txn_id)
        try:
            handle._done = True
            self._txn = None
            touched = self._touched_keys(handle)
            self._dirty.clear()
            self.triggers.rollback(handle.txn_id)
            self.cluster_stats.invalidate()
            if handle.ddl:
                # DDL changed the plan space itself; every plan is suspect.
                self.plan_cache.clear()
            else:
                for cluster in {key[0] for key in touched}:
                    self.plan_cache.invalidate_cluster(cluster)
            self._reload_cache_after_abort(touched)
        finally:
            self.store.locks.release_all(handle.txn_id)

    def _touched_keys(self, handle: Transaction) -> Set[Tuple[str, int]]:
        """Keys whose cached state the aborted *handle* may have changed:
        everything it wrote plus everything dirty-in-memory but unflushed."""
        touched = set(handle.write_set)
        for obj in self._dirty.values():
            if obj.is_persistent:
                oid = obj.oid
                touched.add((oid.cluster, oid.serial))
        return touched

    def _reload_cache_after_abort(self,
                                  touched: Set[Tuple[str, int]]) -> None:
        """Refresh live objects the aborted transaction touched.

        Only the transaction's own read/write footprint is visited — an
        abort is O(objects it touched), not O(objects resident in the
        cache). Objects that no longer exist (created inside the aborted
        transaction) are unbound: they become volatile instances again,
        keeping their in-memory field values.
        """
        with self._cache_lock:
            for key in touched:
                cluster, serial = key
                self._decoded.invalidate(key)
                obj = self._cache.get(key)
                if obj is not None:
                    head = self.store.get(cluster, (serial, 0))
                    if head is None:
                        obj.__dict__["_p_oid"] = None
                        obj.__dict__["_p_db"] = None
                        obj.__dict__["_p_version"] = 0
                        del self._cache[key]
                    else:
                        obj._p_load_state(head["state"])
                        obj.__dict__["_p_version"] = head["current"]
                for vref in self._vcache.versions_of(cluster, serial):
                    try:
                        stale = self._vcache[vref]
                    except KeyError:    # trimmed meanwhile
                        continue
                    state = self._version_state(cluster, serial,
                                                vref.version)
                    if state is None:
                        stale.__dict__["_p_oid"] = None
                        stale.__dict__["_p_db"] = None
                        stale.__dict__["_p_version"] = 0
                        self._vcache.pop(vref, None)
                    else:
                        stale._p_load_state(state)

    def _run_fired_actions(self, fired: List[FiredAction]) -> None:
        """Weak coupling: run trigger actions as independent transactions.

        Actions may fire further triggers; the cascade is processed
        breadth-first with a hard bound. The activating transaction has
        already committed when this runs, so a failing action cannot undo
        it: the failing action's *own* transaction is aborted, the rest
        of the queue still runs, and a :class:`TriggerActionError`
        carrying every action's outcome is raised at the end if anything
        failed.
        """
        queue = deque(fired)
        results: List[Tuple[str, Optional[BaseException]]] = []
        steps = 0
        while queue:
            steps += 1
            if steps > MAX_TRIGGER_CASCADE:
                raise TransactionError(
                    "trigger cascade exceeded %d actions"
                    % MAX_TRIGGER_CASCADE)
            action = queue.popleft()
            follow, exc = self._run_one_action(action)
            queue.extend(follow)
            results.append((action.description, exc))
        failed = [desc for desc, exc in results if exc is not None]
        if failed:
            raise TriggerActionError(
                "%d of %d fired trigger action(s) failed: %s"
                % (len(failed), len(results), ", ".join(failed)),
                results=results)

    def _run_one_action(
            self, action: FiredAction
    ) -> Tuple[List[FiredAction], Optional[BaseException]]:
        """Run one fired action as its own transaction.

        Returns ``(follow_on_actions, error)``; the error (if any) has
        already aborted the action's transaction and is reported, not
        raised, so the remaining queue still runs.
        """
        txn_id = self.store.begin()
        handle = Transaction(txn_id, self)
        self._txn = handle
        try:
            action.thunk()
        except Exception as exc:
            self._abort(handle, reason=_abort_reason(exc))
            return [], exc
        except BaseException as exc:
            # KeyboardInterrupt/SystemExit: abort and propagate.
            self._abort(handle, reason=_abort_reason(exc))
            raise
        try:
            return self._commit(handle), None
        except Exception as exc:  # _commit aborts internally before raising
            return [], exc

    # -- dirty tracking -------------------------------------------------------

    def _note_dirty(self, obj: OdeObject) -> None:
        self._session.dirty[id(obj)] = obj
        # Inside a transaction the write lock is taken at the moment of
        # the first field write (strict 2PL); outside one, the deferred
        # autocommit's flush locks the object instead.
        if self._session.txn is not None and obj.is_persistent:
            oid = obj.oid
            self._lock_for_write(oid.cluster, oid.serial, lazy=True)

    def _flush(self, txn: int) -> None:
        """Write every dirty object's state to its current version, which
        lives in the object's head record.

        Two passes, reads before writes: head records are small and
        share pages, so a write invalidates the decoded-cache tokens of
        every not-yet-flushed neighbour on its page — a single pass
        would force a raw re-decode per object. Reading first keeps the
        whole batch on cache hits; a final sweep re-primes the cache
        with the heads just written at their settled page LSNs, so the
        *next* transaction's flush (and any MVCC image load) hits too.
        """
        handle = self._session.txn
        todo = []
        for obj in list(self._dirty.values()):
            if not obj.is_persistent:
                continue
            oid = obj.oid
            self._lock_for_write(oid.cluster, oid.serial, lazy=True)
            version = obj.__dict__["_p_version"]
            key = (oid.cluster, oid.serial)
            head, current, old_state = self._load_current(oid.cluster,
                                                          oid.serial)
            if head is not None and current != version:
                # A handle on a version that is no longer current writes
                # that version's own record.
                head = None
                old = self.store.get(oid.cluster, (oid.serial, version))
                old_state = None if old is None else old["state"]
            if self._mvcc_on and handle is not None:
                # A lazily registered pre-image must exist before the
                # store write below; build it from the state just read
                # (the loader only runs if the image is still lazy).
                self._mvcc.fill_lazy(
                    handle.txn_id, oid.cluster, oid.serial,
                    lambda h=head, v=version, s=old_state,
                    c=oid.cluster, n=oid.serial: self._lazy_image(
                        c, n, h, v, s))
            todo.append((obj, oid, key, version, head, old_state))

        primed = []
        for obj, oid, key, version, head, old_state in todo:
            self._decoded.invalidate(key)
            new_state = obj._p_state_dict()
            if head is None:
                self.store.put(txn, oid.cluster, (oid.serial, version),
                               self._version_record(txn, oid.cluster,
                                                    oid.serial, version,
                                                    new_state))
            else:
                head = {"current": version, "chain": head["chain"],
                        "state": new_state}
                rid, _lsn = self.store.put_with_token(
                    txn, oid.cluster, (oid.serial, 0),
                    self._head_record(txn, oid.cluster, oid.serial, head))
                primed.append((key, oid.cluster, rid.page_no, head,
                               version, new_state))
            self._index_update(txn, oid.cluster, oid.serial, old_state,
                               new_state)
            self.cluster_stats.record_update(oid.cluster, old_state,
                                             new_state)
        self._dirty.clear()

        if primed:
            by_cluster: Dict[str, set] = {}
            for _key, cluster, page_no, *_rest in primed:
                by_cluster.setdefault(cluster, set()).add(page_no)
            lsns = {c: self.store.page_lsns(c, pages)
                    for c, pages in by_cluster.items()}
            for key, cluster, page_no, head, version, new_state in primed:
                self._decoded.put(key, (page_no, lsns[cluster][page_no]),
                                  head, version, new_state)

    def _head_record(self, txn: int, cluster: str, serial: int,
                     head: Dict) -> bytes:
        """The stored form of *head* (``current``, ``chain``, ``state``),
        its state's layout registered by *txn* if new. Called before the
        put that stores it: a registration takes no shard latch."""
        state = head["state"]
        layout = self.store.catalog.layout_id(txn, cluster, tuple(state))
        return encode_head(serial, head["current"], head["chain"], layout,
                           state)

    def _version_record(self, txn: int, cluster: str, serial: int,
                        version: int, state: Dict) -> bytes:
        """The stored form of non-current version *version*'s *state*."""
        layout = self.store.catalog.layout_id(txn, cluster, tuple(state))
        return encode_version(serial, version, layout, state)

    def _constraint_violated(self) -> None:
        """Hook called when a public member function's constraint check
        fails. Inside a transaction the exception aborts it; outside,
        revert the in-memory objects so the violation leaves no trace."""
        if self._txn is not None:
            return  # the propagating exception will abort the transaction
        for obj in list(self._dirty.values()):
            if obj.is_persistent:
                oid = obj.oid
                state = self._version_state(oid.cluster, oid.serial,
                                            obj.__dict__["_p_version"])
                if state is not None:
                    obj._p_load_state(state)
        self._dirty.clear()

    # ------------------------------------------------------------------
    # clusters
    # ------------------------------------------------------------------

    def create(self, cls: Union[Type[OdeObject], str],
               exist_ok: bool = False) -> None:
        """Create the cluster for *cls* (the paper's ``create`` macro).

        Ancestor clusters are created as needed, so the cluster hierarchy
        always mirrors the class hierarchy (section 2.5 / 3.1.1).
        """
        cls = self._resolve_class(cls)
        if self.store.has_cluster(cls.__name__):
            if exist_ok:
                return
            raise ClusterExistsError("cluster %r already exists"
                                     % cls.__name__)
        with self._implicit_txn() as txn:
            self._create_with_ancestors(txn, cls)

    def _create_with_ancestors(self, txn: int, cls: Type[OdeObject]) -> None:
        for parent in type(cls).parents.fget(cls):  # OdeMeta.parents
            if not self.store.has_cluster(parent.__name__):
                self._create_with_ancestors(txn, parent)
        if not self.store.has_cluster(cls.__name__):
            parents = [p.__name__ for p in type(cls).parents.fget(cls)]
            self.store.create_cluster(txn, cls.__name__, parents)
            self.cluster_stats.register_new(cls.__name__)
            handle = self._session.txn
            if handle is not None:
                handle.ddl = True  # an abort must re-check the catalog

    def has_cluster(self, cls: Union[Type[OdeObject], str]) -> bool:
        name = cls if isinstance(cls, str) else cls.__name__
        return self.store.has_cluster(name)

    def cluster(self, cls: Union[Type[OdeObject], str]):
        """Handle over the type extent of *cls* (see ClusterHandle)."""
        from .clusters import ClusterHandle
        return ClusterHandle(self, self._resolve_class(cls))

    def clusters(self) -> List[str]:
        """Names of all user clusters."""
        return [c.name for c in self.store.catalog.clusters()
                if not c.name.startswith("__")]

    def _resolve_class(self, cls: Union[Type[OdeObject], str]) -> Type[OdeObject]:
        if isinstance(cls, str):
            found = class_registry().get(cls)
            if found is None:
                raise SchemaError("no Ode class named %r is defined" % cls)
            return found
        if not isinstance(cls, OdeMeta) or cls is OdeObject:
            raise SchemaError("%r is not an Ode class" % (cls,))
        return cls

    # ------------------------------------------------------------------
    # object lifecycle
    # ------------------------------------------------------------------

    def pnew(self, cls: Union[Type[OdeObject], str], **field_values) -> OdeObject:
        """Create a persistent object (the paper's ``pnew``).

        The class's cluster must already exist — this is the paper's rule,
        and :class:`ClusterNotFoundError` enforces it.
        """
        cls = self._resolve_class(cls)
        obj = cls(**field_values)
        return self.pnew_from(obj)

    def pnew_from(self, obj: OdeObject) -> OdeObject:
        """Persist an existing volatile instance (same rules as pnew)."""
        if obj.is_persistent:
            raise SchemaError("%r is already persistent" % obj)
        cluster = type(obj).__name__
        if not self.store.has_cluster(cluster):
            raise ClusterNotFoundError(
                "cluster %r does not exist; call db.create(%s) first "
                "(the paper: 'Before creating a persistent object, the "
                "corresponding cluster must exist')" % (cluster, cluster))
        obj.check_constraints()
        with self._implicit_txn() as txn:
            serial = self.store.allocate_serial(txn, cluster)
            self._lock_for_write(cluster, serial, created=True)
            oid = Oid(cluster, serial)
            obj.__dict__["_p_oid"] = oid
            obj.__dict__["_p_db"] = self
            obj.__dict__["_p_version"] = 1
            state = obj._p_state_dict()
            self.store.put(txn, cluster, (serial, 0),
                           self._head_record(txn, cluster, serial,
                                             {"current": 1, "chain": [1],
                                              "state": state}), new=True)
            self._index_update(txn, cluster, serial, None, state)
            self.cluster_stats.record_insert(cluster, state)
            with self._cache_lock:
                self._cache[(cluster, serial)] = obj
        return obj

    def pdelete(self, ref: Ref) -> None:
        """Delete a persistent object, or one version of it.

        ``pdelete(oid_or_obj)`` removes the object and all its versions.
        ``pdelete(vref)`` removes just that version (section 4): the chain
        is relinked; deleting the current version makes the latest
        remaining version current; deleting the last version deletes the
        object.
        """
        if isinstance(ref, Vref):
            self._pdelete_version(ref)
            return
        oid = self._as_oid(ref)
        with self._implicit_txn() as txn:
            head, state = self._lock_for_delete(oid)
            if head is None:
                raise DanglingReferenceError("pdelete of missing %r" % (oid,))
            self._index_update(txn, oid.cluster, oid.serial, state, None)
            self.cluster_stats.record_delete(oid.cluster, state)
            for version in head["chain"]:
                if version != head["current"]:
                    self.store.delete(txn, oid.cluster,
                                      (oid.serial, version))
            self.store.delete(txn, oid.cluster, (oid.serial, 0))
            self._evict(oid)

    def _lock_for_delete(self, oid: Oid):
        """X-lock *oid* for a delete; returns its stored ``(head, current
        state)``, or ``(None, None)`` when it does not exist.

        The records are read once: the full pre-image the MVCC
        registration just loaded *is* the stored object (read-only here —
        snapshot readers share it). Only when nothing was loaded (2PL
        mode, or an object this transaction already wrote, whose
        registered image is the older committed one) is the head, which
        carries the current state, fetched from the store.
        """
        loaded: list = []
        self._lock_for_write(oid.cluster, oid.serial, full_image=True,
                             loaded=loaded)
        if loaded:
            if loaded[0] is None:
                return None, None
            head, states = loaded[0]
            return head, states[head["current"]]
        head = self.store.get(oid.cluster, (oid.serial, 0))
        if head is None:
            return None, None
        return head, head["state"]

    def _pdelete_version(self, vref: Vref) -> None:
        cluster, serial = vref.cluster, vref.serial
        with self._implicit_txn() as txn:
            # Pending field writes land in the current version first (as
            # in newversion), instead of being dropped with the handle.
            self._flush(txn)
            head, state = self._lock_for_delete(vref.oid)
            if head is None or vref.version not in head["chain"]:
                raise DanglingReferenceError("pdelete of missing %r" % (vref,))
            chain = [v for v in head["chain"] if v != vref.version]
            if not chain:
                self.pdelete(vref.oid)
                return
            current = head["current"]
            if current == vref.version:
                # The latest remaining version becomes current: its state
                # moves from its own record into the head.
                current = chain[-1]
                old_state = state
                state = self.store.get(cluster, (serial, current))["state"]
                self.store.delete(txn, cluster, (serial, current))
                self._index_update(txn, cluster, serial, old_state, state)
                self.cluster_stats.record_update(cluster, old_state, state)
            else:
                self.store.delete(txn, cluster, (serial, vref.version))
            self.store.put(txn, cluster, (serial, 0),
                           self._head_record(txn, cluster, serial,
                                             {"current": current,
                                              "chain": chain,
                                              "state": state}))
            self._decoded.invalidate((vref.cluster, vref.serial))
            with self._cache_lock:
                self._vcache.pop(vref, None)
                cached = self._cache.pop((vref.cluster, vref.serial), None)
            if cached is not None:
                # Re-derefing rebinds the cache to the right version.
                self._dirty.pop(id(cached), None)

    def _evict(self, oid: Oid) -> None:
        self._decoded.invalidate((oid.cluster, oid.serial))
        with self._cache_lock:
            obj = self._cache.pop((oid.cluster, oid.serial), None)
            stale_objs = [o for o in (self._vcache.pop(v) for v in
                                      self._vcache.versions_of(oid.cluster,
                                                               oid.serial))
                          if o is not None]
        if obj is not None:
            self._dirty.pop(id(obj), None)
            obj.__dict__["_p_oid"] = None
            obj.__dict__["_p_db"] = None
            obj.__dict__["_p_version"] = 0
        for stale in stale_objs:
            stale.__dict__["_p_oid"] = None
            stale.__dict__["_p_db"] = None

    # ------------------------------------------------------------------
    # dereference
    # ------------------------------------------------------------------

    def deref(self, ref: Ref, _missing_ok: bool = False) -> Optional[OdeObject]:
        """Follow a pointer: the live object for *ref*.

        Generic :class:`Oid` references track the current version; the
        same live instance is returned for repeated derefs (object
        identity). :class:`Vref` references pin a version; non-current
        versions come back read-only (footnote 16 of the paper allows
        this). Raises :class:`DanglingReferenceError` for deleted objects
        unless *_missing_ok*.
        """
        if isinstance(ref, OdeObject):
            return ref
        if isinstance(ref, Vref):
            return self._deref_version(ref, _missing_ok)
        # Under MVCC this records the read (no lock); under 2PL it takes
        # the S lock that waits out a concurrent rewrite of the cached
        # instance.
        self._lock_for_read(ref.cluster, ref.serial)
        mvcc_on = self._mvcc_on
        if mvcc_on:
            # History check *before* trusting the shared cache: when a
            # writer is in flight (or committed past our snapshot) the
            # canonical object must not be served — resolve to the
            # visible committed image instead.
            resolved = self._mvcc_check(ref.cluster, ref.serial)
            if resolved is not _MVCC_STORE:
                return self._serve_image(ref, resolved, _missing_ok)
        cached = self._cache.get((ref.cluster, ref.serial))
        if cached is not None:
            return cached
        head, version, state = self._load_current(ref.cluster, ref.serial)
        if mvcc_on:
            # Decode-then-validate: a writer may have registered (and
            # begun mutating records) between the first check and the
            # store read; registration-before-mutation guarantees this
            # re-check catches any such writer.
            resolved = self._mvcc_check(ref.cluster, ref.serial)
            if resolved is not _MVCC_STORE:
                return self._serve_image(ref, resolved, _missing_ok)
        if head is None:
            if _missing_ok:
                return None
            raise DanglingReferenceError("dangling reference %r" % (ref,))
        with self._cache_lock:
            cached = self._cache.get((ref.cluster, ref.serial))
            if cached is not None:  # another thread materialized it first
                return cached
            obj = self._materialize(ref, version, dict(state),
                                    readonly=False)
            self._cache[(ref.cluster, ref.serial)] = obj
        return obj

    def _mvcc_check(self, cluster: str, serial: int):
        """Resolve one object read against the MVCC histories.

        Returns :data:`_MVCC_STORE` (current store content / shared cache
        is correct for this reader), an image tuple, or None (no object
        visible at this snapshot).
        """
        hist = self._mvcc.lookup(cluster, serial)
        if hist is None:
            return _MVCC_STORE
        snapshot, txn_id = self._reader()
        if not self._mvcc.needs_resolve(hist, snapshot, txn_id):
            return _MVCC_STORE
        return self._mvcc.visible(hist, snapshot, txn_id)

    def _serve_image(self, ref, img, missing_ok: bool):
        if img is None:
            if missing_ok:
                return None
            raise DanglingReferenceError("dangling reference %r" % (ref,))
        return self._materialize_snapshot(ref.cluster, ref.serial, img)

    def _load_current(self, cluster: str, serial: int):
        """Decoded ``(head, current_version, state)`` for one object.

        The materialization fast path: a :class:`DecodedCache` hit costs
        one page-LSN validation (a buffer-pool hit) instead of a directory
        probe, a heap read and a ``decode_value`` of the head record.
        Served state dicts are shared — callers must treat them as
        immutable (deref copies before loading into a live object).
        Returns ``(None, 0, None)`` for a missing object.
        """
        key = (cluster, serial)
        store = self.store
        entry = self._decoded.get(key)
        if entry is not None:
            token, head, version, state = entry
            if store.tokens_valid((token,)):
                self._decoded.hits += 1
                return head, version, state
            self._decoded.invalidate(key)
        self._decoded.misses += 1
        head, rid, lsn = store.get_with_token(cluster, (serial, 0))
        if head is None:
            return None, 0, None
        version, state = head["current"], head["state"]
        self._decoded.put(key, (rid.page_no, lsn), head, version, state)
        return head, version, state

    def _version_state(self, cluster: str, serial: int,
                       version: int) -> Optional[Dict]:
        """The stored state of one version — the head's for the current
        one, the version's own record otherwise — or None when gone."""
        head = self.store.get(cluster, (serial, 0))
        if head is None or version not in head["chain"]:
            return None
        if head["current"] == version:
            return head["state"]
        rec = self.store.get(cluster, (serial, version))
        return None if rec is None else rec["state"]

    def _deref_version(self, vref: Vref,
                       missing_ok: bool) -> Optional[OdeObject]:
        self._lock_for_read(vref.cluster, vref.serial)
        if self._mvcc_on:
            resolved = self._mvcc_check(vref.cluster, vref.serial)
            if resolved is not _MVCC_STORE:
                if resolved is None:
                    if missing_ok:
                        return None
                    raise DanglingReferenceError(
                        "dangling reference %r" % (vref,))
                head, states = resolved
                state = (states.get(vref.version)
                         if vref.version in head["chain"] else None)
                if state is None and vref.version in head["chain"]:
                    # Partial image (see _load_image): the pinned state
                    # is immutable, so it lives in a later full
                    # pre-image (a delete registers the chain before
                    # mutating) or is still the store's record.
                    state = self._pinned_state_fallback(vref)
                if state is None:
                    if missing_ok:
                        return None
                    raise DanglingReferenceError(
                        "dangling reference %r" % (vref,))
                obj = self._materialize(vref.oid, vref.version,
                                        dict(state), readonly=True)
                obj.__dict__["_p_snapshot_stale"] = True
                return obj
        head = self.store.get(vref.cluster, (vref.serial, 0))
        if head is None or vref.version not in head["chain"]:
            if missing_ok:
                return None
            raise DanglingReferenceError("dangling reference %r" % (vref,))
        if head["current"] == vref.version:
            return self.deref(vref.oid, _missing_ok=missing_ok)
        cached = self._vcache.get(vref)
        if cached is not None:
            return cached
        state = self.store.get(vref.cluster, (vref.serial, vref.version))
        if state is None:
            # A concurrent delete/vacuum can remove the state record
            # between the chain-membership check above and this read;
            # that is a dangling reference, not a TypeError.
            if missing_ok:
                return None
            raise DanglingReferenceError("dangling reference %r" % (vref,))
        with self._cache_lock:
            cached = self._vcache.get(vref)
            if cached is not None:
                return cached
            obj = self._materialize(vref.oid, vref.version, state["state"],
                                    readonly=True)
            self._vcache.put(vref, obj)
        return obj

    def _pinned_state_fallback(self, vref: Vref) -> Optional[Dict]:
        """Resolve a pinned version missing from a partial pre-image.

        Order matters: a history probe first (a registered delete carries
        the state), then the store record, then the history again — if
        the record vanished between the probes, the deleter had
        registered its full pre-image before deleting, so the re-check
        finds it. A final None is a genuinely dangling version.
        """
        snapshot, txn_id = self._reader()
        hist = self._mvcc.lookup(vref.cluster, vref.serial)
        if hist is not None:
            state = self._mvcc.version_state(hist, snapshot, txn_id,
                                             vref.version)
            if state is not None:
                return state
        rec = self.store.get(vref.cluster, (vref.serial, vref.version))
        if rec is not None:
            return rec["state"]
        hist = self._mvcc.lookup(vref.cluster, vref.serial)
        if hist is not None:
            return self._mvcc.version_state(hist, snapshot, txn_id,
                                            vref.version)
        return None

    def _materialize_from_scan(self, cluster: str, serial: int,
                               batch) -> OdeObject:
        """Materialize one head of a scan batch that is not live (the
        scan loop probes the object cache itself).

        Only the head is decoded from *batch* — it carries the current
        state; older versions on the page stay bytes. Per-object locks
        are already subsumed by the scan's cluster S lock.
        """
        key = (cluster, serial)
        head = batch.head(serial)
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            obj = self._materialize(Oid(cluster, serial), head["current"],
                                    head["state"], readonly=False)
            self._cache[key] = obj
        return obj

    def _scan_current(self, cluster: str):
        """``(serial, current state)`` for every object of *cluster*, read
        from the heads of its scan batches."""
        for batch in self.store.scan_batches(cluster):
            for serial in batch.heads:
                yield serial, batch.head(serial)["state"]

    def _materialize(self, oid: Oid, version: int, state: Dict,
                     readonly: bool) -> OdeObject:
        cls = class_registry().get(oid.cluster)
        if cls is None:
            raise SchemaError(
                "no Ode class named %r is defined in this program; "
                "import or define it before dereferencing" % oid.cluster)
        obj = cls.__new__(cls)
        obj.__dict__["_p_db"] = self
        obj.__dict__["_p_oid"] = oid
        obj.__dict__["_p_version"] = version
        obj.__dict__["_p_dirty"] = False
        obj.__dict__["_p_readonly"] = readonly
        obj.__dict__["_p_loading"] = False
        obj._p_load_state(state)
        return obj

    def _as_oid(self, ref: Ref) -> Oid:
        if isinstance(ref, OdeObject):
            return ref.oid
        if isinstance(ref, Vref):
            return ref.oid
        if isinstance(ref, Oid):
            return ref
        raise NotPersistentError("%r is not a persistent reference" % (ref,))

    # ------------------------------------------------------------------
    # versioning (section 4)
    # ------------------------------------------------------------------

    def newversion(self, ref: Ref) -> Vref:
        """Create a new (current) version of the object (paper's macro).

        The previous current version becomes read-only history; a specific
        reference to the *new* current version is returned. Live generic
        handles now see the new version.
        """
        oid = self._as_oid(ref)
        with self._implicit_txn() as txn:
            self._lock_for_write(oid.cluster, oid.serial)
            # Flush pending in-memory changes into the old current version
            # first, so the copy is faithful; then one decoded-cache read
            # serves both the head and the state to copy.
            self._flush(txn)
            head, current, old_state = self._load_current(oid.cluster,
                                                          oid.serial)
            if head is None:
                raise DanglingReferenceError("newversion of missing %r"
                                             % (oid,))
            # The old current state moves out of the head into a record
            # of its own; the head goes on carrying the same state as
            # the new current version's.
            new_version = max(head["chain"]) + 1
            self.store.put(txn, oid.cluster, (oid.serial, current),
                           self._version_record(txn, oid.cluster,
                                                oid.serial, current,
                                                old_state))
            self.store.put(txn, oid.cluster, (oid.serial, 0),
                           self._head_record(
                               txn, oid.cluster, oid.serial,
                               {"current": new_version,
                                "chain": head["chain"] + [new_version],
                                "state": old_state}))
            self._decoded.invalidate((oid.cluster, oid.serial))
            cached = self._cache.get((oid.cluster, oid.serial))
            if cached is not None:
                cached.__dict__["_p_version"] = new_version
        return Vref(oid.cluster, oid.serial, new_version)

    def versions(self, ref: Ref) -> List[Vref]:
        """All versions of the object, oldest first."""
        oid = self._as_oid(ref)
        head = self._head_of(oid)
        return [Vref(oid.cluster, oid.serial, v) for v in head["chain"]]

    def current_version(self, ref: Ref) -> Vref:
        oid = self._as_oid(ref)
        head = self._head_of(oid)
        return Vref(oid.cluster, oid.serial, head["current"])

    def vprev(self, ref: Ref) -> Optional[Vref]:
        """The version preceding *ref* (None at the first)."""
        vref = self._as_vref(ref)
        chain = self._head_of(vref.oid)["chain"]
        i = chain.index(vref.version)
        if i == 0:
            return None
        return Vref(vref.cluster, vref.serial, chain[i - 1])

    def vnext(self, ref: Ref) -> Optional[Vref]:
        """The version following *ref* (None at the last)."""
        vref = self._as_vref(ref)
        chain = self._head_of(vref.oid)["chain"]
        i = chain.index(vref.version)
        if i + 1 >= len(chain):
            return None
        return Vref(vref.cluster, vref.serial, chain[i + 1])

    def vfirst(self, ref: Ref) -> Vref:
        """The oldest version of the object."""
        oid = self._as_oid(ref)
        return Vref(oid.cluster, oid.serial, self._head_of(oid)["chain"][0])

    def vlast(self, ref: Ref) -> Vref:
        """The newest version of the object."""
        oid = self._as_oid(ref)
        return Vref(oid.cluster, oid.serial, self._head_of(oid)["chain"][-1])

    def _head_of(self, oid: Oid) -> Dict:
        self._lock_for_read(oid.cluster, oid.serial)
        if self._mvcc_on:
            resolved = self._mvcc_check(oid.cluster, oid.serial)
            if resolved is not _MVCC_STORE:
                if resolved is None:
                    raise DanglingReferenceError(
                        "dangling reference %r" % (oid,))
                return resolved[0]
        head = self.store.get(oid.cluster, (oid.serial, 0))
        if head is None:
            raise DanglingReferenceError("dangling reference %r" % (oid,))
        return head

    def _as_vref(self, ref: Ref) -> Vref:
        if isinstance(ref, Vref):
            chain = self._head_of(ref.oid)["chain"]
            if ref.version not in chain:
                raise VersionError("%r names a deleted version" % (ref,))
            return ref
        if isinstance(ref, OdeObject):
            return ref.vref
        if isinstance(ref, Oid):
            return self.current_version(ref)
        raise NotPersistentError("%r is not a persistent reference" % (ref,))

    # ------------------------------------------------------------------
    # secondary indexes
    # ------------------------------------------------------------------

    def create_index(self, cls: Union[Type[OdeObject], str], field,
                     kind: str = "btree", unique: bool = False) -> None:
        """Index *field* of *cls*'s cluster; existing objects are indexed.

        *field* may be a tuple of field names for a composite index
        (keyed on the value tuple, useful for equality-on-prefix plus
        range queries). Indexes serve the query optimizer and are
        maintained on every flush/delete.
        """
        cls = self._resolve_class(cls)
        cluster = cls.__name__
        fields = list(field) if isinstance(field, (tuple, list)) else [field]
        for fname in fields:
            if fname not in cls._ode_fields:
                raise SchemaError("%s has no field %r" % (cluster, fname))
        with self._implicit_txn() as txn:
            self._lock_cluster_ddl(cluster)
            info = self.store.create_index(txn, cluster, field, kind=kind,
                                           unique=unique)
            for serial, state in self._scan_current(cluster):
                self.store.index_insert(
                    txn, cluster, info.field,
                    _state_key(state, info.fields), serial)
            # Index DDL changes the plan space: invalidate cached plans
            # and rebuild exact statistics (the new field needs tracking).
            self._plan_epoch += 1
            self.cluster_stats.analyze(cluster)

    def _indexed_fields(self, cluster: str) -> Dict[str, Any]:
        if not self.store.has_cluster(cluster):
            return {}
        return self.store.indexes_on(cluster)

    def _index_update(self, txn: int, cluster: str, serial: int,
                      old_state: Optional[Dict],
                      new_state: Optional[Dict]) -> None:
        """Move *serial*'s index entries from the keys of the stored
        *old_state* to those of *new_state*; None on either side is an
        insert or a delete."""
        for name, info in self._indexed_fields(cluster).items():
            old_value = (None if old_state is None
                         else _state_key(old_state, info.fields))
            new_value = (None if new_state is None
                         else _state_key(new_state, info.fields))
            if (old_state is not None and new_state is not None
                    and old_value == new_value):
                continue
            if old_state is not None:
                self.store.index_delete(txn, cluster, name, old_value,
                                        serial)
            if new_state is not None:
                self.store.index_insert(txn, cluster, name, new_value,
                                        serial)

    # ------------------------------------------------------------------
    # maintenance & introspection
    # ------------------------------------------------------------------

    def vacuum(self, cls: Union[Type[OdeObject], str, None] = None) -> Dict:
        """Compact cluster storage (see :meth:`Store.vacuum`).

        With *cls* vacuum one cluster; without, every user cluster.
        Pending in-memory changes are flushed first so nothing is lost.
        """
        if self._dirty:
            with self._implicit_txn():
                pass
        # A vacuum rewrites every record of the cluster into new pages;
        # the old tokens all die at once, so wholesale clearing beats
        # per-key invalidation. Pinned-version materializations of the
        # rewritten chains are dropped too (counted as evictions) — a
        # later deref re-pins from the new records.
        self._decoded.clear()
        if cls is not None:
            name = cls if isinstance(cls, str) else cls.__name__
            result = {name: self.store.vacuum(name)}
            self._vcache.invalidate_cluster(name)
            return result
        result = {name: self.store.vacuum(name) for name in self.clusters()}
        self._vcache.clear()
        return result

    def verify(self) -> List[str]:
        """Run the storage integrity checker plus object-layer checks.

        Object-layer checks: every version head's ``current`` appears in
        its ``chain``, the head carries the current state, and every other
        version in the chain has a state record. Returns the list of
        problems (empty = consistent).
        """
        problems = self.store.verify_integrity()
        for name in self.clusters():
            for batch in self.store.scan_batches(name):
                for serial in batch.heads:
                    head = batch.head(serial)
                    chain, current = head["chain"], head["current"]
                    if current not in chain:
                        problems.append(
                            "%s:%d: current version %d not in chain %r"
                            % (name, serial, current, chain))
                    if "state" not in head:
                        problems.append("%s:%d: head carries no state"
                                        % (name, serial))
                    for v in chain:
                        if (v != current and
                                self.store.get(name, (serial, v)) is None):
                            problems.append(
                                "%s:%d: chain version %d has no state "
                                "record" % (name, serial, v))
        return problems

    def scrub(self) -> Dict[str, Any]:
        """Checksum-verify every allocated page's on-disk image.

        Background-maintenance / CLI entry point (``repro scrub``); see
        :meth:`Store.scrub`. Bad pages are quarantined and flip the
        database into read-only degraded mode; :meth:`repair` (or fixing
        the disk and reopening) clears it.
        """
        if self.store.degraded is None:
            # Flush and checkpoint first: a dirty frame's disk image is
            # legitimately stale and the scrub would have to skip it.
            if self._dirty:
                with self._implicit_txn():
                    pass
            self.store.checkpoint()
        return self.store.scrub()

    @property
    def degraded(self) -> Optional[str]:
        """Why the database is read-only, or ``None`` when healthy."""
        return self.store.degraded

    @property
    def faults(self):
        """The storage :class:`~repro.storage.faults.FaultInjector`.

        Test/crash-harness hook: ``db.faults.arm("wal.flush.fsync",
        "error")`` makes the next log fsync fail, and so on — see
        :mod:`repro.storage.faults` for the failpoint catalogue.
        """
        return self.store.faults

    def repair(self) -> Dict[str, Any]:
        """Salvage corruption-hit clusters and leave the database writable.

        Wraps :meth:`Store.repair_quarantined` with the object-layer
        aftermath the store cannot do itself: version chains of salvaged
        clusters are mended (versions whose state records were lost are
        pruned; a lost head is rebuilt from the newest surviving version)
        and secondary indexes —
        recreated empty by the salvage — are repopulated from the
        surviving current versions. Clears degraded mode on success.
        Raises :class:`~repro.errors.StorageError` if the WAL has failed
        (only a close-and-reopen recovers that).
        """
        report = self.store.repair_quarantined()
        for cluster in report["clusters"]:
            if cluster.startswith("__"):
                continue  # internal clusters don't use the version layout
            fixes = self._repair_cluster_objects(cluster)
            report["clusters"][cluster].update(fixes)
        # The salvage rewrote records wholesale; every cache is suspect.
        self._decoded.clear()
        self.plan_cache.clear()
        with self._cache_lock:
            self._cache.clear()
            self._vcache.clear()
        for cluster in report["clusters"]:
            if not cluster.startswith("__"):
                self.cluster_stats.analyze(cluster)
        self.events.emit("db_repair", clusters=sorted(report["clusters"]),
                         leaked_pages=report.get("leaked_pages", 0))
        return report

    def _repair_cluster_objects(self, cluster: str) -> Dict[str, int]:
        """Mend version chains and rebuild index entries after a salvage."""
        infos = self.store.indexes_on(cluster)
        chains_fixed = 0
        index_entries = 0
        with self._implicit_txn() as txn:
            self._lock_cluster_ddl(cluster)
            heads: Dict[int, Dict] = {}
            states: Dict[int, set] = {}
            for batch in self.store.scan_batches(cluster):
                for serial, version in filter(None, batch.keys):
                    if version == 0:
                        heads[serial] = batch.head(serial)
                    else:
                        states.setdefault(serial, set()).add(version)
            for serial, versions in states.items():
                if serial not in heads:
                    # Orphan versions (their head was lost): the newest
                    # becomes current and moves into a new head.
                    current = max(versions)
                    versions.discard(current)
                    heads[serial] = {
                        "current": current,
                        "chain": sorted(versions) + [current],
                        "state": self.store.get(
                            cluster, (serial, current))["state"]}
                    self.store.delete(txn, cluster, (serial, current))
                    self.store.put(txn, cluster, (serial, 0),
                                   self._head_record(txn, cluster, serial,
                                                     heads[serial]))
                    chains_fixed += 1
            for serial, head in heads.items():
                # The head carries its current state, so the object
                # survives; versions whose records were lost are pruned.
                have = states.get(serial, set())
                current = head["current"]
                chain = [v for v in head["chain"]
                         if v in have and v != current] + [current]
                if chain != head["chain"]:
                    head["chain"] = chain
                    self.store.put(txn, cluster, (serial, 0),
                                   self._head_record(txn, cluster, serial,
                                                     head))
                    chains_fixed += 1
                for version in have - set(chain):
                    self.store.delete(txn, cluster, (serial, version))
            if infos:
                for serial, head in heads.items():
                    for name, info in infos.items():
                        self.store.index_insert(
                            txn, cluster, name,
                            _state_key(head["state"], info.fields),
                            serial)
                        index_entries += 1
        return {"chains_fixed": chains_fixed,
                "index_entries_rebuilt": index_entries}

    def analyze(self, cls: Union[Type[OdeObject], str, None] = None) -> Dict:
        """Rebuild optimizer statistics exactly by scanning clusters.

        With *cls* analyze one cluster; without, every user cluster.
        Returns the refreshed statistics snapshot. Cached plans are
        dropped so the next query re-prices with the new numbers.
        """
        if self._dirty:
            with self._implicit_txn():
                pass
        names = ([cls if isinstance(cls, str) else cls.__name__]
                 if cls is not None else self.clusters())
        for name in names:
            if not self.store.has_cluster(name):
                raise ClusterNotFoundError("no cluster named %r" % name)
            self.cluster_stats.analyze(name)
        self.plan_cache.clear()
        return self.cluster_stats.snapshot()

    def stats(self) -> Dict[str, Any]:
        """Runtime counters: buffer pool, WAL, plan cache, statistics.

        The observability companion to :meth:`schema` — everything here
        is about *how* the engine is running, not what is stored.
        """
        store_stats = self.store.stats()
        fragmentation = {
            name: self.store.fragmentation(name)
            for name in self.clusters()
        }
        pool = store_stats["pool"]
        lookups = pool["hits"] + pool["misses"]
        buffer = dict(pool)
        buffer["hit_ratio"] = (pool["hits"] / lookups) if lookups else 0.0
        out = {
            # Canonical component namespaces.
            "buffer": buffer,
            "page_cache": store_stats["page_cache"],
            "scan": store_stats["scan"],
            "decoded_cache": self._decoded.stats(),
            "vcache": self._vcache.stats(),
            "mvcc": self._mvcc.stats(),
            "fragmentation": fragmentation,
            "directory": {name: frag["directory"]
                          for name, frag in fragmentation.items()},
            "wal": {
                "appends": store_stats["wal_appends"],
                "syncs": store_stats["wal_syncs"],
                "flush_calls": store_stats["wal_flush_calls"],
                "group_deferrals": store_stats["wal_group_deferrals"],
                "durability": store_stats["durability"],
            },
            "plan_cache": self.plan_cache.stats(),
            "codegen": self.codegen_cache.stats(),
            "clusters": self.cluster_stats.snapshot(),
            "locks": store_stats["locks"],
            "txn": {
                "commits": self._txn_commits.value,
                "aborts": self.metrics.get("txn.aborts") or 0,
                "active": len(self.store._journal.active),
            },
            "query": {
                "count": self._query_count.value,
                "slow": self._query_slow.value,
            },
            "triggers": self.triggers.stats(),
            # O++ statement caches, summed over every interpreter
            # (server sessions included) on this database.
            "opp": {
                "stmt_cache_hits":
                    self.metrics.get("opp.stmt_cache.hits") or 0,
                "stmt_cache_misses":
                    self.metrics.get("opp.stmt_cache.misses") or 0,
            },
            "events": {
                "ring": len(self.events),
                "dropped": self.events.dropped,
            },
            "pages": store_stats["pages"],
            "shards": store_stats["shards"],
            "storage": store_stats["storage_health"],
        }
        # Compatibility shim: older tooling parsed --stats output keyed
        # by "buffer_pool"; keep it as an alias of the canonical dict.
        out["buffer_pool"] = out["buffer"]
        return out

    def set_durability(self, mode: str, group_size: Optional[int] = None,
                       group_window: Optional[float] = None) -> None:
        """Switch the commit fsync policy at runtime (``"full"``,
        ``"group"`` or ``"none"``; see :mod:`repro.storage.wal`)."""
        self.store.set_durability(mode, group_size, group_window)

    @property
    def durability(self) -> str:
        return self.store.durability

    def schema(self) -> Dict[str, Dict]:
        """Describe every user cluster: fields, parents, indexes, count."""
        out: Dict[str, Dict] = {}
        for name in self.clusters():
            info = self.store.cluster_info(name)
            cls = class_registry().get(name)
            fields = {}
            constraints: List[str] = []
            triggers: List[str] = []
            if cls is not None:
                fields = {fname: type(field).__name__
                          for fname, field in cls._ode_fields.items()}
                constraints = [cname for cname, _ in cls._ode_constraints]
                triggers = list(cls._ode_triggers)
            count = sum(len(batch.heads)
                        for batch in self.store.scan_batches(name))
            out[name] = {
                "parents": list(info.parents),
                "fields": fields,
                "constraints": constraints,
                "triggers": triggers,
                "indexes": {f: ix.kind for f, ix in info.indexes.items()},
                "objects": count,
            }
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush pending changes and checkpoint the storage engine."""
        with self._implicit_txn() as txn:
            self.cluster_stats.persist_all(txn)
        self.store.checkpoint()

    def close(self) -> None:
        """Flush, checkpoint and close the database."""
        if self._closed:
            return
        if self._txn is not None:
            raise TransactionError("close() inside an open transaction")
        if ((self._dirty or self.cluster_stats.dirty())
                and self.store.degraded is None):
            # In degraded mode nothing can be flushed; the store's close
            # preserves the durable prefix instead.
            with self._implicit_txn() as txn:
                self.cluster_stats.persist_all(txn)
        if len(self.events):
            try:
                self.events.save(str(self.store.path) + ".events")
            except OSError:
                pass  # an unwritable sidecar must not block close()
        # store.close() quiesces the scan gate before its final
        # checkpoint: in-flight scans drain first and
        # late-arriving scans fail cleanly instead of racing the page
        # files closing. (The stats flush above must run *before* the
        # quiesce — its commit may evaluate triggers, which scan.)
        self.store.close()
        self._cache.clear()
        self._vcache.clear()
        self._decoded.clear()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            if self._txn is None:
                self.close()
            else:
                self.store.close()

    def __repr__(self) -> str:
        return "Database(%r)" % self.store.path


class _ScanVis:
    """Per-scan MVCC visibility overlay for one cluster.

    The scan loop (``ClusterHandle._walk``, behind every scan that
    materializes, counts or lists oids) consults it per head record:
    serials with an active history entry that matters for this reader
    (``needs``) are resolved to the image visible to it (committed image
    at the snapshot, own writes from the store, invisible objects
    skipped); everything else takes the unchanged fast path, with the
    serial noted in ``seen`` so the walk's last pass can resurrect
    objects whose records were deleted from the store mid-scan without
    double-yielding anything the page walk already produced. Index plans
    use the same overlay the other way round: they ask for the
    :meth:`dirty` serials up front and :meth:`materialize` exactly those.
    """

    __slots__ = ("db", "cluster", "hists", "hget", "snapshot", "txn_id",
                 "seen")

    def __init__(self, db: Database, cluster: str, hists,
                 snapshot: Optional[int], txn_id: int):
        self.db = db
        self.cluster = cluster
        self.hists = hists
        self.hget = hists.get
        self.snapshot = snapshot
        self.txn_id = txn_id
        self.seen: Set[int] = set()

    def needs(self, hist) -> bool:
        return self.db._mvcc.needs_resolve(hist, self.snapshot, self.txn_id)

    def batch_clean(self) -> bool:
        """May a just-decoded batch skip the per-head history checks?

        Safe to call once per batch *after* its records are decoded:
        registration-before-mutation means any writer whose uncommitted
        bytes could have been decoded is registered (pending) by now, and
        a commit newer than the snapshot shows in the cluster's max
        commit LSN — either flips :meth:`MVCCManager.cluster_dirty`. With
        the cluster clean, ``needs_resolve`` is False for every history
        (the reader's own pending writes included), so the whole batch
        takes the unchecked fast path.
        """
        return not self.db._mvcc.cluster_dirty(self.cluster, self.snapshot,
                                               self.txn_id)

    def dirty(self) -> Set[int]:
        """The serials that make :meth:`batch_clean` false for this
        reader — what an index plan overlays on its candidates."""
        return self.db._mvcc.dirty_serials(self.cluster, self.snapshot,
                                           self.txn_id)

    def materialize(self, serial: int) -> Optional[OdeObject]:
        """Resolve one history-flagged serial; None = skip (invisible or
        already yielded)."""
        seen = self.seen
        if serial in seen:
            return None
        seen.add(serial)
        img = _MVCC_STORE
        hist = self.hget(serial)
        if hist is not None:
            img = self.db._mvcc.visible(hist, self.snapshot, self.txn_id)
            if img is None:
                return None
        return self.resolve(serial, img)

    def resolve(self, serial: int, img) -> Optional[OdeObject]:
        """The object behind a visible image of *serial*: a private
        materialization of a committed image, or — own write, or the
        writer finished in our favour — current store content, which the
        deref path re-resolves defensively."""
        if img is _MVCC_STORE:
            return self.db.deref(Oid(self.cluster, serial),
                                 _missing_ok=True)
        return self.db._materialize_snapshot(self.cluster, serial, img)


class _ImplicitTxn:
    """Context manager behind :meth:`Database._implicit_txn`."""

    __slots__ = ("_db", "_handle", "_joined")

    def __init__(self, db: Database):
        self._db = db

    def __enter__(self) -> int:
        db = self._db
        if db._txn is not None:
            self._joined = True
            return db._txn.txn_id
        self._joined = False
        txn_id = db.store.begin()
        self._handle = Transaction(txn_id, db)
        db._txn = self._handle
        return txn_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._joined:
            return False
        db = self._db
        if exc_type is not None:
            db._abort(self._handle, reason=_abort_reason(exc))
            return False
        fired = db._commit(self._handle)
        db._run_fired_actions(fired)
        return False

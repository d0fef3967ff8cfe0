"""Cluster handles — iterating type extents (sections 2.5, 3.1.1).

All persistent objects of a type form its *cluster*; clusters mirror the
inheritance hierarchy. ``db.cluster(Person)`` returns a handle over the
``Person`` extent:

* iterating the handle visits the objects whose *exact* class is Person;
* ``db.cluster(Person).deep()`` — the paper's ``person*`` — visits the
  whole hierarchy: Person objects plus every object of a class derived
  from Person, which enables the income-averaging program of 3.1.1
  (``forall p in person*``) with ``isinstance`` playing the paper's
  ``p is persistent student *`` type test.

Iteration visits objects inserted into the cluster during the iteration
(the section 3.2 fixpoint property); for deep iteration this holds within
each member cluster.
"""

from __future__ import annotations

from typing import Iterator, List, Type

from .mvcc import STORE as _MVCC_STORE
from .objects import OdeObject, class_registry
from .oid import Oid


class ClusterHandle:
    """Live view over the extent of one Ode class."""

    def __init__(self, db, cls: Type[OdeObject]):
        self.db = db
        self.cls = cls
        self.name = cls.__name__

    @property
    def exists(self) -> bool:
        return self.db.store.has_cluster(self.name)

    # -- iteration ------------------------------------------------------------

    def __iter__(self) -> Iterator[OdeObject]:
        """Objects of exactly this cluster (current versions), as live
        objects. Pending in-memory changes are flushed first when a
        transaction is open, so the iteration sees them."""
        return self._iter_one(self.name)

    def deep(self) -> "DeepView":
        """The paper's ``cluster*``: this extent and all derived extents.

        Returns a re-iterable view (so it can feed joins), not a one-shot
        generator.
        """
        return DeepView(self)

    def _iter_one(self, cluster_name: str) -> Iterator[OdeObject]:
        for batch in self._iter_batches_one(cluster_name):
            yield from batch

    def iter_batches(self) -> Iterator[List[OdeObject]]:
        """Page-at-a-time batches of live objects (the scan fast path).

        Each yielded list holds the objects whose version heads share one
        heap page. The query layer's full-scan plan consumes these so the
        compiled residual filter runs across a batch at a time.
        """
        return self._iter_batches_one(self.name)

    def as_of(self, token: int) -> "AsOfHandle":
        """Time-travel view of this extent as of *token* (an opaque value
        from :meth:`Database.snapshot_token`). Iterating it yields the
        committed state of each object at that moment; objects created
        later are invisible, objects deleted later reappear. Requires
        MVCC; tokens older than the retention window raise
        :class:`~repro.errors.SnapshotTooOldError`."""
        return AsOfHandle(self, int(token))

    def _iter_batches_one(self, cluster_name: str,
                          as_of=None) -> Iterator[List[OdeObject]]:
        db = self.db
        if not db.store.has_cluster(cluster_name):
            return
        if db._txn is not None and db._dirty:
            db._flush(db._txn.txn_id)
        vis = db._scan_visibility(cluster_name, as_of)
        if as_of is None:
            # Under MVCC this only notes the cluster in the transaction's
            # read set (no lock); as-of reads are not the transaction's
            # own reads and must not create write-write conflicts.
            db._lock_cluster_scan(cluster_name)
        # Page-at-a-time batches: each version head carries its current
        # state, so every object materializes from one decode of its own
        # batch — and an object already live costs no decode at all.
        # Under MVCC the per-record history check replaces the cluster S
        # lock.
        cached = db._cache.get
        materialize = db._materialize_from_scan
        for batch, plain, flagged in self._walk(cluster_name, vis):
            objs = []
            append = objs.append
            for serial in plain:
                obj = cached((cluster_name, serial))
                if obj is None:
                    obj = materialize(cluster_name, serial, batch)
                append(obj)
            for serial, img in flagged:
                obj = vis.resolve(serial, img)
                if obj is not None:
                    append(obj)
            if objs:
                yield objs

    def _walk(self, name: str, vis):
        """The MVCC scan overlay over one cluster, materializing nothing.

        Yields ``(batch, plain, flagged)`` per heap page: *plain* serials
        are this reader's view as stored (materialize them from *batch*),
        *flagged* ``(serial, image)`` pairs were resolved through their
        history (``vis.resolve`` turns one into an object); serials that
        are invisible, or that an earlier page already produced (a
        relocated record), are dropped. A last ``(None, (), flagged)``
        resurrects objects visible at the snapshot whose store records
        are gone — deleted after it — which no page can have produced.
        *vis* None (2PL: the cluster S lock covers the scan) is every
        head of every page.
        """
        store = self.db.store
        if vis is None:
            for batch in store.scan_batches(name):
                yield batch, batch.heads, ()
            return
        visible = self.db._mvcc.visible
        seen, hget, needs = vis.seen, vis.hget, vis.needs
        snapshot, txn_id = vis.snapshot, vis.txn_id
        for batch in store.scan_batches(name):
            plain = batch.heads
            if not seen.isdisjoint(plain):  # relocated records: met before
                plain = [serial for serial in plain if serial not in seen]
            seen.update(plain)
            flagged = ()
            # Checked after the batch's bytes are read (see batch_clean):
            # a clean cluster skips the two per-head history probes.
            if not vis.batch_clean():
                heads, plain, flagged = plain, [], []
                for serial in heads:
                    hist = hget(serial)
                    if hist is None or not needs(hist):
                        plain.append(serial)
                        continue
                    img = visible(hist, snapshot, txn_id)
                    if img is not None:  # None: created after the snapshot
                        flagged.append((serial, img))
            yield batch, plain, flagged
        gone = []
        for serial, hist in list(vis.hists.items()):
            if serial in seen:
                continue
            seen.add(serial)
            img = visible(hist, snapshot, txn_id)
            if img is None or img is _MVCC_STORE:
                continue
            # A record still in the store was visited (or skipped as
            # invisible) by the page walk itself.
            if not store.exists(name, (serial, 0)):
                gone.append((serial, img))
        if gone:
            yield None, (), gone

    def hierarchy(self) -> List[str]:
        """This cluster plus all transitively derived cluster names.

        Derivation is read from the catalog (persisted parent links), so
        extents created by other programs are included even if their
        classes are not imported here.
        """
        names = [self.name]
        seen = {self.name}
        i = 0
        while i < len(names):
            current = names[i]
            i += 1
            if self.db.store.has_cluster(current):
                for child in self.db.store.catalog.children_of(current):
                    if child.name not in seen:
                        seen.add(child.name)
                        names.append(child.name)
        return names

    # -- conveniences ------------------------------------------------------------

    def count(self, deep: bool = False, as_of=None) -> int:
        """Number of objects in the extent (heads only, versions uncounted).

        Served from the incrementally-maintained cluster statistics when
        they are exact (tracked since the cluster was empty, or rebuilt by
        ``db.analyze()``) and no concurrent writer has touched the cluster
        relative to this reader's snapshot; otherwise counted by scanning
        through the visibility overlay."""
        db = self.db
        total = 0
        names = self.hierarchy() if deep else [self.name]
        for name in names:
            if not db.store.has_cluster(name):
                continue
            if as_of is None:
                db._watch_cluster(name)
            vis = db._scan_visibility(name, as_of)
            if vis is not None and vis.batch_clean():
                # No in-flight writer and no commit newer than the
                # snapshot: store content is exactly the snapshot.
                vis = None
            if vis is None:
                stats = db.cluster_stats.get(name)
                if stats is not None and stats.exact:
                    total += stats.count
                    continue
            total += sum(len(plain) + len(flagged)
                         for _, plain, flagged in self._walk(name, vis))
        return total

    def oids(self, deep: bool = False, as_of=None) -> Iterator[Oid]:
        """Object ids in the extent, without materialising the objects."""
        db = self.db
        names = self.hierarchy() if deep else [self.name]
        for name in names:
            if not db.store.has_cluster(name):
                continue
            if as_of is None:
                db._watch_cluster(name)
            vis = db._scan_visibility(name, as_of)
            for _, plain, flagged in self._walk(name, vis):
                for serial in plain:
                    yield Oid(name, serial)
                for serial, _ in flagged:
                    yield Oid(name, serial)

    def __repr__(self) -> str:
        return "ClusterHandle(%s)" % self.name


class DeepView:
    """Re-iterable view over a cluster hierarchy (the paper's ``name*``)."""

    def __init__(self, handle: ClusterHandle):
        self.handle = handle

    def __iter__(self) -> Iterator[OdeObject]:
        for name in self.handle.hierarchy():
            for obj in self.handle._iter_one(name):
                yield obj

    def iter_batches(self) -> Iterator[List[OdeObject]]:
        """Page-at-a-time batches across the whole hierarchy."""
        for name in self.handle.hierarchy():
            yield from self.handle._iter_batches_one(name)

    def as_of(self, token: int) -> "AsOfHandle":
        """Time-travel view over the whole hierarchy as of *token*."""
        return AsOfHandle(self.handle, int(token), deep=True)

    def count(self) -> int:
        return self.handle.count(deep=True)

    def __repr__(self) -> str:
        return "DeepView(%s*)" % self.handle.name


class AsOfHandle:
    """Time-travel view of an extent at a snapshot token (re-iterable).

    Produced by :meth:`ClusterHandle.as_of` / :meth:`DeepView.as_of`; the
    token comes from :meth:`Database.snapshot_token`. Iteration yields
    private read-only materializations of the committed state as of the
    token — writing through them raises
    :class:`~repro.errors.SnapshotConflictError`. Not a
    :class:`ClusterHandle`, so the query optimizer always full-scans it
    (index contents describe the present, not the past).
    """

    def __init__(self, handle: ClusterHandle, token: int,
                 deep: bool = False):
        self.handle = handle
        self.db = handle.db
        self.cls = handle.cls
        self.name = handle.name
        self.token = token
        self._deep = deep

    def _names(self) -> List[str]:
        return self.handle.hierarchy() if self._deep else [self.name]

    def __iter__(self) -> Iterator[OdeObject]:
        for batch in self.iter_batches():
            yield from batch

    def iter_batches(self) -> Iterator[List[OdeObject]]:
        for name in self._names():
            yield from self.handle._iter_batches_one(name,
                                                     as_of=self.token)

    def deep(self) -> "AsOfHandle":
        return AsOfHandle(self.handle, self.token, deep=True)

    def count(self) -> int:
        return self.handle.count(deep=self._deep, as_of=self.token)

    def oids(self) -> Iterator[Oid]:
        return self.handle.oids(deep=self._deep, as_of=self.token)

    def __repr__(self) -> str:
        star = "*" if self._deep else ""
        return "AsOfHandle(%s%s @ %d)" % (self.name, star, self.token)

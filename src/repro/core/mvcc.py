"""In-memory MVCC: snapshot visibility over the version-chain store.

The storage layout already keeps every object as a version head that
carries the current state plus one record per older version (the paper's
section 4 machinery) — what it lacks for
multi-version *concurrency* is knowing which record contents were
committed when. This module supplies that, without any on-disk format
change: writers register a **pre-image** of each object the first time a
transaction touches it (before the first store mutation), commit stamps
those pre-images with the transaction's commit LSN, and readers resolve
``(cluster, serial)`` to the newest content committed at or before their
snapshot LSN.

The protocol that makes record-level reads airtight without read locks:

* a writer registers its pre-image (under the object's X lock) **before**
  its first store mutation of that object;
* a reader checks the history **after** decoding record bytes (or before
  trusting a shared cached object).

If the reader decoded uncommitted bytes, the registration necessarily
preceded the decode, so the history check catches it and the reader is
served the pre-image instead. Conversely "no history entry" proves the
bytes it read were committed.

Retention is bounded: committed pre-images are kept only while some
active snapshot (an open transaction) may need them, plus a trailing
window of :data:`RETENTION_LSNS` log positions so recently-issued
time-travel tokens (``db.snapshot_token()`` / ``forall ... as of``)
remain resolvable. Asking for a snapshot older than what is retained
raises :class:`~repro.errors.SnapshotTooOldError` — an error, never a
wrong answer.

Everything here is process-local and rebuilt empty on open: crash
recovery restores the committed store state, which is exactly the state
a fresh history (no entries anywhere) describes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import SnapshotTooOldError

#: Resolution sentinel: "the store's current content is what this reader
#: should see" (distinct from ``None``, which means "no object visible").
STORE = object()

class _LazyImage:
    """Placeholder pre-image: the writer holds the object's X lock but
    has not mutated the store yet, so the committed pre-image is still
    readable there. Used by the deferred-write path (bare field
    assignments flushed at commit): registration skips the image load,
    and whoever needs the image first pays for it — the flush via
    :meth:`MVCCManager.fill_lazy` (for free, from the old state it loads
    anyway) or a concurrent reader via the stored *loader*, whichever
    comes first. Never escapes this module.
    """

    __slots__ = ("loader",)

    def __init__(self, loader: Callable[[], "Image"]):
        self.loader = loader

#: An object image: ``(head_record, {version: state_dict})`` or ``None``
#: for "object does not exist". Images are immutable by convention.
Image = Optional[Tuple[Dict, Dict[int, Dict]]]

#: Committed pre-images are retained this many LSN units past the newest
#: commit even with no snapshot pinning them, so time-travel tokens keep
#: working across a window of recent activity. (LSNs advance once per
#: log record, so this is a generous multiple of any single commit.)
RETENTION_LSNS = 100_000

#: Commits between full retention sweeps (a sweep is O(live histories)).
PRUNE_EVERY = 64


def _clsn_of(commit: Tuple[int, List[int]]) -> int:
    return commit[0]


class ObjectHistory:
    """Version-visibility record for one ``(cluster, serial)``.

    ``committed`` holds ``(clsn, image)`` pairs in ascending commit-LSN
    order: *image* was the committed content **before** the commit at
    *clsn*, i.e. what a snapshot older than *clsn* sees. ``pending_*``
    hold the in-flight writer (at most one — the object X lock serializes
    writers) and its pre-image. ``pruned_below`` is the largest commit
    LSN whose pre-image has been discarded: snapshots older than it can
    no longer be answered for this object.
    """

    __slots__ = ("pending_txn", "pending_img", "committed", "pruned_below")

    def __init__(self):
        self.pending_txn: Optional[int] = None
        self.pending_img: Image = None
        self.committed: List[Tuple[int, Image]] = []
        self.pruned_below = 0


class MVCCManager:
    """Snapshot registry + per-object history for one database."""

    def __init__(self, start_lsn: int = 0):
        self._lock = threading.Lock()
        #: cluster -> {serial -> ObjectHistory}. Cluster dicts are created
        #: once and never replaced, so a scan can hold a live reference
        #: and observe registrations that happen mid-scan.
        self._by_cluster: Dict[str, Dict[int, ObjectHistory]] = {}
        #: txn id -> keys it has registered pre-images for.
        self._txn_keys: Dict[int, Set[Tuple[str, int]]] = {}
        #: txn id -> snapshot LSN (the retention floor honours these).
        self._snapshots: Dict[int, int] = {}
        #: The per-cluster *dirty set*, findable without walking every
        #: retained history: serials with an in-flight writer, grouped by
        #: writer (cluster -> {txn id -> serials}), and the serials each
        #: retained commit wrote, in ascending commit-LSN order (cluster
        #: -> [(clsn, serials)], pruned with the histories).
        self._pending: Dict[str, Dict[int, Set[int]]] = {}
        self._commits: Dict[str, List[Tuple[int, List[int]]]] = {}
        #: Newest committed-write LSN per cluster (never pruned).
        self._cluster_max_clsn: Dict[str, int] = {}
        #: Snapshot high-water: assigned to new transactions. Advanced
        #: only *after* a commit's histories are stamped, so a reader
        #: whose snapshot covers a commit always resolves its content.
        self.last_commit_lsn = int(start_lsn)
        #: Largest commit LSN whose pre-image was dropped anywhere; a
        #: time-travel snapshot older than this is unanswerable.
        self.dropped_horizon = 0
        self._commit_count = 0
        self.conflicts = 0     # bumped by the database on SnapshotConflict
        self.resolutions = 0   # reads served from a history image
        #: Dirty serials index plans resolved through the overlay.
        self.index_overlay_rows = 0

    # -- fast lock-free lookups (hot paths) --------------------------------

    def lookup(self, cluster: str, serial: int) -> Optional[ObjectHistory]:
        hists = self._by_cluster.get(cluster)
        if hists is None:
            return None
        return hists.get(serial)

    def histories(self, cluster: str) -> Dict[int, ObjectHistory]:
        """The live per-cluster history dict (created on demand).

        Scans hold this reference for their whole run; writers insert
        into the same dict, so a mid-scan registration is visible to the
        per-record check.
        """
        hists = self._by_cluster.get(cluster)
        if hists is None:
            with self._lock:
                hists = self._by_cluster.setdefault(cluster, {})
        return hists

    @staticmethod
    def needs_resolve(hist: ObjectHistory, snapshot: Optional[int],
                      txn_id: int) -> bool:
        """Cheap, lock-free: must this reader go through :meth:`visible`?

        False means the store's current content (and the shared object
        cache) is exactly what the reader should see.
        """
        pending = hist.pending_txn
        if pending is not None:
            return pending != txn_id
        committed = hist.committed
        if not committed:
            return bool(snapshot is not None
                        and snapshot < hist.pruned_below)
        if snapshot is None:
            # Read-committed (autocommit): newest committed content is
            # what the store holds once no writer is in flight.
            return False
        return committed[-1][0] > snapshot or snapshot < hist.pruned_below

    # -- resolution --------------------------------------------------------

    def visible(self, hist: ObjectHistory, snapshot: Optional[int],
                txn_id: int):
        """What this reader sees for *hist*'s object.

        Returns :data:`STORE` (read the current store content), an image
        tuple, or ``None`` (no object visible at this snapshot). Raises
        :class:`SnapshotTooOldError` when the needed pre-image has been
        pruned (possible only for time-travel snapshots — the retention
        floor protects live transactions).
        """
        with self._lock:
            pending = hist.pending_txn
            if pending is not None and pending == txn_id:
                return STORE
            if snapshot is not None:
                if snapshot < hist.pruned_below:
                    raise SnapshotTooOldError(
                        "snapshot %d predates retained history (pruned "
                        "below %d)" % (snapshot, hist.pruned_below))
                for clsn, img in hist.committed:
                    if clsn > snapshot:
                        self.resolutions += 1
                        return img
            if pending is not None:
                self.resolutions += 1
                return self._resolve_lazy(hist)
            return STORE

    def committed_after(self, cluster: str, serial: int,
                        snapshot: int) -> bool:
        """Has another transaction committed a write to this object since
        *snapshot*? (The first-updater-wins write-conflict test; called
        under the object's X lock, so no in-flight writer can exist.)"""
        hist = self.lookup(cluster, serial)
        if hist is None:
            return False
        committed = hist.committed
        return bool(committed) and committed[-1][0] > snapshot

    def cluster_dirty(self, cluster: str, snapshot: Optional[int],
                      txn_id: int) -> bool:
        """True when the store's present content of *cluster* (records and
        index entries alike) may differ from what this reader sees: another
        transaction has a write in flight, or one committed after the
        snapshot. The reader's own pending writes are its present."""
        pending = self._pending.get(cluster)
        if pending and (len(pending) > 1 or txn_id not in pending):
            return True
        if snapshot is None:
            return False
        return self._cluster_max_clsn.get(cluster, 0) > snapshot

    def dirty_serials(self, cluster: str, snapshot: Optional[int],
                      txn_id: int) -> Set[int]:
        """The serials behind a true :meth:`cluster_dirty`: every object
        of *cluster* with a foreign in-flight writer or (for a snapshot
        reader) a retained commit newer than *snapshot*. O(dirty); asked
        for by index plans, which resolve every serial returned."""
        out: Set[int] = set()
        with self._lock:
            for writer, serials in self._pending.get(cluster, {}).items():
                if writer != txn_id:
                    out.update(serials)
            if snapshot is not None:
                for clsn, serials in reversed(self._commits.get(cluster, ())):
                    if clsn <= snapshot:
                        break
                    out.update(serials)
            self.index_overlay_rows += len(out)
        return out

    def check_snapshot(self, snapshot: int) -> None:
        """Validate a time-travel snapshot against the global horizon."""
        if snapshot < self.dropped_horizon:
            raise SnapshotTooOldError(
                "as-of snapshot %d predates retained history (horizon %d); "
                "time travel reaches back only over recent activity"
                % (snapshot, self.dropped_horizon))

    # -- writer protocol ---------------------------------------------------

    def register(self, txn_id: int, cluster: str, serial: int,
                 loader: Optional[Callable[[], Image]],
                 lazy: bool = False) -> None:
        """Capture the pre-image of ``(cluster, serial)`` for *txn_id*.

        Must be called under the object's X lock and **before** the
        transaction's first store mutation of the object. Idempotent per
        (txn, object). *loader* materializes the current committed image
        (it is invoked at most once, inside the registry lock, so the
        image and the registration are atomic with respect to readers).

        With ``lazy=True`` (the deferred field-write path, where the
        store mutation only happens at flush) the image load is deferred:
        the registration just records the writer and keeps *loader* for
        whoever needs the image first — normally the flush, which fills
        it for free from the old state it loads anyway; a concurrent
        reader materializes it on demand. An eager ``register`` call on
        a lazily registered object materializes it immediately (a delete
        or new-version mutates the store at once).
        """
        with self._lock:
            hists = self._by_cluster.setdefault(cluster, {})
            hist = hists.get(serial)
            if hist is None:
                hist = hists[serial] = ObjectHistory()
            if hist.pending_txn == txn_id:
                if not lazy and type(hist.pending_img) is _LazyImage:
                    hist.pending_img = loader()
                return
            hist.pending_txn = txn_id
            hist.pending_img = _LazyImage(loader) if lazy else loader()
            self._txn_keys.setdefault(txn_id, set()).add((cluster, serial))
            self._pending.setdefault(cluster, {}).setdefault(
                txn_id, set()).add(serial)

    def fill_lazy(self, txn_id: int, cluster: str, serial: int,
                  loader: Callable[[], Image]) -> None:
        """Materialize a lazily registered pre-image.

        Called by the flush just before its store write, with the old
        state the flush loaded anyway — so the common bare-assignment
        path costs no extra store reads for MVCC. No-op unless *txn_id*'s
        registration is still lazy (a concurrent reader may have
        materialized it already).
        """
        with self._lock:
            hist = self.lookup(cluster, serial)
            if (hist is None or hist.pending_txn != txn_id
                    or type(hist.pending_img) is not _LazyImage):
                return
            hist.pending_img = loader()

    def _resolve_lazy(self, hist: ObjectHistory) -> Image:
        """The pending image, materializing a lazy one. Caller holds the
        registry lock — which orders this store read strictly before the
        owning flush's store write (the flush fills the image under this
        same lock *before* writing), so the loader always reads the
        committed pre-state.
        """
        img = hist.pending_img
        if type(img) is _LazyImage:
            img = hist.pending_img = img.loader()
        return img

    def upgrade_image(self, txn_id: int, cluster: str, serial: int,
                      fill: Callable[[Tuple[Dict, Dict[int, Dict]]],
                                     None]) -> None:
        """Extend *txn_id*'s registered partial pre-image in place.

        Called (before the mutation) when a transaction that registered
        a partial image goes on to delete non-current version records:
        *fill* adds the missing chain states so snapshot readers can
        still resolve the pinned versions afterwards. No-op when nothing
        is registered (the fresh registration loads the full image).
        """
        with self._lock:
            hist = self.lookup(cluster, serial)
            if (hist is None or hist.pending_txn != txn_id
                    or hist.pending_img is None
                    or type(hist.pending_img) is _LazyImage):
                return
            fill(hist.pending_img)

    def version_state(self, hist: ObjectHistory, snapshot: Optional[int],
                      txn_id: int, version: int) -> Optional[Dict]:
        """Pinned-version fallback for partial images.

        Non-current version states are immutable short of deletion, and
        every deleting transaction registers (or upgrades to) a full
        pre-image first — so the state of *version* at *snapshot* is the
        one in the first retained image that carries it, and ``None``
        here means "the store record, if present, is still that state".
        """
        with self._lock:
            if snapshot is not None:
                for clsn, img in hist.committed:
                    if clsn > snapshot and img is not None:
                        state = img[1].get(version)
                        if state is not None:
                            return state
            pending = hist.pending_txn
            if pending is not None and pending != txn_id:
                img = self._resolve_lazy(hist)
                if img is not None:
                    state = img[1].get(version)
                    if state is not None:
                        return state
            return None

    def commit(self, txn_id: int, clsn: int) -> None:
        """Stamp *txn_id*'s pre-images with its commit LSN.

        Runs after the WAL commit record exists and **before** the
        transaction's locks are released and before the snapshot
        high-water advances — so no new snapshot can cover the commit
        until every touched object resolves it.
        """
        with self._lock:
            keys = self._txn_keys.pop(txn_id, ())
            written: Dict[str, List[int]] = {}
            for cluster, serial in keys:
                hists = self._by_cluster.get(cluster)
                hist = hists.get(serial) if hists else None
                if hist is None or hist.pending_txn != txn_id:
                    continue
                img = hist.pending_img
                hist.pending_txn = None
                hist.pending_img = None
                if type(img) is _LazyImage:
                    # Registered (locked) but never flushed: the store
                    # was not written, so there is no commit to record.
                    if not hist.committed and not hist.pruned_below:
                        del hists[serial]
                    continue
                hist.committed.append((clsn, img))
                written.setdefault(cluster, []).append(serial)
            for cluster, serials in written.items():
                commits = self._commits.setdefault(cluster, [])
                commits.append((clsn, serials))
                if len(commits) > 1 and commits[-2][0] > clsn:
                    # Concurrent committers may stamp out of LSN order.
                    commits.sort(key=_clsn_of)
                if clsn > self._cluster_max_clsn.get(cluster, 0):
                    self._cluster_max_clsn[cluster] = clsn
            # Last: a lock-free cluster_dirty must never see the writer
            # gone before its commit shows in the cluster's max LSN.
            self._clear_pending(txn_id, keys)
            self._snapshots.pop(txn_id, None)
            if clsn > self.last_commit_lsn:
                self.last_commit_lsn = clsn
            self._commit_count += 1
            if self._commit_count % PRUNE_EVERY == 0:
                self._prune()

    def abort(self, txn_id: int) -> None:
        """Discard *txn_id*'s pre-images (the store rolls back to them)."""
        with self._lock:
            keys = self._txn_keys.pop(txn_id, ())
            for cluster, serial in keys:
                hists = self._by_cluster.get(cluster)
                hist = hists.get(serial) if hists else None
                if hist is None or hist.pending_txn != txn_id:
                    continue
                hist.pending_txn = None
                hist.pending_img = None
                if not hist.committed and not hist.pruned_below:
                    del hists[serial]
            self._clear_pending(txn_id, keys)
            self._snapshots.pop(txn_id, None)

    def _clear_pending(self, txn_id: int, keys) -> None:
        for cluster in {cluster for cluster, _serial in keys}:
            self._pending[cluster].pop(txn_id, None)

    # -- snapshot registry -------------------------------------------------

    def begin_snapshot(self, txn_id: int) -> int:
        """Assign (and pin, for retention) a snapshot to a transaction."""
        with self._lock:
            snapshot = self.last_commit_lsn
            self._snapshots[txn_id] = snapshot
            return snapshot

    def release_snapshot(self, txn_id: int) -> None:
        with self._lock:
            self._snapshots.pop(txn_id, None)

    # -- retention ---------------------------------------------------------

    def _prune(self) -> None:
        """Drop pre-images no live snapshot (nor the trailing time-travel
        window) can need. Caller holds the lock."""
        floor = self.last_commit_lsn - RETENTION_LSNS
        for snapshot in self._snapshots.values():
            if snapshot < floor:
                floor = snapshot
        if floor <= 0:
            return
        for hists in self._by_cluster.values():
            dead = []
            for serial, hist in hists.items():
                committed = hist.committed
                k = 0
                while k < len(committed) and committed[k][0] <= floor:
                    k += 1
                if k:
                    hist.pruned_below = committed[k - 1][0]
                    del committed[:k]
                if not committed and hist.pending_txn is None:
                    if hist.pruned_below > self.dropped_horizon:
                        self.dropped_horizon = hist.pruned_below
                    dead.append(serial)
            for serial in dead:
                del hists[serial]
        for commits in self._commits.values():
            k = 0
            while k < len(commits) and commits[k][0] <= floor:
                k += 1
            del commits[:k]

    # -- introspection -----------------------------------------------------

    def history_count(self) -> int:
        return sum(len(h) for h in self._by_cluster.values())

    def active_snapshots(self) -> int:
        return len(self._snapshots)

    def stats(self) -> Dict[str, int]:
        return {
            "histories": self.history_count(),
            "active_snapshots": len(self._snapshots),
            "resolutions": self.resolutions,
            "index_overlay_rows": self.index_overlay_rows,
            "conflicts": self.conflicts,
            "last_commit_lsn": self.last_commit_lsn,
            "dropped_horizon": self.dropped_horizon,
        }

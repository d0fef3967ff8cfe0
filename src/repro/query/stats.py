"""Per-cluster statistics driving the cost-based optimizer.

The paper motivates ``suchthat``/``by`` clauses as optimizer fodder
(section 3.1); pricing the alternative access paths requires knowing how
big a cluster is and how selective a predicate will be. This module keeps,
per cluster:

* the **object count** (version heads, i.e. what an iteration visits);
* per tracked field: the **distinct-value count** and the **min/max**
  bounds, used for equality and range selectivity estimates.

Statistics are maintained *incrementally* — ``pnew``, ``pdelete`` and
field updates adjust them in place — so planning never scans. Two
precision levels exist:

``exact``
    The manager has seen every mutation since the cluster was empty (or
    since an :meth:`analyze` scan): per-field value counts are kept, so
    distinct counts and bounds are exact.

``summary``
    Only the persisted summary (count, n_distinct, min, max) is known —
    the database was reopened. Counts and bounds still track mutations;
    distinct counts are estimates until the next :meth:`analyze`.

Summaries are persisted through the catalog's metadata records (key
``"stats:<cluster>"``) on checkpoint and close, so a reopened database
plans with real numbers immediately. An aborted transaction invalidates
the in-memory state (the cheap, always-correct answer); statistics are
advisory — a stale estimate can only mis-price a plan, never change a
query's result set.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

#: Persist a cluster's summary after this many mutations since the last
#: write (also persisted on checkpoint/close regardless).
PERSIST_EVERY = 256


class FieldStats:
    """Distinct count and value bounds for one tracked field.

    At exact precision a delete of the last occurrence of the current
    minimum or maximum only marks the bounds stale; the next read of
    :attr:`min` or :attr:`max` recomputes both from the counts, once. A
    sliding window that deletes its minimum on every step thus pays
    O(distinct values) per bounds *read*, not per delete.
    """

    __slots__ = ("n_distinct", "_min", "_max", "counts", "_stale",
                 "refreshes")

    def __init__(self, n_distinct: int = 0, lo: Any = None, hi: Any = None,
                 counts: Optional[Dict] = None):
        self.n_distinct = n_distinct
        self._min = lo
        self._max = hi
        #: value -> occurrence count; only present at ``exact`` precision.
        self.counts = counts
        self._stale = False
        #: Bound recomputations over the exact counts.
        self.refreshes = 0

    @property
    def min(self):
        if self._stale:
            self._recompute()
        return self._min

    @property
    def max(self):
        if self._stale:
            self._recompute()
        return self._max

    def record(self, value, delta: int) -> None:
        counts = self.counts
        if counts is not None:
            try:
                n = counts.get(value, 0) + delta
            except TypeError:           # unhashable value: degrade
                if self._stale:
                    self._recompute()
                self.counts = None
            else:
                if n <= 0:
                    counts.pop(value, None)
                    if not self._stale and (value == self._min
                                            or value == self._max):
                        self._stale = True
                else:
                    counts[value] = n
                    if not self._stale:
                        self._widen(value)
                self.n_distinct = len(counts)
                return
        # Summary precision: grow the distinct estimate on insert of a
        # value outside the known bounds; never shrink (deletes of the
        # last occurrence of a value are invisible without counts).
        if delta > 0 and self.n_distinct == 0:
            self.n_distinct = 1
        self._widen(value)

    def _widen(self, value) -> None:
        try:
            if value is None:
                return
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
        except TypeError:
            pass  # un-orderable type: bounds stay unknown

    def _recompute(self) -> None:
        """Stale bounds: recompute both from the exact counts."""
        self._stale = False     # first: a delete racing this re-marks it
        self._min = self._max = None
        self.refresh_bounds()

    def refresh_bounds(self) -> None:
        """Recompute min/max from exact counts."""
        counts = self.counts
        if not counts:
            return
        self.refreshes += 1
        try:
            # list() copies the keys in one step: a reader may recompute
            # beside a writer that holds the statistics lock.
            keys = [k for k in list(counts) if k is not None]
            if keys:
                self._min = min(keys)
                self._max = max(keys)
        except TypeError:
            pass

    def to_state(self) -> List:
        return [self.n_distinct, self.min, self.max]

    @classmethod
    def from_state(cls, state: List) -> "FieldStats":
        return cls(state[0], state[1], state[2])


class ClusterStats:
    """Statistics for one cluster: count plus per-field detail."""

    __slots__ = ("cluster", "count", "fields", "exact", "mutations",
                 "version")

    def __init__(self, cluster: str, count: int = 0,
                 fields: Optional[Dict[str, FieldStats]] = None,
                 exact: bool = False):
        self.cluster = cluster
        self.count = count
        self.fields = fields if fields is not None else {}
        self.exact = exact
        #: mutations since the summary was last persisted.
        self.mutations = 0
        #: monotone mutation counter — the plan cache compares versions to
        #: detect statistics drift and replan.
        self.version = 0

    def field(self, name: str) -> Optional[FieldStats]:
        return self.fields.get(name)

    def track_field(self, name: str) -> FieldStats:
        fs = self.fields.get(name)
        if fs is None:
            fs = FieldStats(counts={} if self.exact else None)
            self.fields[name] = fs
        return fs

    def to_state(self) -> Dict:
        return {"count": self.count,
                "fields": {f: fs.to_state() for f, fs in self.fields.items()}}

    @classmethod
    def from_state(cls, cluster: str, state: Dict) -> "ClusterStats":
        fields = {f: FieldStats.from_state(s)
                  for f, s in state.get("fields", {}).items()}
        return cls(cluster, state.get("count", 0), fields, exact=False)

    def __repr__(self):
        return ("ClusterStats(%s, count=%d, %s, fields=%r)"
                % (self.cluster, self.count,
                   "exact" if self.exact else "summary",
                   sorted(self.fields)))


class StatsManager:
    """Owns every cluster's statistics for one open database."""

    META_PREFIX = "stats:"

    def __init__(self, db):
        self._db = db
        self._stats: Dict[str, ClusterStats] = {}
        # Statistics are advisory, but the dicts backing them must not be
        # structurally corrupted by concurrent mutators; one reentrant
        # mutex keeps every update/rebuild atomic.
        self._mutex = threading.RLock()

    # -- access -----------------------------------------------------------

    def get(self, cluster: str) -> Optional[ClusterStats]:
        """Statistics for *cluster*, loading the persisted summary if this
        is the first request since open/abort. None when nothing is known
        (the optimizer then falls back to default selectivities)."""
        with self._mutex:
            stats = self._stats.get(cluster)
            if stats is not None:
                return stats
            state = self._db.store.catalog.get_meta(
                self.META_PREFIX + cluster)
            if state is None:
                return None
            stats = ClusterStats.from_state(cluster, state)
            self._stats[cluster] = stats
            return stats

    def tracked_fields(self, cluster: str) -> List[str]:
        """The fields whose values this cluster's indexes (hence the cost
        model) care about."""
        fields: List[str] = []
        for info in self._db.store.indexes_on(cluster).values():
            for f in info.fields:
                if f not in fields:
                    fields.append(f)
        return fields

    # -- lifecycle hooks ---------------------------------------------------

    def register_new(self, cluster: str) -> None:
        """A cluster was just created (empty): exact tracking starts now."""
        with self._mutex:
            self._stats[cluster] = ClusterStats(cluster, exact=True)

    def record_insert(self, cluster: str, state: Dict) -> None:
        with self._mutex:
            stats = self.get(cluster)
            if stats is None:
                return
            stats.count += 1
            stats.mutations += 1
            stats.version += 1
            for f in self.tracked_fields(cluster):
                stats.track_field(f).record(state.get(f), +1)
            self._maybe_persist(stats)

    def record_delete(self, cluster: str, state: Dict) -> None:
        with self._mutex:
            stats = self.get(cluster)
            if stats is None:
                return
            stats.count = max(0, stats.count - 1)
            stats.mutations += 1
            stats.version += 1
            for f in self.tracked_fields(cluster):
                fs = stats.field(f)
                if fs is not None:
                    fs.record(state.get(f), -1)
            self._maybe_persist(stats)

    def record_update(self, cluster: str, old_state: Optional[Dict],
                      new_state: Dict) -> None:
        if old_state is None:       # first write of a new object: counted
            return                  # by record_insert already
        with self._mutex:
            stats = self.get(cluster)
            if stats is None:
                return
            stats.mutations += 1
            stats.version += 1
            for f in self.tracked_fields(cluster):
                old_v, new_v = old_state.get(f), new_state.get(f)
                if old_v == new_v:
                    continue
                fs = stats.track_field(f)
                fs.record(old_v, -1)
                fs.record(new_v, +1)
            self._maybe_persist(stats)

    def dirty(self) -> bool:
        """True when some summary has unpersisted mutations."""
        with self._mutex:
            return any(s.mutations for s in self._stats.values())

    def invalidate(self) -> None:
        """Drop in-memory state (an abort may have rolled anything back);
        summaries reload lazily from the catalog."""
        with self._mutex:
            self._stats.clear()

    # -- analyze -----------------------------------------------------------

    def analyze(self, cluster: str) -> ClusterStats:
        """Rebuild *cluster*'s statistics exactly by scanning it."""
        store = self._db.store
        fields = self.tracked_fields(cluster)
        stats = ClusterStats(cluster, exact=True)
        for f in fields:
            stats.track_field(f)
        if fields:
            for _serial, state in self._db._scan_current(cluster):
                stats.count += 1
                for f in fields:
                    stats.fields[f].record(state.get(f), +1)
        else:
            stats.count = sum(len(batch.heads)
                              for batch in store.scan_batches(cluster))
        for fs in stats.fields.values():
            fs.refresh_bounds()
        with self._mutex:
            self._stats[cluster] = stats
        return stats

    # -- persistence -------------------------------------------------------

    def _maybe_persist(self, stats: ClusterStats) -> None:
        if stats.mutations >= PERSIST_EVERY:
            self.persist_one(stats)

    def persist_one(self, stats: ClusterStats) -> None:
        db = self._db
        if db._txn is None:
            return  # no open transaction: checkpoint/close will catch up
        db.store.catalog.set_meta(db._txn.txn_id,
                                  self.META_PREFIX + stats.cluster,
                                  stats.to_state())
        stats.mutations = 0

    def persist_all(self, txn: int) -> None:
        """Write every dirty summary (checkpoint/close path)."""
        catalog = self._db.store.catalog
        with self._mutex:
            for stats in self._stats.values():
                if stats.mutations:
                    catalog.set_meta(txn, self.META_PREFIX + stats.cluster,
                                     stats.to_state())
                    stats.mutations = 0

    def snapshot(self) -> Dict[str, Dict]:
        """Summaries of every known cluster (for ``db.stats()``)."""
        out = {}
        with self._mutex:
            items = sorted(self._stats.items())
        for name, stats in items:
            out[name] = {
                "objects": stats.count,
                "precision": "exact" if stats.exact else "summary",
                "fields": {f: {"n_distinct": fs.n_distinct,
                               "min": fs.min, "max": fs.max}
                           for f, fs in sorted(stats.fields.items())},
            }
        return out

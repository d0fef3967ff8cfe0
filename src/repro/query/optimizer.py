"""Cost-based plan selection for single-source forall iterations.

The paper motivates ``suchthat``/``by`` clauses partly as optimizer fodder
(section 3.1). This module implements the selection: given a source and an
introspectable predicate, every applicable access path is *priced* using
the cluster's statistics (:mod:`repro.query.stats`) and the cheapest one
wins:

* **index equality lookup** — a conjunct ``A.f == c`` on an indexed field;
* **index range scan** — conjuncts ``A.f < c`` / ``<=`` / ``>`` / ``>=``
  combined into the tightest [lo, hi] interval on an indexed field (every
  index is a B+tree, whatever ``kind`` it was created with);
* **composite-index scan** — a composite (multi-field) index whose
  leading fields all have equality conjuncts, optionally with a range on
  the next field: executed as a tuple-key range scan;
* **full scan** — always a candidate, and *chosen* when statistics say the
  indexes are worse (a low-selectivity predicate on a small cluster pays
  more in random fetches than one sequential pass costs).

The cost model is row-based: a sequential scan visits ``N`` rows at unit
cost; an index plan pays a probe plus :data:`COST_FETCH_ROW` per fetched
row (random access through the object directory is dearer than the next
row of a heap scan). Selectivities come from per-field distinct counts and
min/max bounds; when the statistics are exact (tracked since empty, or
rebuilt by ``db.analyze()``) equality estimates use the actual value
frequency, so a query on a pathologically common value correctly falls
back to the full scan.

Whatever the access path, conjuncts not served by the index remain as a
residual filter (compiled once per execution, not re-interpreted per
row), so results are always exactly the suchthat subset.

Plans are cached per database, keyed on ``(cluster, predicate shape)`` —
the shape elides constants, so ``A.price < 3`` and ``A.price < 99`` share
an entry. A cache hit re-binds the cached access-path choice to the new
constants and re-estimates; entries are invalidated by index creation
(epoch bump) and by statistics drift (the cluster mutated too much since
the plan was chosen).

Only :class:`~repro.core.clusters.ClusterHandle` sources can use indexes
(deep views span clusters with different index sets; sets and lists are
memory-resident anyway).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import dropwhile, islice
from operator import attrgetter, itemgetter
from typing import Any, Iterator, List, Optional, Tuple

from ..core.oid import Oid
from .predicates import And, Compare, Predicate, TrueP

# -- cost model constants -----------------------------------------------------

#: Cost of visiting one row in a sequential heap scan.
COST_SEQ_ROW = 1.0
#: Cost of one index descent/probe.
COST_INDEX_PROBE = 2.0
#: Cost of fetching one row found through an index (random access through
#: the object table: pricier than the next row of a heap scan, but the
#: table is addressed by serial and pages are pooled, so not by much).
COST_FETCH_ROW = 1.5

#: Defaults when no statistics exist for the cluster.
DEFAULT_ROWS = 1000
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 0.3
DEFAULT_OTHER_SEL = 0.5

#: Number of plans built from scratch (not served by a cache); a test and
#: ``db.stats()`` read this to verify caching works.
PLAN_BUILDS = 0


class Plan:
    """An access path producing candidates for the iteration subset."""

    #: Estimated number of rows the plan yields (after residual filter).
    estimated_rows: float = 0.0
    #: Estimated execution cost in cost-model units.
    estimated_cost: float = 0.0
    #: What the access path leaves unchecked: the consumer of
    #: :meth:`chunks` keeps the candidates satisfying it.
    residual: Predicate

    def chunks(self, size: Optional[int], keyed: bool = False, span=None,
               count_only: bool = False) -> Iterator[List]:
        """Lists of candidate objects; the caller applies
        :attr:`residual`. *size* bounds a list (None: as much at once as
        the path has), for consumers that may stop early. Nothing runs
        before the first pull.

        *keyed* promises the caller relies on index key order (a ``by``
        on the range key whose sort was elided). *count_only* promises
        it only takes ``len()`` of each list and has no residual.
        *span* (a :class:`repro.obs.trace.Span`) receives notes a plan
        has about its own execution.
        """
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _estimate_suffix(self) -> str:
        return " [est %.0f rows, cost %.1f]" % (self.estimated_rows,
                                                self.estimated_cost)


class FullScan(Plan):
    """Iterate the source; the whole predicate is the residual.

    Cluster (and deep-view, and as-of) sources expose ``iter_batches()``
    — page-at-a-time lists of live objects — and those are the chunks.
    A list or tuple is sliced by index, its length re-read on every
    pull, so what the loop appends is visited (section 3.2). Any other
    iterable is handed over an element at a time while the consumer may
    stop or mutate it between elements (a set that grows during the loop
    has its new members visited, and an exhausted iterator cannot be
    resumed, so nothing is read ahead), and whole when it cannot (*size*
    None).
    """

    def __init__(self, source, pred: Predicate):
        self.source = source
        self.pred = self.residual = pred

    def chunks(self, size, keyed=False, span=None, count_only=False):
        source = self.source
        iter_batches = getattr(source, "iter_batches", None)
        if iter_batches is not None:
            return iter_batches()
        if isinstance(source, (list, tuple)):
            return _slices(source, size)
        if size is None:
            return iter((list(source),))
        return ([obj] for obj in source)

    def describe(self) -> str:
        return ("full scan of %r filter %r" % (self.source, self.pred)
                + self._estimate_suffix())


def _slices(seq, size: Optional[int]) -> Iterator[List]:
    """*seq* in lists of at most *size* elements (None: all there is)."""
    i = 0
    while i < len(seq):
        chunk = list(seq[i:] if size is None else seq[i:i + size])
        i += len(chunk)
        yield chunk


#: Objects materialized per chunk by index-driven plans before the
#: residual filter runs across the chunk. Bounds the extra work an
#: early-exiting consumer pays while still amortizing the filter loop.
INDEX_BATCH = 32


#: The serial of a ``(key, serial)`` index entry.
_SERIAL = itemgetter(1)


class IndexPlan(Plan):
    """Shared execution of the index-driven plans.

    A subclass supplies :meth:`_serials` — the candidate serials its
    index holds for the key condition, in index order — and
    :meth:`chunks` turns them into objects satisfying the key condition
    in the reader's view.

    Index entries describe the store's *present*. Under MVCC that is
    this reader's view only while the cluster is clean for it
    (:meth:`MVCCManager.cluster_dirty` false); otherwise the candidates
    are overlaid with the cluster's dirty set (:meth:`_overlay`), which
    costs O(matches + dirty) instead of a walk of the extent.
    """

    #: The whole predicate, set by the planner. Minus the residual it is
    #: the key condition — what the index itself answers — which the
    #: overlay re-checks on every row it serves.
    pred: Predicate

    def __init__(self, handle, residual: Predicate):
        self.handle = handle
        self.residual = residual

    def _serials(self, db) -> Iterator[int]:
        raise NotImplementedError

    def chunks(self, size: Optional[int], keyed: bool = False, span=None,
               count_only: bool = False) -> Iterator[List]:
        """See :meth:`Plan.chunks`. With *count_only*, overlay candidates
        are not materialized."""
        db = self.handle.db
        # Flush this session's deferred writes (index entries must show
        # them) and note the cluster read.
        if db._txn is not None and db._dirty:
            db._flush(db._txn.txn_id)
        cluster = self.handle.name
        db._lock_cluster_scan(cluster)
        mvcc = db._mvcc if db._mvcc_on else None  # None: the S lock covers us
        reader = db._reader()
        done: List[int] = []  # serials of the chunks already yielded
        cache = db._cache
        deref = db.deref
        serials = iter(self._serials(db))
        while True:
            chunk = list(serials if size is None
                         else islice(serials, size))
            # Checked after the chunk's index entries were read: a writer
            # registers before it touches an entry (see DESIGN.md, "Index
            # reads under churn"), so clean here means every entry read so
            # far was this reader's view.
            if mvcc is not None and mvcc.cluster_dirty(cluster, *reader):
                chunk.extend(serials)
                rows = self._overlay(db, done, chunk, keyed, span,
                                     count_only)
                if rows:
                    yield rows
                return
            objs = []
            for serial in chunk:
                # The decoded-object cache makes re-visiting an unchanged
                # object cost page-LSN validations, not probes + decodes.
                obj = cache.get((cluster, serial))
                if obj is None:
                    obj = deref(Oid(cluster, serial), _missing_ok=True)
                    if obj is None:
                        continue
                objs.append(obj)
            if objs:
                yield objs
            if size is None or len(chunk) < size:
                return
            done.extend(chunk)

    def _overlay(self, db, done: List[int], serials: List[int], keyed,
                 span, count_only) -> List:
        """The rows of *serials* (every index candidate not in *done*,
        which earlier clean chunks already produced) in this reader's
        view of a dirty cluster.

        Candidates outside the dirty set had their entries read while
        they were this reader's view, so they stand; every dirty serial —
        candidate or not, since a writer may have moved its key out of
        the probed range or deleted it — is resolved through the scan
        overlay (own writes: the store; foreign pending or newer commit:
        the snapshot image; created after the snapshot: skipped). The
        key condition runs on every row here and the caller's residual
        after it, so a row whose content changed after the dirty set was
        taken is judged, by the whole predicate, on what is served.
        """
        cluster = self.handle.name
        vis = db._scan_visibility(cluster)
        dirty = vis.dirty()
        seen = vis.seen
        seen.update(done)
        matches = _residual(self.pred.conjuncts(),
                            self.residual.conjuncts()).compiled()
        deref = db.deref
        rows: List = []
        for serial in serials:
            if serial in dirty or serial in seen:
                continue
            seen.add(serial)
            if count_only:
                rows.append(serial)
                continue
            obj = deref(Oid(cluster, serial), _missing_ok=True)
            if obj is not None and matches(obj):
                rows.append(obj)
        clean = len(rows)
        for serial in dirty:
            obj = vis.materialize(serial)
            if obj is not None and matches(obj):
                rows.append(obj)
        if keyed:
            # Stable sort of this execution's remainder: everything an
            # earlier chunk yielded has a key <= every row here.
            rows.sort(key=attrgetter(self.field))
        if span is not None:
            span.detail += "; overlay: %d dirty, %d resolved" % (
                len(dirty), len(rows) - clean)
        return rows


class IndexEquality(IndexPlan):
    """Probe an index for one key; residual-filter the matches."""

    def __init__(self, handle, field: str, value: Any, residual: Predicate):
        super().__init__(handle, residual)
        self.field = field
        self.value = value

    def _serials(self, db):
        return db.store.index_search(self.handle.name, self.field,
                                     self.value)

    def describe(self) -> str:
        return ("index eq-lookup %s.%s == %r residual %r" % (
            self.handle.name, self.field, self.value, self.residual)
            + self._estimate_suffix())


class IndexRange(IndexPlan):
    """Range-scan a B+tree index; residual-filter the matches."""

    def __init__(self, handle, field: str, lo, lo_strict, hi, hi_strict,
                 residual: Predicate):
        super().__init__(handle, residual)
        self.field = field
        self.lo = lo
        self.lo_strict = lo_strict
        self.hi = hi
        self.hi_strict = hi_strict

    def _serials(self, db) -> Iterator[int]:
        entries = db.store.index_range(
            self.handle.name, self.field, self.lo, self.hi,
            include_hi=not self.hi_strict)
        if self.lo_strict:
            lo = self.lo  # entries equal to it lead the range
            entries = dropwhile(lambda entry: entry[0] == lo, entries)
        return map(_SERIAL, entries)

    def describe(self) -> str:
        lo_b = "(" if self.lo_strict else "["
        hi_b = ")" if self.hi_strict else "]"
        return ("index range-scan %s.%s in %s%r, %r%s residual %r" % (
            self.handle.name, self.field, lo_b, self.lo, self.hi, hi_b,
            self.residual) + self._estimate_suffix())


class CompositeScan(IndexPlan):
    """Tuple-key range scan over a composite B+tree index.

    *eq_values* fixes the leading fields; an optional range on the next
    field tightens the bounds. The scan visits exactly the tuples whose
    prefix matches, residual-filtering the rest of the predicate.
    """

    def __init__(self, handle, index_name: str, n_fields: int,
                 eq_values: List[Any], lo, lo_strict, hi, hi_strict,
                 residual: Predicate):
        super().__init__(handle, residual)
        self.index_name = index_name
        self.n_fields = n_fields
        self.eq_values = list(eq_values)
        self.lo = lo
        self.lo_strict = lo_strict
        self.hi = hi
        self.hi_strict = hi_strict

    def _serials(self, db) -> Iterator[int]:
        prefix = tuple(self.eq_values)
        lo_key = prefix if self.lo is None else prefix + (self.lo,)
        k = len(prefix)
        for key, serial in db.store.index_range(
                self.handle.name, self.index_name, lo_key, None):
            if key[:k] != prefix:
                break  # past the matching prefix: done
            if (self.lo is not None and self.lo_strict
                    and len(key) > k and key[k] == self.lo):
                continue
            if self.hi is not None and len(key) > k:
                if key[k] > self.hi or (self.hi_strict
                                        and key[k] == self.hi):
                    break
            yield serial

    def describe(self) -> str:
        bound = ""
        if self.lo is not None or self.hi is not None:
            bound = " next-field in %s%r, %r%s" % (
                "(" if self.lo_strict else "[", self.lo, self.hi,
                ")" if self.hi_strict else "]")
        return ("composite-index scan %s.%s prefix=%r%s residual %r" % (
            self.handle.name, self.index_name, self.eq_values, bound,
            self.residual) + self._estimate_suffix())


# -- selectivity estimation ---------------------------------------------------

def _cluster_stats(source):
    db = getattr(source, "db", None)
    manager = getattr(db, "cluster_stats", None)
    if manager is None:
        return None
    return manager.get(source.name)


def _row_count(stats) -> float:
    if stats is None:
        return float(DEFAULT_ROWS)
    return float(max(stats.count, 1))


def _eq_selectivity(stats, field: str, value) -> float:
    """Fraction of rows matching ``field == value``."""
    if stats is None:
        return DEFAULT_EQ_SEL
    n = max(stats.count, 1)
    fs = stats.field(field)
    if fs is None:
        return DEFAULT_EQ_SEL
    if fs.counts is not None:
        try:
            return fs.counts.get(value, 0) / float(n)
        except TypeError:
            pass  # unhashable probe value
    if fs.n_distinct > 0:
        return 1.0 / fs.n_distinct
    return DEFAULT_EQ_SEL


def _range_selectivity(stats, field: str, lo, hi) -> float:
    """Fraction of rows with ``field`` inside [lo, hi] (None = open)."""
    if stats is None:
        return DEFAULT_RANGE_SEL
    fs = stats.field(field)
    if fs is None or fs.min is None or fs.max is None:
        return DEFAULT_RANGE_SEL
    try:
        width = float(fs.max - fs.min)
    except TypeError:
        return DEFAULT_RANGE_SEL  # non-numeric domain
    if width <= 0:
        return 1.0  # single-valued domain: a covering range matches all
    try:
        eff_lo = fs.min if lo is None else max(lo, fs.min)
        eff_hi = fs.max if hi is None else min(hi, fs.max)
        frac = (float(eff_hi) - float(eff_lo)) / width
    except TypeError:
        return DEFAULT_RANGE_SEL
    return min(max(frac, 0.0), 1.0)


def _conjunct_selectivity(stats, conj: Predicate) -> float:
    if isinstance(conj, Compare):
        if conj.op == "==":
            return _eq_selectivity(stats, conj.attr, conj.value)
        if conj.op == "!=":
            return 1.0 - _eq_selectivity(stats, conj.attr, conj.value)
        if conj.op in ("<", "<="):
            return _range_selectivity(stats, conj.attr, None, conj.value)
        return _range_selectivity(stats, conj.attr, conj.value, None)
    return DEFAULT_OTHER_SEL


def predicate_selectivity(stats, pred: Predicate) -> float:
    """Estimated fraction of rows satisfying *pred* (independence
    assumption across conjuncts)."""
    sel = 1.0
    for conj in pred.conjuncts():
        sel *= _conjunct_selectivity(stats, conj)
    return sel


# -- plan construction & costing ----------------------------------------------

class _Candidate:
    __slots__ = ("plan", "spec", "cost")

    def __init__(self, plan, spec, cost):
        self.plan = plan
        self.spec = spec
        self.cost = cost


def _residual(conjuncts: List[Predicate],
              consumed: List[Predicate]) -> Predicate:
    rest = [c for c in conjuncts if not any(c is used for used in consumed)]
    if not rest:
        return TrueP()
    if len(rest) == 1:
        return rest[0]
    return And(*rest)


def _fold_bounds(bounds: List[Compare]):
    """Tightest [lo, hi] interval implied by range comparisons."""
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for comp in bounds:
        if comp.op in (">", ">="):
            if lo is None or comp.value > lo:
                lo, lo_strict = comp.value, comp.op == ">"
            elif comp.value == lo:
                lo_strict = lo_strict or comp.op == ">"
        else:
            if hi is None or comp.value < hi:
                hi, hi_strict = comp.value, comp.op == "<"
            elif comp.value == hi:
                hi_strict = hi_strict or comp.op == "<"
    return lo, lo_strict, hi, hi_strict


def _finish(plan: Plan, stats, pred: Predicate, access_rows: float,
            cost: float, total_rows: Optional[float] = None) -> Plan:
    # estimated_rows reflects the full predicate, but never exceeds what
    # the access path yields.
    n = _row_count(stats) if total_rows is None else total_rows
    plan.pred = pred
    plan.estimated_rows = min(access_rows,
                              max(0.0, n * predicate_selectivity(stats, pred)))
    plan.estimated_cost = cost
    return plan


def _build_candidates(source, pred: Predicate,
                      conjuncts: List[Predicate], stats) -> List[_Candidate]:
    """All applicable access paths, each priced. Index candidates first so
    a cost tie resolves in their favour (matching the pre-cost-model
    behaviour); the full scan is always last."""
    indexed = source.db.store.indexes_on(source.name)
    n = _row_count(stats)
    candidates: List[_Candidate] = []

    comparisons = [(i, c) for i, c in enumerate(conjuncts)
                   if isinstance(c, Compare)]
    eq_by_field = {}
    for i, comp in comparisons:
        if comp.op == "==" and comp.attr not in eq_by_field:
            eq_by_field[comp.attr] = (i, comp)

    for name in sorted(indexed):
        info = indexed[name]
        # 1. full-equality match (single or composite).
        if all(f in eq_by_field for f in info.fields):
            idxs = [eq_by_field[f][0] for f in info.fields]
            used = [eq_by_field[f][1] for f in info.fields]
            residual = _residual(conjuncts, used)
            if len(info.fields) == 1:
                key = used[0].value
            else:
                key = tuple(c.value for c in used)
            sel = 1.0
            for comp in used:
                sel *= _eq_selectivity(stats, comp.attr, comp.value)
            if info.unique:
                access = min(n * sel, 1.0)
            else:
                access = n * sel
            cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
            plan = _finish(IndexEquality(source, name, key, residual),
                           stats, pred, access, cost)
            candidates.append(_Candidate(plan, ("eq", name, tuple(idxs)),
                                         cost))
            continue
        # 2. composite index with equality on a proper prefix (and an
        #    optional range on the field right after the prefix).
        if len(info.fields) >= 2:
            prefix_idx: List[int] = []
            prefix: List[Compare] = []
            for f in info.fields:
                if f in eq_by_field:
                    prefix_idx.append(eq_by_field[f][0])
                    prefix.append(eq_by_field[f][1])
                else:
                    break
            if prefix:
                used = list(prefix)
                next_field = (info.fields[len(prefix)]
                              if len(prefix) < len(info.fields) else None)
                lo = lo_strict = hi = hi_strict = None
                bound_idx: List[int] = []
                if next_field is not None:
                    bounds = [(i, c) for i, c in comparisons
                              if c.attr == next_field
                              and c.op in ("<", "<=", ">", ">=")]
                    bound_idx = [i for i, _ in bounds]
                    folded = [c for _, c in bounds]
                    lo, lo_strict, hi, hi_strict = _fold_bounds(folded)
                    used = used + folded
                residual = _residual(conjuncts, used)
                sel = 1.0
                for comp in prefix:
                    sel *= _eq_selectivity(stats, comp.attr, comp.value)
                if next_field is not None and (lo is not None
                                               or hi is not None):
                    sel *= _range_selectivity(stats, next_field, lo, hi)
                access = n * sel
                cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
                plan = _finish(
                    CompositeScan(source, name, len(info.fields),
                                  [c.value for c in prefix], lo,
                                  bool(lo_strict), hi, bool(hi_strict),
                                  residual),
                    stats, pred, access, cost)
                candidates.append(_Candidate(
                    plan, ("comp", name, len(info.fields),
                           tuple(prefix_idx), tuple(bound_idx)), cost))
            continue
        # 3. range on a single-field index.
        field = info.fields[0]
        bounds = [(i, c) for i, c in comparisons
                  if c.attr == field and c.op in ("<", "<=", ">", ">=")]
        if not bounds:
            continue
        folded = [c for _, c in bounds]
        lo, lo_strict, hi, hi_strict = _fold_bounds(folded)
        residual = _residual(conjuncts, folded)
        sel = _range_selectivity(stats, field, lo, hi)
        access = n * sel
        cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
        plan = _finish(
            IndexRange(source, name, lo, bool(lo_strict), hi,
                       bool(hi_strict), residual),
            stats, pred, access, cost)
        candidates.append(_Candidate(
            plan, ("range", name, tuple(i for i, _ in bounds)), cost))

    # Full scan: always applicable, listed last so index plans win ties.
    scan_cost = n * COST_SEQ_ROW
    plan = _finish(FullScan(source, pred), stats, pred, n, scan_cost)
    candidates.append(_Candidate(plan, ("full",), scan_cost))
    return candidates


def _bind_spec(spec, source, pred: Predicate, conjuncts: List[Predicate],
               stats) -> Optional[Plan]:
    """Rebuild the plan a cached spec describes, with this predicate's
    constants. Returns None if the predicate no longer fits the spec
    (shouldn't happen for same-shape predicates, but be safe)."""
    kind = spec[0]
    n = _row_count(stats)
    try:
        if kind == "full":
            plan = FullScan(source, pred)
            return _finish(plan, stats, pred, n, n * COST_SEQ_ROW)
        if kind == "eq":
            _, name, idxs = spec
            used = [conjuncts[i] for i in idxs]
            residual = _residual(conjuncts, used)
            key = used[0].value if len(used) == 1 else tuple(
                c.value for c in used)
            sel = 1.0
            for comp in used:
                sel *= _eq_selectivity(stats, comp.attr, comp.value)
            access = n * sel
            cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
            return _finish(IndexEquality(source, name, key, residual),
                           stats, pred, access, cost)
        if kind == "range":
            _, name, idxs = spec
            folded = [conjuncts[i] for i in idxs]
            lo, lo_strict, hi, hi_strict = _fold_bounds(folded)
            residual = _residual(conjuncts, folded)
            field = folded[0].attr
            access = n * _range_selectivity(stats, field, lo, hi)
            cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
            return _finish(
                IndexRange(source, name, lo, bool(lo_strict), hi,
                           bool(hi_strict), residual),
                stats, pred, access, cost)
        if kind == "comp":
            _, name, n_fields, prefix_idx, bound_idx = spec
            prefix = [conjuncts[i] for i in prefix_idx]
            folded = [conjuncts[i] for i in bound_idx]
            lo, lo_strict, hi, hi_strict = _fold_bounds(folded)
            used = prefix + folded
            residual = _residual(conjuncts, used)
            sel = 1.0
            for comp in prefix:
                sel *= _eq_selectivity(stats, comp.attr, comp.value)
            if folded:
                sel *= _range_selectivity(stats, folded[0].attr, lo, hi)
            access = n * sel
            cost = COST_INDEX_PROBE + access * COST_FETCH_ROW
            return _finish(
                CompositeScan(source, name, n_fields,
                              [c.value for c in prefix], lo,
                              bool(lo_strict), hi, bool(hi_strict),
                              residual),
                stats, pred, access, cost)
    except (IndexError, AttributeError):
        return None
    return None


# -- plan cache ---------------------------------------------------------------

#: A cached plan is stale once the cluster has seen more than
#: ``max(_DRIFT_FLOOR, _DRIFT_FRACTION * count_at_build)`` mutations.
_DRIFT_FLOOR = 32
_DRIFT_FRACTION = 0.25


class _CacheEntry:
    __slots__ = ("spec", "epoch", "stats_version", "count_at_build")

    def __init__(self, spec, epoch, stats_version, count_at_build):
        self.spec = spec
        self.epoch = epoch
        self.stats_version = stats_version
        self.count_at_build = count_at_build


class PlanCache:
    """LRU cache of access-path choices keyed on (cluster, shape).

    Thread-safe: lookups and stores from concurrent sessions share one
    mutex (plan specs themselves are immutable once stored).
    """

    def __init__(self, capacity: int = 256):
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._mutex = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, cluster: str, shape, epoch: int, stats):
        with self._mutex:
            key = (cluster, shape)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != epoch or self._drifted(entry, stats):
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    @staticmethod
    def _drifted(entry: _CacheEntry, stats) -> bool:
        if stats is None:
            return entry.stats_version is not None
        if entry.stats_version is None:
            return True
        drift = stats.version - entry.stats_version
        limit = max(_DRIFT_FLOOR, entry.count_at_build * _DRIFT_FRACTION)
        return drift > limit

    def store(self, cluster: str, shape, spec, epoch: int, stats) -> None:
        with self._mutex:
            key = (cluster, shape)
            self._entries[key] = _CacheEntry(
                spec, epoch,
                None if stats is None else stats.version,
                0 if stats is None else stats.count)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def invalidate_cluster(self, cluster: str) -> None:
        """Drop the cached plans for one cluster, keeping the rest.

        An aborted transaction only disturbs the statistics (and hence
        plan choices) of the clusters it touched; plans over other
        clusters stay warm.
        """
        with self._mutex:
            doomed = [key for key in self._entries if key[0] == cluster]
            for key in doomed:
                del self._entries[key]
            self.invalidations += len(doomed)

    def stats(self) -> dict:
        with self._mutex:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "entries": len(self._entries),
                "invalidations": self.invalidations,
            }


# -- entry point --------------------------------------------------------------

def choose_plan(source, pred: Predicate) -> Plan:
    """Pick the cheapest applicable plan for iterating *source*."""
    global PLAN_BUILDS
    from ..core.clusters import ClusterHandle
    if not isinstance(source, ClusterHandle) or not source.exists:
        PLAN_BUILDS += 1
        plan = FullScan(source, pred)
        try:
            n = float(len(source))
        except TypeError:
            n = float(DEFAULT_ROWS)
        return _finish(plan, None, pred, n, n * COST_SEQ_ROW, total_rows=n)
    db = source.db
    stats = _cluster_stats(source)
    cache: Optional[PlanCache] = getattr(db, "plan_cache", None)
    epoch = getattr(db, "_plan_epoch", 0)
    conjuncts = pred.conjuncts()
    shape = pred.shape()
    if cache is not None and shape is not None:
        entry = cache.lookup(source.name, shape, epoch, stats)
        if entry is not None:
            plan = _rebind(entry.spec, source, pred, conjuncts, stats)
            if plan is not None:
                return plan
    PLAN_BUILDS += 1
    candidates = _build_candidates(source, pred, conjuncts, stats)
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.cost < best.cost:
            best = cand
    if cache is not None and shape is not None:
        spec = best.spec
        if spec[0] == "full":
            # Remember the cheapest index alternative: the shape elides
            # constants, so a later same-shape predicate with a *rarer*
            # constant can flip back to the index at bind time.
            alts = [c for c in candidates if c.spec[0] != "full"]
            if alts:
                spec = ("full", min(alts, key=lambda c: c.cost).spec)
        cache.store(source.name, shape, spec, epoch, stats)
    return best.plan


def _rebind(spec, source, pred: Predicate, conjuncts: List[Predicate],
            stats) -> Optional[Plan]:
    """Bind a cached spec to this predicate's constants, re-deciding the
    index-vs-scan flip with the *current* estimates.

    Constants are elided from the cache key, so the same shape may cover
    constants with wildly different frequencies (when statistics are
    exact, equality selectivity is the actual value frequency). The
    cached access path is therefore sanity-checked: an index plan that
    now prices worse than a sequential pass falls back to the full scan,
    and a cached full scan whose recorded index alternative now prices
    better flips to it.
    """
    plan = _bind_spec(spec, source, pred, conjuncts, stats)
    if plan is None:
        return None
    n = _row_count(stats)
    scan_cost = n * COST_SEQ_ROW
    if spec[0] == "full":
        if len(spec) > 1 and spec[1] is not None:
            alt = _bind_spec(spec[1], source, pred, conjuncts, stats)
            if alt is not None and alt.estimated_cost < plan.estimated_cost:
                return alt
        return plan
    if plan.estimated_cost > scan_cost:
        return _finish(FullScan(source, pred), stats, pred, n, scan_cost)
    return plan

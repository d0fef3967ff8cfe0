"""Plan-to-code generation: fused query pipelines (compile, don't interpret).

The interpreted execution path composes an optimizer plan from nested
generators — ``iter_batches()`` feeding ``batched()`` feeding ``_take()``
feeding a ``sum(1 for _ in ...)`` — so every row pays several generator-
frame hops plus a compiled-closure call for the residual filter.  This
module lowers the *whole* pipeline into one synthesized Python function:
the cluster-scan loop, the residual predicate (inlined as an expression,
with a scalar-field ``__dict__`` fast path), the hash-join chain, and the
terminal (count / collect / stream) all fuse into a single frame that is
``compile()``d once and cached.

Contract (enforced by the differential harness in
``tests/query/test_codegen_differential.py``):

* **Identical semantics.**  Generated code performs the same flushes,
  takes the same cluster scan locks in the same order, goes through the
  same decoded-object caches (``db._cache`` / ``db.deref``), and yields
  rows in the same order as the interpreted plan it replaces.  Unordered
  single-source iteration streams lazily, so the section 3.2 fixpoint
  property (inserts made during the loop are visited) is preserved.
* **Automatic fallback.**  Anything the lowering does not cover — traced
  runs (``explain analyze``), plans over exotic sources, predicates the
  emitter cannot prove equivalent — silently executes interpreted.  The
  caller treats :data:`INELIGIBLE` as "use the interpreted path".
* **Error parity.**  Inlined ``A.field <op> const`` comparisons replicate
  :class:`Compare`'s TypeError-swallowing by re-running the batch through
  the predicate's safe ``compiled()`` closure when the inlined expression
  raises; ``A.x < A.y`` comparisons propagate TypeError exactly like
  :class:`AttrCompare` does.

Generated sources are registered in :mod:`linecache` under
``<ode-codegen:N>`` filenames so tracebacks show the fused code, and
``Forall.explain(code=True)`` can print it.

Disable with ``REPRO_CODEGEN=0`` (environment), ``db.codegen_enabled =
False`` (per database), or ``q.codegen(False)`` (per query): all three
restore the pure interpreted path.
"""

from __future__ import annotations

import keyword
import linecache
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..core.fields import Field
from .optimizer import (INDEX_BATCH, CompositeScan, FullScan, IndexEquality,
                        IndexRange)
from .predicates import (And, AttrCompare, Callable_, Compare, JoinCompare,
                         Not, Or, Predicate, TrueP, VarCompare)

#: Sentinel returned when the lowering does not apply; the caller falls
#: back to the interpreted pipeline.
INELIGIBLE = object()

_ENV = "REPRO_CODEGEN"
_ENV_STRICT = "REPRO_CODEGEN_STRICT"
_FN = "__ode_pipeline"


def env_enabled() -> bool:
    """Whether the process-wide environment switch allows codegen."""
    return os.environ.get(_ENV, "1").strip().lower() not in (
        "0", "off", "false", "no")


def enabled_for(db) -> bool:
    """Whether codegen applies for queries against *db* (None = no db)."""
    if db is not None and not getattr(db, "codegen_enabled", True):
        return False
    return env_enabled()


class _CannotLower(Exception):
    """Raised internally when a plan/predicate has no lowering."""


# ---------------------------------------------------------------------------
# compiled-function cache
# ---------------------------------------------------------------------------

class CompiledQuery:
    """One generated function plus its debugging metadata."""

    __slots__ = ("fn", "source", "filename", "clusters", "mode")

    def __init__(self, fn: Callable, source: str, filename: str,
                 clusters: frozenset, mode: str):
        self.fn = fn
        self.source = source
        self.filename = filename
        self.clusters = set(clusters)
        self.mode = mode


class CodegenCache:
    """LRU cache of generated query functions.

    Keys are structural: the generated source is fully determined by the
    key, and every value that can vary between executions (constants,
    opaque callables, index bounds, the database itself) flows through
    the runtime dict instead.  Invalidation mirrors the plan cache: the
    database drops entries per cluster on abort and clears outright on
    DDL/analyze/repair.  This is hygiene, not a correctness requirement —
    plan choice feeds the key, so a dropped index simply routes lookups
    to a different key.
    """

    def __init__(self, capacity: int = 256):
        self._capacity = capacity
        self._entries: "OrderedDict[Tuple, CompiledQuery]" = OrderedDict()
        self._mutex = threading.RLock()
        self._seq = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Cumulative nanoseconds spent synthesizing + compile()ing.
        self.compile_ns = 0

    def lookup(self, key: Tuple,
               clusters: frozenset) -> Optional[CompiledQuery]:
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            # Code is cluster-generic; remember every cluster that uses
            # the entry so per-cluster invalidation covers all of them.
            entry.clusters.update(clusters)
            self.hits += 1
            return entry

    def store(self, key: Tuple, entry: CompiledQuery) -> None:
        with self._mutex:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                _, old = self._entries.popitem(last=False)
                linecache.cache.pop(old.filename, None)

    def next_tag(self) -> int:
        with self._mutex:
            self._seq += 1
            return self._seq

    def invalidate_cluster(self, cluster: str) -> None:
        with self._mutex:
            doomed = [key for key, entry in self._entries.items()
                      if cluster in entry.clusters]
            for key in doomed:
                entry = self._entries.pop(key)
                linecache.cache.pop(entry.filename, None)
            self.invalidations += len(doomed)

    def clear(self) -> None:
        with self._mutex:
            for entry in self._entries.values():
                linecache.cache.pop(entry.filename, None)
            self.invalidations += len(self._entries)
            self._entries.clear()

    def stats(self) -> dict:
        with self._mutex:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "entries": len(self._entries),
                "invalidations": self.invalidations,
                "compile_ns": self.compile_ns,
            }


#: Fallback cache for queries with no database in sight (pure-Python
#: sources feeding a fused join); the generated code for those touches
#: no clusters, so a process-wide cache is safe.
_GLOBAL_CACHE = CodegenCache()


def cache_for(db) -> CodegenCache:
    if db is None:
        return _GLOBAL_CACHE
    cache = getattr(db, "codegen_cache", None)
    return cache if cache is not None else _GLOBAL_CACHE


# ---------------------------------------------------------------------------
# predicate lowering
# ---------------------------------------------------------------------------

class _Ctx:
    """Collects runtime values referenced by the generated expression."""

    def __init__(self):
        self.consts: List[Any] = []
        self.funcs: List[Callable] = []
        self.guard_type = False   # inlined Compare: TypeError -> False
        self.guard_key = False    # __dict__ fast path: KeyError -> retry

    def const(self, value) -> str:
        self.consts.append(value)
        return "_c%d" % (len(self.consts) - 1)

    def func(self, fn) -> str:
        self.funcs.append(fn)
        return "_f%d" % (len(self.funcs) - 1)

    def guard(self) -> str:
        """The except clause for the batch-level retry, or ''."""
        excs = []
        if self.guard_type:
            excs.append("TypeError")
        if self.guard_key:
            excs.append("KeyError")
        if not excs:
            return ""
        if len(excs) == 1:
            return excs[0]
        return "(%s)" % ", ".join(excs)


def _attr_load(var: str, attr: str, cls, ctx: _Ctx,
               fast: bool = True) -> str:
    """Source for reading ``var.attr``.

    When the attribute is a plain scalar field (identity
    ``from_stored_hook``) on a statically-known class, read the stored
    slot directly — ``Field.__get__`` returns exactly
    ``obj.__dict__["_f_attr"]`` for those, and a missing slot (default
    never materialized) raises KeyError into the batch guard, which
    re-runs the batch through the safe compiled predicate.
    """
    if not attr.isidentifier() or keyword.iskeyword(attr):
        return "getattr(%s, %r)" % (var, attr)
    if fast and cls is not None:
        descr = getattr(cls, attr, None)
        if (isinstance(descr, Field)
                and type(descr).from_stored_hook is Field.from_stored_hook):
            ctx.guard_key = True
            return '%s.__dict__["_f_%s"]' % (var, attr)
    return "%s.%s" % (var, attr)


def _contains_opaque(pred) -> bool:
    """Whether *pred* contains user callables (or unknown node types).

    The batch-retry guard re-runs a whole batch through the safe closure
    when an inlined comparison raises; that would call side-effecting
    user callables twice per object, so predicates containing opaque
    parts are lowered in *safe* mode (closure calls, no guards) instead.
    """
    if isinstance(pred, (TrueP, Compare, AttrCompare)):
        return False
    if isinstance(pred, (And, Or)):
        return any(_contains_opaque(p) for p in pred.parts)
    if isinstance(pred, Not):
        return _contains_opaque(pred.part)
    return True


def _lower(pred, ctx: _Ctx, var: str = "obj", cls=None,
           safe: bool = False) -> str:
    """Lower a single-object predicate to an inline boolean expression.

    In *safe* mode comparison leaves call their compiled closures (exact
    per-object error semantics, no guards needed); otherwise they inline
    with the batch-retry guard providing Compare's TypeError swallowing.
    """
    if isinstance(pred, TrueP):
        return "True"
    if isinstance(pred, Compare):
        if safe:
            return "%s(%s)" % (ctx.func(pred.compiled()), var)
        ctx.guard_type = True
        return "(%s %s %s)" % (_attr_load(var, pred.attr, cls, ctx),
                               pred.op, ctx.const(pred.value))
    if isinstance(pred, AttrCompare):
        fast = not safe
        return "(%s %s %s)" % (
            _attr_load(var, pred.left, cls, ctx, fast=fast),
            pred.op,
            _attr_load(var, pred.right, cls, ctx, fast=fast))
    if isinstance(pred, And):
        return "(%s)" % " and ".join(_lower(p, ctx, var, cls, safe)
                                     for p in pred.parts)
    if isinstance(pred, Or):
        return "(%s)" % " or ".join(_lower(p, ctx, var, cls, safe)
                                    for p in pred.parts)
    if isinstance(pred, Not):
        return "(not %s)" % _lower(pred.part, ctx, var, cls, safe)
    if isinstance(pred, Callable_):
        return "%s(%s)" % (ctx.func(pred.func), var)
    if isinstance(pred, Predicate):
        # Unknown predicate subtype: call its safe compiled closure.
        return "%s(%s)" % (ctx.func(pred.compiled()), var)
    raise _CannotLower("not a predicate: %r" % (pred,))


def _lower_conjunct(conj, ctx: _Ctx, arity: int) -> str:
    """Lower one join residual conjunct over row variables o0..o{arity-1}.

    Join residuals run per emitted row (no batch to retry), so nothing
    here may diverge from the interpreted check even on type errors:
    VarCompare inners go through their safe compiled closure (which owns
    the Compare TypeError-swallowing), JoinCompare inlines the exact
    getattr comparison (which propagates TypeError, as interpreted), and
    opaque callables are called with the row unpacked.
    """
    if isinstance(conj, VarCompare):
        return "%s(o%d)" % (ctx.func(conj.inner.compiled()), conj.var)
    if isinstance(conj, JoinCompare):
        return "(%s %s %s)" % (
            _attr_load("o%d" % conj.lvar, conj.lattr, None, ctx, fast=False),
            conj.op,
            _attr_load("o%d" % conj.rvar, conj.rattr, None, ctx, fast=False))
    if isinstance(conj, Callable_):
        args = ", ".join("o%d" % i for i in range(arity))
        return "%s(%s)" % (ctx.func(conj.func), args)
    if isinstance(conj, Predicate):
        row = ", ".join("o%d" % i for i in range(arity))
        return "%s((%s,))" % (ctx.func(conj.compiled()), row)
    raise _CannotLower("not a predicate: %r" % (conj,))


# ---------------------------------------------------------------------------
# source emission helpers
# ---------------------------------------------------------------------------

class _Writer:
    def __init__(self):
        self.lines: List[str] = []
        self.indent = 1

    def w(self, text: str = "") -> None:
        self.lines.append("    " * self.indent + text if text else "")

    def source(self) -> str:
        return ("def %s(rt):\n" % _FN) + "\n".join(self.lines) + "\n"


def _emit_prologue(w: _Writer, ctx: _Ctx, *, db: bool = True,
                   check: bool = False, limit: bool = False) -> None:
    if db:
        w.w('db = rt["db"]')
        w.w("store = db.store")
    for i in range(len(ctx.consts)):
        w.w('_c%d = rt["c%d"]' % (i, i))
    for i in range(len(ctx.funcs)):
        w.w('_f%d = rt["f%d"]' % (i, i))
    if check:
        w.w('_check = rt["check"]')
    if limit:
        w.w('_limit = rt["limit"]')


def _emit_filter(w: _Writer, expr: Optional[str], guard: str, out_var: str,
                 in_var: str = "objs") -> None:
    """Emit ``out_var = [obj for obj in in_var if expr]`` with the
    batch-level retry through the safe predicate on guard exceptions."""
    if expr is None:
        w.w("%s = %s" % (out_var, in_var))
        return
    body = "%s = [obj for obj in %s if %s]" % (out_var, in_var, expr)
    if not guard:
        w.w(body)
        return
    w.w("try:")
    w.indent += 1
    w.w(body)
    w.indent -= 1
    w.w("except %s:" % guard)
    w.indent += 1
    w.w("%s = [obj for obj in %s if _check(obj)]" % (out_var, in_var))
    w.indent -= 1


def _emit_consume(w: _Writer, terminal: str, expr: Optional[str],
                  guard: str, has_limit: bool,
                  in_var: str = "objs") -> None:
    """Consume one batch of candidate objects for the given terminal."""
    if terminal == "count":
        if expr is None:
            w.w("n += len(%s)" % in_var)
            return
        body = "n += len([obj for obj in %s if %s])" % (in_var, expr)
        if not guard:
            w.w(body)
            return
        w.w("try:")
        w.indent += 1
        w.w(body)
        w.indent -= 1
        w.w("except %s:" % guard)
        w.indent += 1
        w.w("n += len([obj for obj in %s if _check(obj)])" % in_var)
        w.indent -= 1
        return
    if terminal == "collect":
        if expr is None:
            w.w("out.extend(%s)" % in_var)
            return
        body = "out.extend([obj for obj in %s if %s])" % (in_var, expr)
        if not guard:
            w.w(body)
            return
        w.w("try:")
        w.indent += 1
        w.w(body)
        w.indent -= 1
        w.w("except %s:" % guard)
        w.indent += 1
        w.w("out.extend([obj for obj in %s if _check(obj)])" % in_var)
        w.indent -= 1
        return
    # terminal == "iter"
    _emit_filter(w, expr, guard, "matched", in_var)
    if not has_limit:
        w.w("yield from matched")
    else:
        # _take checks the bound BEFORE yielding (limit(0) yields nothing)
        w.w("for obj in matched:")
        w.indent += 1
        w.w("if _n >= _limit:")
        w.indent += 1
        w.w("return")
        w.indent -= 1
        w.w("yield obj")
        w.w("_n += 1")
        w.indent -= 1


def _emit_cluster_scan(w: _Writer, terminal: str, expr: Optional[str],
                       guard: str, has_limit: bool, deep: bool) -> None:
    """The fused ``_iter_batches_one`` loop (+ optional hierarchy walk)."""
    if deep:
        w.w('for _cl in rt["hier"]():')
        w.indent += 1
        w.w("if not store.has_cluster(_cl):")
        w.indent += 1
        w.w("continue")
        w.indent -= 1
    else:
        w.w('_cl = rt["cluster"]')
        w.w("if store.has_cluster(_cl):")
        w.indent += 1
    w.w("if db._txn is not None and db._dirty:")
    w.indent += 1
    w.w("db._flush(db._txn.txn_id)")
    w.indent -= 1
    w.w("db._lock_cluster_scan(_cl)")
    w.w("_vis = db._scan_visibility(_cl)")
    w.w("_cget = db._cache.get")
    w.w("_mat = db._materialize_from_scan")
    # The MVCC overlay mirrors the interpreted _iter_batches_one loop:
    # history-flagged serials resolve through the visibility check, the
    # fast path notes serials in the seen-set, and a tail pass resurrects
    # objects whose records were deleted from the store mid-scan.
    w.w("if _vis is not None:")
    w.indent += 1
    w.w("_hget = _vis.hget")
    w.w("_needs = _vis.needs")
    w.w("_seen = _vis.seen")
    w.w("_vmat = _vis.materialize")
    w.w("_clean = _vis.batch_clean")
    w.indent -= 1
    w.w("for _batch in store.scan_batches(_cl):")
    w.indent += 1
    w.w("objs = []")
    w.w("_oa = objs.append")
    # Decide once per batch, after its bytes were read, whether the
    # per-head history probes are needed (registration-before-mutation
    # makes the post-read check sound — see _ScanVis.batch_clean).
    w.w("_checked = _vis is not None and not _clean()")
    w.w("for _serial in _batch.heads:")
    w.indent += 1
    w.w("if _checked:")
    w.indent += 1
    w.w("_hist = _hget(_serial)")
    w.w("if _hist is not None and _needs(_hist):")
    w.indent += 1
    w.w("obj = _vmat(_serial)")
    w.w("if obj is not None:")
    w.indent += 1
    w.w("_oa(obj)")
    w.indent -= 1
    w.w("continue")
    w.indent -= 2
    w.w("if _vis is not None:")
    w.indent += 1
    w.w("if _serial in _seen:")
    w.indent += 1
    w.w("continue")
    w.indent -= 1
    w.w("_seen.add(_serial)")
    w.indent -= 1
    w.w("obj = _cget((_cl, _serial))")
    w.w("if obj is None:")
    w.indent += 1
    w.w("obj = _mat(_cl, _serial, _batch)")
    w.indent -= 1
    w.w("if obj is not None:")
    w.indent += 1
    w.w("_oa(obj)")
    w.indent -= 2
    w.w("if objs:")
    w.indent += 1
    _emit_consume(w, terminal, expr, guard, has_limit)
    w.indent -= 2  # out of if objs + for batch
    w.w("if _vis is not None:")
    w.indent += 1
    w.w("objs = _vis.tail()")
    w.w("if objs:")
    w.indent += 1
    _emit_consume(w, terminal, expr, guard, has_limit)
    w.indent -= 2
    w.indent -= 1  # out of cluster guard / hierarchy loop


def _emit_index_chunks(w: _Writer, terminal: str, expr: Optional[str],
                       guard: str, has_limit: bool) -> None:
    """Consume an index plan's candidate chunks (``IndexPlan.chunks``: the
    one runtime copy of the probe, the materialization and the MVCC
    overlay) with the residual inlined. The streaming terminal chunks
    like the interpreted pipeline, so early-exiting consumers do the
    same work; eager terminals take everything at once, and a bare
    ``count()`` does not ask for objects at all."""
    if terminal == "iter":
        w.w("for objs in _chunks:")
    elif terminal == "count" and expr is None:
        w.w('for objs in rt["plan"].chunks(None, count_only=True):')
    else:
        w.w('for objs in rt["plan"].chunks(None, rt["keyed"]):')
    w.indent += 1
    _emit_consume(w, terminal, expr, guard, has_limit)
    w.indent -= 1


def _emit_collect_tail(w: _Writer, ordered: bool, elide_sort: bool,
                       has_limit: bool, join: bool = False) -> None:
    if ordered and not elide_sort:
        w.w('for _kf, _desc in rt["sortkeys"]:')
        w.indent += 1
        if join:
            w.w("out.sort(key=lambda _row, _k=_kf: _k(*_row), "
                "reverse=_desc)")
        else:
            w.w("out.sort(key=_kf, reverse=_desc)")
        w.indent -= 1
    if has_limit:
        w.w("del out[_limit:]")
    w.w("return out")


# ---------------------------------------------------------------------------
# single-source pipelines
# ---------------------------------------------------------------------------

def _single_spec(plan):
    """``(kind, cluster, cls, pred, db)`` for a supported plan, else None."""
    from ..core.clusters import ClusterHandle, DeepView
    if isinstance(plan, FullScan):
        src = plan.source
        if isinstance(src, ClusterHandle):
            return ("full", src.name, src.cls, plan.pred, src.db)
        if isinstance(src, DeepView):
            return ("deep", src.handle.name, None, plan.pred, src.handle.db)
        return None
    kind = _INDEX_KINDS.get(type(plan))
    if kind is not None:
        return (kind, plan.handle.name, plan.handle.cls, plan.residual,
                plan.handle.db)
    return None


#: The index plans share one generated pipeline; the kind only labels it.
_INDEX_KINDS = {IndexEquality: "eq", IndexRange: "range",
                CompositeScan: "comp"}


def _order_keys_ok(order) -> bool:
    from .predicates import AttrExpr
    for key, _desc in order:
        if not (isinstance(key, (AttrExpr, str)) or callable(key)):
            return False
    return True


def _sortkeys(q) -> List[Tuple[Callable, bool]]:
    from .iterate import _key_fn
    return [(_key_fn(key), desc) for key, desc in reversed(q._order)]


def _build_single_source(kind: str, terminal: str, expr: Optional[str],
                         guard: str, ctx: _Ctx, ordered: bool,
                         elide_sort: bool, has_limit: bool) -> str:
    w = _Writer()
    scan = kind in ("full", "deep")
    _emit_prologue(w, ctx, db=scan, check=bool(guard), limit=has_limit)
    if terminal == "iter":
        if not scan:
            # As interpreted: an equality plan probes here, range and
            # composite plans do nothing before the first pull.
            w.w('_chunks = rt["plan"].chunks(%d, rt["keyed"])' % INDEX_BATCH)
        w.w("def _rows():")
        w.indent += 1
        if has_limit:
            w.w("_n = 0")
        if scan:
            _emit_cluster_scan(w, "iter", expr, guard, has_limit,
                               deep=(kind == "deep"))
        else:
            _emit_index_chunks(w, "iter", expr, guard, has_limit)
        if not w.lines[-1].strip():
            w.w("pass")
        w.indent -= 1
        w.w("return _rows()")
        return w.source()
    # eager terminals: count / collect
    if terminal == "count":
        w.w("n = 0")
    else:
        w.w("out = []")
    if scan:
        _emit_cluster_scan(w, terminal, expr, guard, has_limit,
                           deep=(kind == "deep"))
    else:
        _emit_index_chunks(w, terminal, expr, guard, has_limit)
    if terminal == "count":
        w.w("return n")
    else:
        _emit_collect_tail(w, ordered, elide_sort, has_limit)
    return w.source()


def run_single(q, plan, terminal):
    """Execute a one-source Forall through generated code.

    *terminal* is ``"iter"`` (stream rows), ``"collect"`` (list after
    sort/limit) or ``"count"``.  Returns :data:`INELIGIBLE` when the
    lowering does not apply; execution errors from generated code
    propagate exactly as the interpreted pipeline's would.
    """
    spec = _single_spec(plan)
    if spec is None:
        return INELIGIBLE
    kind, cluster, cls, pred, db = spec
    if not enabled_for(db) or getattr(q, "_codegen_off", False):
        return INELIGIBLE
    ordered = bool(q._order)
    has_limit = q._limit is not None
    if terminal == "count" and (ordered or has_limit):
        return INELIGIBLE
    if terminal == "collect" and has_limit and not ordered:
        # Interpreted unordered to_list() streams through _take and
        # stops early; let the streaming terminal handle it instead.
        return INELIGIBLE
    elide_sort = q._sort_elided(plan)
    if terminal == "iter" and ordered and not elide_sort:
        # Interpreted materializes + sorts, then streams; do the same.
        rows = run_single(q, plan, "collect")
        return INELIGIBLE if rows is INELIGIBLE else iter(rows)
    if ordered and not elide_sort and not _order_keys_ok(q._order):
        return INELIGIBLE
    cache = cache_for(db)
    try:
        ctx = _Ctx()
        expr = None
        if not isinstance(pred, TrueP):
            expr = _lower(pred, ctx, "obj", cls,
                          safe=_contains_opaque(pred))
        guard = ctx.guard()
        key = ("single", kind, terminal, expr, guard, ordered,
               elide_sort, has_limit)
        clusters = frozenset((cluster,))
        entry = cache.lookup(key, clusters)
        if entry is None:
            t0 = time.perf_counter_ns()
            source = _build_single_source(kind, terminal, expr, guard, ctx,
                                          ordered, elide_sort, has_limit)
            fn, filename = _compile(source, cache)
            cache.compile_ns += time.perf_counter_ns() - t0
            entry = CompiledQuery(fn, source, filename, clusters,
                                  "fused %s %s" % (kind, terminal))
            cache.store(key, entry)
    except _CannotLower:
        return INELIGIBLE
    except Exception:
        if os.environ.get(_ENV_STRICT):
            raise
        return INELIGIBLE
    rt: Dict[str, Any] = {"db": db}
    for i, value in enumerate(ctx.consts):
        rt["c%d" % i] = value
    for i, fn_ in enumerate(ctx.funcs):
        rt["f%d" % i] = fn_
    if guard:
        rt["check"] = (pred.compiled() if isinstance(pred, Predicate)
                       else pred)
    if has_limit:
        rt["limit"] = q._limit
    if ordered and not elide_sort:
        rt["sortkeys"] = _sortkeys(q)
    if kind == "full":
        rt["cluster"] = cluster
    elif kind == "deep":
        rt["hier"] = plan.source.handle.hierarchy
    else:
        rt.update(plan=plan, keyed=elide_sort)
    return entry.fn(rt)


# ---------------------------------------------------------------------------
# join pipelines
# ---------------------------------------------------------------------------

def _join_db(q):
    for source in q._sources:
        db = getattr(source, "db", None)
        if db is None:
            handle = getattr(source, "handle", None)
            db = getattr(handle, "db", None)
        if db is not None:
            return db
    return None


def _join_clusters(q) -> frozenset:
    names = []
    for source in q._sources:
        name = getattr(source, "name", None)
        if name is None:
            handle = getattr(source, "handle", None)
            name = getattr(handle, "name", None)
        if name is not None:
            names.append(name)
    return frozenset(names)


def _join_eligible(q, terminal: str):
    """Shared join eligibility; returns (db, ordered) or INELIGIBLE."""
    db = _join_db(q)
    if not enabled_for(db) or getattr(q, "_codegen_off", False):
        return INELIGIBLE
    ordered = bool(q._order)
    has_limit = q._limit is not None
    if terminal == "count" and (ordered or has_limit):
        return INELIGIBLE
    if terminal == "collect" and has_limit and not ordered:
        return INELIGIBLE
    if ordered:
        from .predicates import AttrExpr
        for key, _desc in q._order:
            if not callable(key) or isinstance(key, AttrExpr):
                return INELIGIBLE  # interpreted raises; keep that path
    return db, ordered


def _emit_join_terminal(w: _Writer, terminal: str, arity: int,
                        has_limit: bool) -> None:
    row = ", ".join("o%d" % i for i in range(arity))
    if terminal == "count":
        w.w("n += 1")
    elif terminal == "collect":
        w.w("out.append((%s))" % (row + ("," if arity == 1 else "")))
    else:
        if has_limit:
            w.w("if _n >= _limit:")
            w.indent += 1
            w.w("return")
            w.indent -= 1
        w.w("yield (%s)" % (row + ("," if arity == 1 else "")))
        if has_limit:
            w.w("_n += 1")


def _emit_join_head(w: _Writer, terminal: str, ctx: _Ctx,
                    has_limit: bool, db_backed: bool) -> None:
    _emit_prologue(w, ctx, db=db_backed, limit=has_limit)
    if terminal == "count":
        w.w("n = 0")
    elif terminal == "collect":
        w.w("out = []")


def _emit_join_tail(w: _Writer, terminal: str, ordered: bool,
                    has_limit: bool) -> None:
    if terminal == "count":
        w.w("return n")
    elif terminal == "collect":
        _emit_collect_tail(w, ordered, False, has_limit, join=True)


def _key_expr(var: str, attrs: List[str], ctx: _Ctx) -> str:
    loads = [_attr_load(var if v is None else "o%d" % v, a, None, ctx,
                        fast=False)
             for v, a in attrs]
    if len(loads) == 1:
        return loads[0]
    return "(%s)" % ", ".join(loads)


def run_fused_join(q, terminal):
    """Execute a V-predicate join through generated code."""
    elig = _join_eligible(q, terminal)
    if elig is INELIGIBLE:
        return INELIGIBLE
    db, ordered = elig
    has_limit = q._limit is not None
    arity = len(q._sources)
    try:
        plans, eq_pairs, residual_at = q._fusion()
    except Exception:
        return INELIGIBLE  # interpreted path reports the error
    from .iterate import _orient
    per_level_keys = []
    swap = False
    for k in range(1, arity):
        keys = [_orient(jc, k) for jc in eq_pairs
                if max(jc.lvar, jc.rvar) == k]
        per_level_keys.append(keys)
    if arity >= 2 and per_level_keys[0]:
        swap = plans[0].estimated_rows < plans[1].estimated_rows
    cache = cache_for(db)
    try:
        ctx = _Ctx()
        resid_exprs: List[List[str]] = []
        for k in range(arity):
            resid_exprs.append([_lower_conjunct(c, ctx, k + 1)
                                for c in residual_at[k]])
        keys_sig = tuple(tuple(keys) for keys in per_level_keys)
        resid_sig = tuple(tuple(es) for es in resid_exprs)
        key = ("fused", arity, keys_sig, resid_sig, swap, terminal,
               ordered, has_limit)
        clusters = _join_clusters(q)
        entry = cache.lookup(key, clusters)
        if entry is None:
            t0 = time.perf_counter_ns()
            source = _build_fused_join(arity, per_level_keys, resid_exprs,
                                       swap, terminal, ctx, ordered,
                                       has_limit)
            fn, filename = _compile(source, cache)
            cache.compile_ns += time.perf_counter_ns() - t0
            entry = CompiledQuery(fn, source, filename, clusters,
                                  "fused hash join")
            cache.store(key, entry)
    except _CannotLower:
        return INELIGIBLE
    except Exception:
        if os.environ.get(_ENV_STRICT):
            raise
        return INELIGIBLE
    rt: Dict[str, Any] = {"plans": plans, "E": ()}
    for i, value in enumerate(ctx.consts):
        rt["c%d" % i] = value
    for i, fn_ in enumerate(ctx.funcs):
        rt["f%d" % i] = fn_
    if has_limit:
        rt["limit"] = q._limit
    if ordered:
        rt["sortkeys"] = [(key_, desc) for key_, desc in reversed(q._order)]
    return entry.fn(rt)


def _build_fused_join(arity: int, per_level_keys, resid_exprs, swap: bool,
                      terminal: str, ctx: _Ctx, ordered: bool,
                      has_limit: bool) -> str:
    """Left-deep hash-join chain as straight-line nested loops.

    Plan execution order matches the interpreted chain exactly: stage 0
    executes first (the interpreted code builds its row generator
    eagerly), then on demand sources arity-1 down to 1 execute and build
    their hash tables, then the probe nest streams.
    """
    w = _Writer()
    _emit_join_head(w, terminal, ctx, has_limit, db_backed=False)
    w.w('_plans = rt["plans"]')
    w.w('_E = rt["E"]')
    w.w("_p0 = _plans[0].execute()")
    streaming = terminal == "iter"
    if streaming:
        w.w("def _rows():")
        w.indent += 1
        if has_limit:
            w.w("_n = 0")
    # Build sides, highest k first (interpreted pull order).
    for k in range(arity - 1, 0, -1):
        keys = per_level_keys[k - 1]
        if k == 1 and swap:
            w.w("_r1 = _plans[1].execute()")
            continue
        if not keys:
            w.w("_items%d = list(_plans[%d].execute())" % (k, k))
            continue
        w.w("_t%d = {}" % k)
        w.w("for o%d in _plans[%d].execute():" % (k, k))
        w.indent += 1
        build = _key_expr(None, [(k, b) for _, _, b in keys], ctx)
        w.w("_t%d.setdefault(%s, []).append(o%d)" % (k, build, k))
        w.indent -= 1

    def emit_level(k: int) -> int:
        """Emit the loop introducing o{k}; returns indents consumed."""
        used = 0
        if k == 0:
            w.w("for o0 in _p0:")
            w.indent += 1
            used += 1
        else:
            keys = per_level_keys[k - 1]
            if not keys:
                w.w("for o%d in _items%d:" % (k, k))
                w.indent += 1
                used += 1
            else:
                probe = _key_expr(None, [(v, a) for v, a, _ in keys], ctx)
                w.w("for o%d in _t%d.get(%s, _E):" % (k, k, probe))
                w.indent += 1
                used += 1
        for expr in resid_exprs[k]:
            w.w("if not %s:" % expr)
            w.indent += 1
            w.w("continue")
            w.indent -= 1
        return used

    depth = 0
    if swap and arity >= 2:
        # k==1 with the smaller left side: build on stage 0, stream 1.
        keys = per_level_keys[0]
        w.w("_t0 = {}")
        w.w("for o0 in _p0:")
        w.indent += 1
        for expr in resid_exprs[0]:
            w.w("if not %s:" % expr)
            w.indent += 1
            w.w("continue")
            w.indent -= 1
        build0 = _key_expr(None, [(v, a) for v, a, _ in keys], ctx)
        w.w("_t0.setdefault(%s, []).append(o0)" % build0)
        w.indent -= 1
        w.w("for o1 in _r1:")
        w.indent += 1
        depth += 1
        probe1 = _key_expr(None, [(1, b) for _, _, b in keys], ctx)
        w.w("for o0 in _t0.get(%s, _E):" % probe1)
        w.indent += 1
        depth += 1
        for expr in resid_exprs[1]:
            w.w("if not %s:" % expr)
            w.indent += 1
            w.w("continue")
            w.indent -= 1
        start = 2
    else:
        depth += emit_level(0)
        start = 1
    for k in range(start, arity):
        depth += emit_level(k)
    _emit_join_terminal(w, terminal, arity, has_limit)
    w.indent -= depth
    if streaming:
        w.indent -= 1
        w.w("return _rows()")
    else:
        _emit_join_tail(w, terminal, ordered, has_limit)
    return w.source()


def run_hash_join(q, terminal):
    """Execute a ``join_on`` hash equijoin through generated code."""
    specs = getattr(q, "_join_key_specs", None)
    if specs is None:
        return INELIGIBLE
    pred = q._pred
    if pred is not None and (isinstance(pred, Predicate)
                             or not callable(pred)):
        return INELIGIBLE  # interpreted path raises QueryError
    elig = _join_eligible(q, terminal)
    if elig is INELIGIBLE:
        return INELIGIBLE
    db, ordered = elig
    has_limit = q._limit is not None
    arity = len(q._sources)
    from .predicates import AttrExpr
    cache = cache_for(db)
    try:
        ctx = _Ctx()
        key_exprs = []
        for spec in specs:
            if isinstance(spec, AttrExpr):
                key_exprs.append(("attr", spec.name))
            elif isinstance(spec, str):
                key_exprs.append(("attr", spec))
            elif callable(spec):
                key_exprs.append(("call", ctx.func(spec)))
            else:
                return INELIGIBLE
        check_name = ctx.func(pred) if pred is not None else None
        key = ("hashjoin", arity, tuple(key_exprs), check_name is not None,
               terminal, ordered, has_limit)
        clusters = _join_clusters(q)
        entry = cache.lookup(key, clusters)
        if entry is None:
            t0 = time.perf_counter_ns()
            source = _build_hash_join(arity, key_exprs, check_name,
                                      terminal, ctx, ordered, has_limit)
            fn, filename = _compile(source, cache)
            cache.compile_ns += time.perf_counter_ns() - t0
            entry = CompiledQuery(fn, source, filename, clusters,
                                  "hash equijoin")
            cache.store(key, entry)
    except Exception:
        if os.environ.get(_ENV_STRICT):
            raise
        return INELIGIBLE
    rt: Dict[str, Any] = {"sources": q._sources, "E": ()}
    for i, fn_ in enumerate(ctx.funcs):
        rt["f%d" % i] = fn_
    for i, value in enumerate(ctx.consts):
        rt["c%d" % i] = value
    if has_limit:
        rt["limit"] = q._limit
    if ordered:
        rt["sortkeys"] = [(key_, desc) for key_, desc in reversed(q._order)]
    return entry.fn(rt)


def _jk_expr(kind_name, var: str, ctx: _Ctx) -> str:
    kind, name = kind_name
    if kind == "attr":
        return _attr_load(var, name, None, ctx, fast=False)
    return "%s(%s)" % (name, var)


def _build_hash_join(arity: int, key_exprs, check_name, terminal: str,
                     ctx: _Ctx, ordered: bool, has_limit: bool) -> str:
    w = _Writer()
    _emit_join_head(w, terminal, ctx, has_limit, db_backed=False)
    w.w('_sources = rt["sources"]')
    w.w('_E = rt["E"]')
    streaming = terminal == "iter"
    if streaming:
        w.w("def _rows():")
        w.indent += 1
        if has_limit:
            w.w("_n = 0")
    for k in range(1, arity):
        w.w("_t%d = {}" % k)
        w.w("for _it in _sources[%d]:" % k)
        w.indent += 1
        w.w("_t%d.setdefault(%s, []).append(_it)"
            % (k, _jk_expr(key_exprs[k], "_it", ctx)))
        w.indent -= 1
    w.w("for o0 in _sources[0]:")
    w.indent += 1
    w.w("_jk = %s" % _jk_expr(key_exprs[0], "o0", ctx))
    depth = 1
    for k in range(1, arity):
        w.w("for o%d in _t%d.get(_jk, _E):" % (k, k))
        w.indent += 1
        depth += 1
    if check_name is not None:
        args = ", ".join("o%d" % i for i in range(arity))
        w.w("if %s(%s):" % (check_name, args))
        w.indent += 1
        depth += 1
    _emit_join_terminal(w, terminal, arity, has_limit)
    w.indent -= depth
    if streaming:
        w.indent -= 1
        w.w("return _rows()")
    else:
        _emit_join_tail(w, terminal, ordered, has_limit)
    return w.source()


def run_nested_join(q, terminal):
    """Execute an opaque-predicate (or unfiltered) cross product through
    generated nested loops.  Inner sources are re-iterated per outer row,
    exactly like the interpreted recursive expansion."""
    pred = q._pred
    if pred is not None and (isinstance(pred, Predicate)
                             or not callable(pred)):
        return INELIGIBLE  # multivar handled elsewhere; else interpreted raises
    elig = _join_eligible(q, terminal)
    if elig is INELIGIBLE:
        return INELIGIBLE
    db, ordered = elig
    has_limit = q._limit is not None
    arity = len(q._sources)
    cache = cache_for(db)
    try:
        ctx = _Ctx()
        check_name = ctx.func(pred) if pred is not None else None
        key = ("nested", arity, check_name is not None, terminal, ordered,
               has_limit)
        clusters = _join_clusters(q)
        entry = cache.lookup(key, clusters)
        if entry is None:
            t0 = time.perf_counter_ns()
            source = _build_nested_join(arity, check_name, terminal, ctx,
                                        ordered, has_limit)
            fn, filename = _compile(source, cache)
            cache.compile_ns += time.perf_counter_ns() - t0
            entry = CompiledQuery(fn, source, filename, clusters,
                                  "nested-loop join")
            cache.store(key, entry)
    except Exception:
        if os.environ.get(_ENV_STRICT):
            raise
        return INELIGIBLE
    rt: Dict[str, Any] = {"sources": q._sources}
    for i, fn_ in enumerate(ctx.funcs):
        rt["f%d" % i] = fn_
    if has_limit:
        rt["limit"] = q._limit
    if ordered:
        rt["sortkeys"] = [(key_, desc) for key_, desc in reversed(q._order)]
    return entry.fn(rt)


def _build_nested_join(arity: int, check_name, terminal: str, ctx: _Ctx,
                       ordered: bool, has_limit: bool) -> str:
    w = _Writer()
    _emit_join_head(w, terminal, ctx, has_limit, db_backed=False)
    w.w('_sources = rt["sources"]')
    streaming = terminal == "iter"
    if streaming:
        w.w("def _rows():")
        w.indent += 1
        if has_limit:
            w.w("_n = 0")
    depth = 0
    for k in range(arity):
        w.w("for o%d in _sources[%d]:" % (k, k))
        w.indent += 1
        depth += 1
    if check_name is not None:
        args = ", ".join("o%d" % i for i in range(arity))
        w.w("if %s(%s):" % (check_name, args))
        w.indent += 1
        depth += 1
    _emit_join_terminal(w, terminal, arity, has_limit)
    w.indent -= depth
    if streaming:
        w.indent -= 1
        w.w("return _rows()")
    else:
        _emit_join_tail(w, terminal, ordered, has_limit)
    return w.source()


def run_join(q, terminal):
    """Dispatch a multi-source Forall to the matching join lowering."""
    from .predicates import is_multivar
    if terminal == "iter" and q._order:
        # Interpreted ordered joins materialize + sort before streaming.
        rows = run_join(q, "collect")
        return INELIGIBLE if rows is INELIGIBLE else iter(rows)
    if q._join_keys is not None:
        return run_hash_join(q, terminal)
    if is_multivar(q._pred):
        return run_fused_join(q, terminal)
    return run_nested_join(q, terminal)


# ---------------------------------------------------------------------------
# compile + linecache registration
# ---------------------------------------------------------------------------

def _compile(source: str, cache: CodegenCache) -> Tuple[Callable, str]:
    filename = "<ode-codegen:%d>" % cache.next_tag()
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    namespace: Dict[str, Any] = {}
    exec(code, namespace)
    return namespace[_FN], filename


# ---------------------------------------------------------------------------
# explain support
# ---------------------------------------------------------------------------

def would_run(q) -> bool:
    """Cheap check: would the untraced execution use generated code?

    Used by the traced pipeline to annotate its span header; approximate
    (ignores rarely-hit ordering edge cases) but never costs a compile.
    """
    if getattr(q, "_codegen_off", False):
        return False
    if len(q._sources) == 1:
        try:
            plan = q._single_plan()
        except Exception:
            return False
        spec = _single_spec(plan)
        return spec is not None and enabled_for(spec[4])
    if not enabled_for(_join_db(q)):
        return False
    from .predicates import is_multivar
    if q._join_keys is not None:
        return (getattr(q, "_join_key_specs", None) is not None
                and not isinstance(q._pred, Predicate))
    if is_multivar(q._pred):
        return True
    return q._pred is None or (callable(q._pred)
                               and not isinstance(q._pred, Predicate))

def describe_mode(q) -> Tuple[str, Optional[str]]:
    """``(mode_line, generated_source_or_None)`` for ``explain``.

    Probes eligibility without executing: compiles (and caches) the
    pipeline a subsequent run would use.  Mode is ``compiled`` when any
    of the query's terminals would run generated code.
    """
    if q._trace_on:
        return ("interpreted (traced)", None)
    probe = None
    if len(q._sources) == 1:
        try:
            plan = q._single_plan()
        except Exception:
            return ("interpreted", None)
        spec = _single_spec(plan)
        if spec is not None and enabled_for(spec[4]) \
                and not getattr(q, "_codegen_off", False):
            try:
                ctx = _Ctx()
                pred = spec[3]
                expr = (None if isinstance(pred, TrueP)
                        else _lower(pred, ctx, "obj", spec[2],
                                    safe=_contains_opaque(pred)))
                terminal = "collect" if q._order else "iter"
                has_limit = q._limit is not None
                if terminal == "iter" and has_limit:
                    pass
                elide = q._sort_elided(plan)
                source = _build_single_source(
                    spec[0], terminal, expr, ctx.guard(), ctx,
                    bool(q._order), elide, has_limit)
                probe = source
            except Exception:
                probe = None
            if probe is not None:
                return ("compiled (fused %s)" % spec[0], probe)
        return ("interpreted", None)
    # joins: dry-run the lowering for the streaming terminal
    result = _probe_join_source(q)
    if result is not None:
        mode, source = result
        return ("compiled (%s)" % mode, source)
    return ("interpreted", None)


def _probe_join_source(q):
    from .predicates import is_multivar
    db = _join_db(q)
    if not enabled_for(db) or getattr(q, "_codegen_off", False):
        return None
    has_limit = q._limit is not None
    ordered = bool(q._order)
    try:
        if q._join_keys is not None:
            specs = getattr(q, "_join_key_specs", None)
            if specs is None or isinstance(q._pred, Predicate):
                return None
            from .predicates import AttrExpr
            ctx = _Ctx()
            key_exprs = []
            for spec in specs:
                if isinstance(spec, AttrExpr):
                    key_exprs.append(("attr", spec.name))
                elif isinstance(spec, str):
                    key_exprs.append(("attr", spec))
                elif callable(spec):
                    key_exprs.append(("call", ctx.func(spec)))
                else:
                    return None
            check = ctx.func(q._pred) if q._pred is not None else None
            return ("hash equijoin", _build_hash_join(
                len(q._sources), key_exprs, check, "iter", ctx, ordered,
                has_limit))
        if is_multivar(q._pred):
            plans, eq_pairs, residual_at = q._fusion()
            from .iterate import _orient
            arity = len(q._sources)
            per_level_keys = [
                [_orient(jc, k) for jc in eq_pairs
                 if max(jc.lvar, jc.rvar) == k]
                for k in range(1, arity)]
            swap = bool(arity >= 2 and per_level_keys[0]
                        and plans[0].estimated_rows
                        < plans[1].estimated_rows)
            ctx = _Ctx()
            resid_exprs = [[_lower_conjunct(c, ctx, k + 1)
                            for c in residual_at[k]] for k in range(arity)]
            return ("fused hash join", _build_fused_join(
                arity, per_level_keys, resid_exprs, swap, "iter", ctx,
                ordered, has_limit))
        if q._pred is None or not isinstance(q._pred, Predicate):
            ctx = _Ctx()
            check = ctx.func(q._pred) if q._pred is not None else None
            return ("nested-loop join", _build_nested_join(
                len(q._sources), check, "iter", ctx, ordered, has_limit))
    except Exception:
        return None
    return None

"""Expression compilation: expressions are generated, loops are code.

The ``forall`` pipeline (:mod:`repro.query.iterate`) is ordinary Python
that moves *chunks* of candidate objects from a plan through a batch
filter into a terminal. What it evaluates per object — the residual
``suchthat`` predicate, and for joins the hash keys and the cross-variable
conjuncts — is a tree of :class:`~repro.query.predicates.Predicate`
nodes, and walking that tree through closures costs a call per node per
object. This module lowers such a tree into one Python *expression*,
wraps it in the smallest function that can run it over a chunk, and
``compile()``s that once:

* :func:`batch_filter` — a residual becomes
  ``filter(objs) -> [obj for obj in objs if <inlined expr>]``, with a
  ``__dict__`` fast path for plain scalar fields;
* :func:`join_steps` — per join level, ``probe(row)`` / ``build(obj)``
  key extractors and a ``check(row, obj)`` over a prefix row and the
  object that would extend it.

Nothing here loops over storage, takes a lock or knows a plan: the
generated code is a pure function of its source text, which is therefore
the whole cache key — there is nothing to invalidate. Values that vary
between executions (constants, opaque callables) are arguments of the
generated factory, bound per query.

**Error parity.** Inlined ``A.field <op> const`` comparisons replicate
:class:`Compare`'s TypeError-swallowing by re-running the chunk through
the predicate's safe ``compiled()`` closure when the inlined expression
raises (a missing ``__dict__`` slot raises KeyError into the same
retry); predicates with opaque callables are lowered in *safe* mode —
closure calls, no retry — so a side-effecting callable never runs twice
per object. ``A.x < A.y`` and ``V[i].x < V[j].y`` propagate TypeError
exactly like :class:`AttrCompare` / :class:`JoinCompare` do.

Only :class:`_CannotLower` means "no lowering" (the caller then uses the
``Predicate.compiled()`` closures); any other exception while generating
is a bug and propagates. ``db.codegen_enabled = False`` (per database)
or ``q.codegen(False)`` (per query) select the closures for everything —
the reference the differential tests compare against.

Generated sources are registered in :mod:`linecache` under
``<ode-codegen:N>`` filenames so tracebacks show them, and
``Forall.explain(code=True)`` prints them.
"""

from __future__ import annotations

import keyword
import linecache
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, List, Sequence, Tuple

from ..core.fields import Field
from .predicates import (And, AttrCompare, Callable_, Compare, JoinCompare,
                         Not, Or, Predicate, TrueP, VarCompare)

_FN = "__ode_make"


def enabled_for(db) -> bool:
    """Whether codegen applies for queries against *db* (None = no db)."""
    return db is None or getattr(db, "codegen_enabled", True)


class _CannotLower(Exception):
    """Raised internally when a predicate has no lowering."""


# ---------------------------------------------------------------------------
# compiled-expression cache
# ---------------------------------------------------------------------------

class Compiled:
    """One generated factory plus its debugging metadata."""

    __slots__ = ("make", "source", "filename")

    def __init__(self, make: Callable, source: str, filename: str):
        self.make = make
        self.source = source
        self.filename = filename


class CodegenCache:
    """LRU cache of generated factories, keyed by their source text."""

    def __init__(self, capacity: int = 256):
        self._capacity = capacity
        self._entries: "OrderedDict[str, Compiled]" = OrderedDict()
        self._mutex = threading.RLock()
        self._seq = 0
        self.hits = 0
        self.misses = 0
        #: Cumulative nanoseconds spent ``compile()``ing.
        self.compile_ns = 0

    def compiled(self, source: str) -> Compiled:
        """The factory for *source*, compiling it on first sight."""
        with self._mutex:
            entry = self._entries.get(source)
            if entry is not None:
                self._entries.move_to_end(source)
                self.hits += 1
                return entry
            self.misses += 1
            t0 = time.perf_counter_ns()
            filename = "<ode-codegen:%d>" % self.next_tag()
            code = compile(source, filename, "exec")
            linecache.cache[filename] = (len(source), None,
                                         source.splitlines(True), filename)
            namespace: dict = {}
            exec(code, namespace)
            entry = Compiled(namespace[_FN], source, filename)
            self.compile_ns += time.perf_counter_ns() - t0
            self._entries[source] = entry
            while len(self._entries) > self._capacity:
                _, old = self._entries.popitem(last=False)
                linecache.cache.pop(old.filename, None)
            return entry

    def next_tag(self) -> int:
        with self._mutex:
            self._seq += 1
            return self._seq

    def stats(self) -> dict:
        with self._mutex:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
                "entries": len(self._entries),
                "compile_ns": self.compile_ns,
            }


#: Cache for queries with no database in sight (pure-Python sources).
_GLOBAL_CACHE = CodegenCache()


def cache_for(db) -> CodegenCache:
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
        """The except clause for the chunk-level retry, or ''."""
        excs = []
        if self.guard_type:
            excs.append("TypeError")
        if self.guard_key:
            excs.append("KeyError")
        if len(excs) == 2:
            return "(%s)" % ", ".join(excs)
        return "".join(excs)

    def factory(self, body: Sequence[str]) -> str:
        """Source of the factory taking this context's values (then
        ``_safe``, see :meth:`bind`) and running *body*."""
        params = ["_c%d" % i for i in range(len(self.consts))]
        params += ["_f%d" % i for i in range(len(self.funcs))]
        return "def %s(%s):\n%s\n" % (
            _FN, ", ".join(params + ["_safe"]),
            "\n".join("    " + ln for ln in body))

    def bind(self, entry: Compiled, safe=None):
        """What *entry*'s factory makes of this context's values; *safe*
        returns the closure a guarded body retries through."""
        return entry.make(*self.consts, *self.funcs, safe)


def _attr_load(var: str, attr: str, cls, ctx: _Ctx,
               fast: bool = True) -> str:
    """Source for reading ``var.attr``.

    When the attribute is a plain scalar field (identity
    ``from_stored_hook``) on a statically-known class, read the stored
    slot directly — ``Field.__get__`` returns exactly
    ``obj.__dict__["_f_attr"]`` for those, and a missing slot (default
    never materialized) raises KeyError into the chunk guard, which
    re-runs the chunk through the safe compiled predicate.
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

    The chunk-retry guard re-runs a whole chunk through the safe closure
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
    with the chunk-retry guard providing Compare's TypeError swallowing.
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


def _lower_conjunct(conj, ctx: _Ctx, k: int) -> str:
    """Lower one residual conjunct of join level *k* over the prefix row
    ``row`` (variables below *k*) and the candidate ``obj`` (variable
    *k*), which is judged before the extended row exists.

    Join residuals run per pair (no chunk to retry), so nothing here may
    diverge from the closure check even on type errors: VarCompare
    inners go through their safe compiled closure (which owns the
    Compare TypeError-swallowing), JoinCompare inlines the exact getattr
    comparison (which propagates TypeError, as the closure does), and
    opaque callables are called with one argument per variable.
    """
    def var(v: int) -> str:
        return "obj" if v == k else "row[%d]" % v

    if isinstance(conj, VarCompare):
        return "%s(%s)" % (ctx.func(conj.inner.compiled()), var(conj.var))
    if isinstance(conj, JoinCompare):
        return "(%s %s %s)" % (
            _attr_load(var(conj.lvar), conj.lattr, None, ctx),
            conj.op,
            _attr_load(var(conj.rvar), conj.rattr, None, ctx))
    if isinstance(conj, Callable_):
        return "%s(%s)" % (ctx.func(conj.func),
                           ", ".join(var(v) for v in range(k + 1)))
    if isinstance(conj, Predicate):
        return "%s(row + (obj,))" % ctx.func(conj.compiled())
    raise _CannotLower("not a predicate: %r" % (conj,))


# ---------------------------------------------------------------------------
# the two builders
# ---------------------------------------------------------------------------

def batch_filter(pred: Predicate, cls, cache: CodegenCache
                 ) -> Tuple[Callable, str]:
    """``(keep, source)``: ``keep(objs)`` is the list of the *objs*
    satisfying *pred*, evaluated as one generated expression. *cls* is
    the exact class of every object when the caller knows it (enables
    the stored-slot fast path), else None."""
    ctx = _Ctx()
    expr = _lower(pred, ctx, "obj", cls, safe=_contains_opaque(pred))
    guard = ctx.guard()
    body = ["def keep(objs):"]
    if guard:
        body += ["    try:",
                 "        return [obj for obj in objs if %s]" % expr,
                 "    except %s:" % guard,
                 "        check = _safe()",
                 "        return [obj for obj in objs if check(obj)]"]
    else:
        body += ["    return [obj for obj in objs if %s]" % expr]
    body += ["return keep"]
    entry = cache.compiled(ctx.factory(body))
    return ctx.bind(entry, pred.compiled), entry.source


def _key(loads: List[str]) -> str:
    return loads[0] if len(loads) == 1 else "(%s)" % ", ".join(loads)


def join_steps(levels: Sequence[Tuple[Sequence[Tuple[int, str, str]],
                                      Sequence[Predicate]]],
               cache: CodegenCache) -> Tuple[List[Tuple], str]:
    """``(steps, source)`` for a left-deep join.

    ``levels[k]`` describes how source *k* joins the prefix row of
    sources ``0..k-1``: its hash keys as ``(probe_var, probe_attr,
    build_attr)`` triples and the residual conjuncts that become
    checkable once variable *k* is bound. ``steps[k]`` is the matching
    ``(probe, build, check)``: ``probe(row)`` keys the prefix row,
    ``build(obj)`` keys an object of source *k* (both None without
    keys), ``check(row, obj)`` judges the pair (None when there is
    nothing to check).
    """
    ctx = _Ctx()
    body = ["return ("]
    for k, (keys, conjuncts) in enumerate(levels):
        probe = build = check = "None"
        if keys:
            probe = "lambda row: " + _key(
                [_attr_load("row[%d]" % v, a, None, ctx) for v, a, _ in keys])
            build = "lambda obj: " + _key(
                [_attr_load("obj", b, None, ctx) for _, _, b in keys])
        if conjuncts:
            check = "lambda row, obj: " + " and ".join(
                _lower_conjunct(c, ctx, k) for c in conjuncts)
        body.append("    (%s, %s, %s)," % (probe, build, check))
    body.append(")")
    entry = cache.compiled(ctx.factory(body))
    return list(ctx.bind(entry)), entry.source

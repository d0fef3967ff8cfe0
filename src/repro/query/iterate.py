"""The ``forall`` iteration facility (paper section 3.1).

O++ writes::

    for i in 1..n forall t in stock suchthat (t->price < 3.00) by (t->name)
        { ... }

Here the same query is::

    for t in forall(stock).suchthat(A.price < 3.00).by(A.name):
        ...

and the join over multiple loop variables (3.1's employee/child example,
"Rigel also allows multiple loop variables") is::

    for e, c in forall(emps, kids).suchthat(lambda e, c: e.name == c.parent):
        ...

Semantics, as the paper specifies:

* ``suchthat`` restricts the iteration subset; ``by`` orders it (stable
  sort; ``by(..., desc=True)`` reverses). Without ``by`` the iteration
  order is unspecified (physical order in practice).
* Multiple sources form their cross product; the suchthat clause receives
  one argument per loop variable. Equality predicates between variables
  are executed as hash joins instead of nested loops.
* A single-source iteration **without** ``by`` visits elements inserted
  during the iteration — section 3.2's fixpoint property. (An ordered
  iteration necessarily snapshots, as sorting requires the full subset.)
* Single-source introspectable predicates are handed to the optimizer,
  which uses a secondary index when one matches (equality or range).

``forall`` accepts cluster handles, deep views (``cluster.deep()``),
OdeSets, lists — anything re-iterable.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain, islice
from typing import Any, Callable, Iterator, List, Optional, Tuple

from ..core.clusters import ClusterHandle
from ..errors import QueryError
from ..obs.trace import QueryTracer, render_trace
from . import codegen as _codegen
from .optimizer import (INDEX_BATCH, FullScan, IndexPlan, IndexRange,
                        choose_plan)
from .predicates import (And, AttrExpr, Callable_, JoinCompare, Predicate,
                         TrueP, VarCompare, as_predicate, is_multivar,
                         max_var)


class Forall:
    """A lazily-executed iteration over one or more sources."""

    def __init__(self, *sources):
        if not sources:
            raise QueryError("forall needs at least one source")
        self._sources = sources
        self._pred: Optional[Any] = None       # Predicate or callable
        self._order: List[Tuple[Any, bool]] = []  # (key, desc) pairs
        self._join_keys: Optional[List[Callable]] = None  # hash equijoin
        self._limit: Optional[int] = None
        #: Per-query opt-out from generated-code execution.
        self._codegen_off = False
        #: The chosen plan, kept across iterations of the same Forall
        #: (re-validated against the database's index-DDL epoch).
        self._plan = None
        self._plan_epoch = -1
        #: ``(plan, cache, keep, sources)``: the single-source batch
        #: filter, made once per plan and evaluator.
        self._filter = None
        #: Tracing: trace() turns it on, last_trace holds the span tree
        #: of the most recent traced run.
        self._trace_on = False
        self._last_trace = None

    # -- clause builders (each returns self for chaining) ---------------------

    def suchthat(self, condition) -> "Forall":
        """Restrict the iteration subset (predicate or callable)."""
        if self._pred is not None:
            raise QueryError("suchthat may only be given once; combine "
                             "conditions with & / and")
        self._pred = condition
        return self

    def by(self, *keys, desc: bool = False) -> "Forall":
        """Order the subset by one or more keys (AttrExpr, field name, or
        key function). Multiple by() calls refine ties, as do multiple
        keys in one call."""
        for key in keys:
            self._order.append((key, desc))
        return self

    def trace(self, on: bool = True) -> "Forall":
        """Record per-operator spans (rows, pages, time) while iterating.

        After a traced iteration, :attr:`last_trace` holds the span tree
        and ``explain(analyze=True)`` renders it. A traced run is the
        untraced pipeline with each operator's chunks counted and timed;
        it returns the same rows in the same order, as lazily.
        """
        self._trace_on = on
        return self

    @property
    def last_trace(self):
        """Root :class:`~repro.obs.trace.Span` of the last traced run."""
        return self._last_trace

    def as_of(self, token: int) -> "Forall":
        """Time-travel: iterate the committed state as of *token* (from
        :meth:`~repro.core.database.Database.snapshot_token`).

        Every cluster source (handle or deep view) is replaced by its
        as-of view; non-cluster sources (lists, sets) are unaffected.
        Requires MVCC (``REPRO_MVCC=0`` disables it) and a token within
        the retention window.
        """
        wrapped = []
        any_cluster = False
        for source in self._sources:
            make = getattr(source, "as_of", None)
            if make is not None:
                wrapped.append(make(token))
                any_cluster = True
            else:
                wrapped.append(source)
        if not any_cluster:
            raise QueryError(
                "as_of needs a cluster source (a ClusterHandle or deep "
                "view); got only plain iterables")
        self._sources = tuple(wrapped)
        self._plan = None  # source identity changed: re-plan
        return self

    def codegen(self, on: bool = True) -> "Forall":
        """Opt this query in or out of generated-code execution.

        ``codegen(False)`` evaluates predicates and join keys through
        their ``compiled()`` closures regardless of the database flag.
        """
        self._codegen_off = not on
        return self

    # -- execution ------------------------------------------------------------
    #
    # One pipeline for every terminal, source kind and evaluator: a
    # plan's candidate chunks -> batch filter (-> join steps) -> terminal.
    # Chunks are lists; terminals take them whole. What runs per object
    # is generated (query/codegen.py) or, with codegen off, the
    # predicates' own closures — same signatures, same loops. Tracing
    # attaches spans to these very loops.

    def __iter__(self) -> Iterator:
        if self._order and not self._sort_elided():
            return iter(self.to_list())
        tracer = self._tracer()
        rows = chain.from_iterable(self._chunks(INDEX_BATCH, tracer))
        if self._limit is not None:
            rows = _limited(rows, self._limit, tracer)
        if tracer is None:
            return rows
        return self._count_rows_out(rows, tracer)

    def to_list(self) -> List:
        sort = bool(self._order) and not self._sort_elided()
        if self._limit is not None and not sort:
            return list(iter(self))  # stream, so the limit stops the scan
        tracer = self._tracer()
        rows: List = []
        for chunk in self._chunks(None, tracer):
            rows.extend(chunk)
        if sort:
            span = (None if tracer is None else
                    tracer.root.child("sort", "%d key(s)" % len(self._order)))
            with _measure(tracer, span):
                rows = (self._sorted(rows) if len(self._sources) == 1
                        else self._sorted_tuples(rows))
            if span is not None:
                span.rows_in = span.rows_out = len(rows)
        if self._limit is not None:
            rows = list(_limited(rows, self._limit, tracer))
        if tracer is not None:
            tracer.root.rows_out = len(rows)
            self._finish_trace(tracer)
        return rows

    def count(self) -> int:
        if self._order or self._limit is not None:
            return len(self.to_list())
        tracer = self._tracer()
        n = sum(map(len, self._chunks(None, tracer, count_only=True)))
        if tracer is not None:
            tracer.root.rows_out = n
            self._finish_trace(tracer)
        return n

    def first(self):
        """The first matching element, or None."""
        for item in self:
            return item
        return None

    def exists(self) -> bool:
        """Whether any row matches (stops at the first)."""
        return self.first() is not None

    def _chunks(self, size: Optional[int], tracer,
                count_only: bool = False) -> Iterator[List]:
        """The iteration subset as lists of rows, before ``by``/``limit``.
        *size* bounds how far an index plan reads ahead of a consumer
        that may stop early (None: it will not)."""
        db = self._exec_db()
        cache = self._codegen_cache(db)
        if db is not None:
            (db._q_mode_interpreted if cache is None
             else db._q_mode_compiled).inc()
        if len(self._sources) == 1:
            plan = self._single_plan()
            keep, _ = self._single_filter(plan, cache)
            return _scan(plan, keep, size, tracer, "scan",
                         self._sort_elided(), count_only)
        return self._join(cache, size, tracer)

    def _single_filter(self, plan, cache):
        """``(keep, sources)`` — *plan*'s batch filter and the generated
        source behind it. It lives and dies with the plan: a reused
        Forall (and ``explain``) lowers nothing and looks nothing up."""
        memo = self._filter
        if memo is None or memo[0] is not plan or memo[1] is not cache:
            sources: List[str] = []
            keep = _batch_filter(plan, cache, sources)
            self._filter = memo = (plan, cache, keep, sources)
        return memo[2], memo[3]

    def _codegen_cache(self, db):
        """Where this query's generated expressions are cached; None when
        it evaluates the predicates' ``compiled()`` closures instead."""
        if self._codegen_off or not _codegen.enabled_for(db):
            return None
        return _codegen.cache_for(db)

    def _exec_db(self):
        """The database behind any source (deep views included)."""
        for source in self._sources:
            db = getattr(source, "db", None)
            if db is None:
                db = getattr(getattr(source, "handle", None), "db", None)
            if db is not None:
                return db
        return None

    def _single_plan(self):
        """The access plan for a one-source iteration.

        The plan is chosen once and reused by later iterations of the
        same Forall (and by :meth:`explain`); it is re-chosen only when
        index DDL has bumped the database's plan epoch.
        """
        source = self._sources[0]
        pred = as_predicate(self._pred) if self._pred is not None else TrueP()
        if is_multivar(pred):
            raise QueryError(
                "V[...] predicates require multiple forall sources; "
                "use A.field for a single source")
        db = getattr(source, "db", None)
        epoch = getattr(db, "_plan_epoch", 0) if db is not None else 0
        if self._plan is None or self._plan_epoch != epoch:
            self._plan = choose_plan(source, pred)
            self._plan_epoch = epoch
        return self._plan

    def _sort_elided(self) -> bool:
        """True when the plan emits rows already in the by() order: an
        ascending index range scan on the one by() key. (desc still
        sorts — reversing the scan would reverse equal-key runs and
        break the stable-sort guarantee.)"""
        if len(self._order) != 1 or len(self._sources) != 1:
            return False
        key, desc = self._order[0]
        if desc or not isinstance(key, AttrExpr):
            return False
        plan = self._single_plan()
        return isinstance(plan, IndexRange) and plan.field == key.name

    # -- tracing -----------------------------------------------------------

    def _tracer(self) -> Optional[QueryTracer]:
        if not self._trace_on:
            return None
        n = len(self._sources)
        tracer = QueryTracer(self._exec_db(), "forall",
                             "1 source" if n == 1 else "%d sources" % n)
        self._last_trace = tracer.root
        return tracer

    def _count_rows_out(self, rows: Iterator, tracer) -> Iterator:
        root = tracer.root
        try:
            for row in rows:
                root.rows_out += 1
                yield row
        finally:
            self._finish_trace(tracer)

    def _finish_trace(self, tracer) -> None:
        """Total the operator spans into the root and account the query."""
        root = tracer.root
        root.rows_in = root.children[0].rows_in
        for span in root.children:
            root.ns += span.ns
            root.pages += span.pages
            root.cache_hits += span.cache_hits
        record = getattr(tracer.db, "_record_query", None)
        if record is not None:
            detail = (root.children[0].detail if len(self._sources) == 1
                      else root.detail)
            record("forall", detail, root.ns, root.rows_out)

    # -- joins -------------------------------------------------------------

    def _join(self, cache, size, tracer) -> Iterator[List[Tuple]]:
        """The one join body: one source streams a chunk at a time
        through a left-deep chain of levels, each extending every prefix
        row with the matching objects of one more (materialized) source.
        A level takes at most INDEX_BATCH prefix rows at a time and keeps
        only the rows that pass, so nothing bigger than the sources and
        INDEX_BATCH x |source| matches is ever held — also for a join
        without keys, which is a filtered cross product.
        """
        detail, plans, keeps, steps, swap = self._join_plan(cache, [])
        # Source 0 streams — unless *swap*: then step 1's hash table
        # holds source 0's rows (the smaller side) and source 1 streams.
        streamed = 1 if swap else 0
        scans = [_scan(plan, keep, size if i == streamed else None, tracer,
                       "scan V[%d]" % i)
                 for i, (plan, keep) in enumerate(zip(plans, keeps))]
        spans = [None] * len(plans)
        if tracer is not None:
            tracer.root.detail += ", " + detail
            for k in range(1, len(plans)):
                spans[k] = tracer.root.child(
                    "hash join" if steps[k][0] else "nested-loop join",
                    "V[0..%d] x V[%d]" % (k - 1, k))
        return self._join_chunks(scans, steps, swap, tracer, spans)

    def _join_chunks(self, scans, steps, swap: bool, tracer,
                     spans) -> Iterator[List[Tuple]]:
        arity = len(scans)
        streamed = 1 if swap else 0
        first = steps[0][2]

        def prefix_rows(objs):
            if first is None:
                return [(obj,) for obj in objs]
            return [(obj,) for obj in objs if first((), obj)]

        chunks = scans[streamed] if swap else map(prefix_rows, scans[0])
        for k in range(1, arity):
            probe, build, check = steps[k]
            if build is None:
                # No keys: every prefix row meets every object.
                probe = build = _no_key
            if k == streamed:
                items = prefix_rows(chain.from_iterable(scans[0]))
                key = probe
            else:
                items = list(chain.from_iterable(scans[k]))
                key = build
            with _measure(tracer, spans[k]):
                table = _table(items, key)
            if tracer is not None:
                spans[k].rows_in += len(items)
            chunks = _join_level(chunks, table, (probe, build, check),
                                 k == streamed, tracer, spans[k])
        yield from chunks

    def _join_plan(self, cache, code: List[str]):
        """``(detail, plans, keeps, steps, swap)`` of a multi-source
        iteration: per source an access plan and its batch filter, per
        level *k* the ``(probe, build, check)`` callables of
        :func:`_join_step` (level 0 only has a check). Expressions are
        generated through *cache* (source noted in *code*) or, when it
        is None, taken from the predicates' closures."""
        pred = self._pred
        arity = len(self._sources)
        join_keys = self._join_keys
        if join_keys is None and is_multivar(pred):
            detail = "fused join"
            plans, eq_pairs, residual_at = self._fusion()
        else:
            if pred is not None and (isinstance(pred, Predicate)
                                     or not callable(pred)):
                raise QueryError(
                    "join_on takes a callable residual filter"
                    if join_keys is not None else
                    "multi-variable suchthat takes a callable of %d "
                    "arguments or a V[...] predicate" % arity)
            detail = "nested loop" if join_keys is None else "hash equijoin"
            plans = [FullScan(source, TrueP()) for source in self._sources]
            eq_pairs = []
            # The callable takes whole rows: an opaque conjunct of the
            # last level.
            residual_at = [[] for _ in range(arity)]
            if pred is not None:
                residual_at[-1].append(Callable_(pred))
        keeps = [_batch_filter(plan, cache, code) for plan in plans]
        levels = [([_orient(jc, k) for jc in eq_pairs
                    if max(jc.lvar, jc.rvar) == k], residual_at[k])
                  for k in range(arity)]
        steps = None
        if cache is not None and any(keys or conjuncts
                                     for keys, conjuncts in levels):
            try:
                steps, source = _codegen.join_steps(levels, cache)
                code.append(source)
            except _codegen._CannotLower:
                pass
        if steps is None:
            steps = [_closure_step(keys, conjuncts)
                     for keys, conjuncts in levels]
        if join_keys is not None:
            # join_on's key functions; every level probes with the first
            # source's.
            def probe(row, _key=join_keys[0]):
                return _key(row[0])
            steps[1:] = [(probe, key, check) for key, (_, _, check)
                         in zip(join_keys[1:], steps[1:])]
        swap = bool(levels[1][0]
                    and plans[0].estimated_rows < plans[1].estimated_rows)
        return detail, plans, keeps, steps, swap

    def _fusion(self):
        """Decompose the V-predicate and plan every source's access path.

        Returns ``(per_var_plans, eq_pairs, residual_at)``:

        * one optimizer plan per source, with that variable's
          single-variable conjuncts pushed below the join (so indexes
          apply *before* joining);
        * the inter-variable equality conjuncts, executed as hash-join
          keys (all equalities joining the same new variable combine
          into one multi-key probe);
        * the remaining conjuncts, grouped by the highest variable they
          mention so each fires as early as the left-deep expansion
          allows.
        """
        pred = as_predicate(self._pred)
        arity = len(self._sources)
        highest = max_var(pred)
        if highest >= arity:
            raise QueryError(
                "predicate references V[%d] but forall has only %d "
                "source(s)" % (highest, arity))
        per_var: List[List[Predicate]] = [[] for _ in range(arity)]
        eq_pairs: List[JoinCompare] = []
        residual_at: List[List[Predicate]] = [[] for _ in range(arity)]
        for conj in pred.conjuncts():
            if isinstance(conj, VarCompare):
                per_var[conj.var].append(conj.inner)
            elif isinstance(conj, JoinCompare) and conj.op == "==":
                eq_pairs.append(conj)
            else:
                at = max_var(conj)
                residual_at[at if at >= 0 else arity - 1].append(conj)
        plans = []
        for i, source in enumerate(self._sources):
            sub = per_var[i]
            sub_pred = (TrueP() if not sub
                        else sub[0] if len(sub) == 1 else And(*sub))
            plans.append(choose_plan(source, sub_pred))
        return plans, eq_pairs, residual_at

    # -- ordering ------------------------------------------------------------

    def _sorted(self, rows: List) -> List:
        for key, desc in reversed(self._order):
            rows.sort(key=_key_fn(key), reverse=desc)
        return rows

    def _sorted_tuples(self, rows: List[Tuple]) -> List[Tuple]:
        for key, desc in reversed(self._order):
            if not callable(key) or isinstance(key, AttrExpr):
                raise QueryError(
                    "ordering a join requires a key function over the "
                    "variable tuple")
            rows.sort(key=lambda row: key(*row), reverse=desc)
        return rows

    # -- join strategies ---------------------------------------------------

    def join_on(self, *keys) -> "Forall":
        """Execute the cross product as a **hash equijoin** on *keys*.

        One key extractor per source (an :class:`AttrExpr`, a field name,
        or a callable); rows whose keys are equal are combined. The paper
        criticises object databases for lacking "arbitrary join queries"
        (section 1) — this is the declarative equality join its iteration
        clauses enable, executed in O(N+M) instead of the nested loop's
        O(N·M). A ``suchthat`` callable, if also given, applies as a
        residual filter over the joined tuples.
        """
        if len(keys) != len(self._sources):
            raise QueryError("join_on needs one key per source (%d given, "
                             "%d sources)" % (len(keys), len(self._sources)))
        self._join_keys = [_key_fn(k) for k in keys]
        return self

    def limit(self, n: int) -> "Forall":
        """Yield at most *n* results (applied after suchthat/by)."""
        if n < 0:
            raise QueryError("limit must be non-negative")
        self._limit = n
        return self

    # -- explain -----------------------------------------------------------

    def explain(self, analyze: bool = False, code: bool = False) -> str:
        """Human-readable description of the chosen plan.

        With *analyze=True* the query is actually executed with tracing
        on — the same pipeline an untraced run takes, with a span on
        each operator — and the measurements (rows in/out, pages
        touched, cache hits, time) are appended to the plan text. With
        *code=True* the generated expression source (if any) is appended.
        """
        text = self._explain_plan()
        cache = self._codegen_cache(self._exec_db())
        if len(self._sources) == 1:
            _, sources = self._single_filter(self._single_plan(), cache)
        else:
            sources = []
            self._join_plan(cache, sources)
        text += "\nexecution: %s" % (
            "interpreted" if cache is None else
            "compiled (%d generated expression(s))" % len(sources))
        if code:
            if not sources:
                text += "\ngenerated code: none"
            for source in sources:
                text += "\ngenerated code:\n" + "\n".join(
                    "  " + line for line in source.rstrip().splitlines())
        if not analyze:
            return text
        was_on = self._trace_on
        self._trace_on = True
        try:
            for _ in self:
                pass
        finally:
            self._trace_on = was_on
        return text + "\nanalyze:\n" + "\n".join(
            "  " + line for line in render_trace(self._last_trace))

    def _explain_plan(self) -> str:
        if len(self._sources) != 1:
            if self._join_keys is not None:
                return "hash equijoin over %d sources" % len(self._sources)
            if is_multivar(self._pred):
                plans, eq_pairs, residual_at = self._fusion()
                n_residual = sum(len(r) for r in residual_at)
                lines = ["fused hash join over %d sources "
                         "(%d equality key(s), %d residual conjunct(s))"
                         % (len(self._sources), len(eq_pairs), n_residual)]
                for i, plan in enumerate(plans):
                    lines.append("  V[%d]: %s" % (i, plan.describe()))
                return "\n".join(lines)
            return "nested-loop join over %d sources" % len(self._sources)
        plan = self._single_plan()
        suffix = " + sort" if self._order else ""
        return plan.describe() + suffix

    def __repr__(self):
        return "Forall(sources=%d, suchthat=%r, by=%d keys)" % (
            len(self._sources), self._pred, len(self._order))


def _scan(plan, keep, size, tracer, label: str, keyed: bool = False,
          count_only: bool = False) -> Iterator[List]:
    """One source's matching objects, a chunk at a time — *plan*'s
    candidates through its batch filter *keep*: the whole single-source
    body, and every input of a join."""
    count_only = count_only and keep is None
    if tracer is None:
        chunks = plan.chunks(size, keyed, None, count_only)
        return chunks if keep is None else map(keep, chunks)
    span = tracer.root.child(label, plan.describe())
    return tracer.stream(span, _counted(
        plan.chunks(size, keyed, span, count_only), keep, span))


def _batch_filter(plan, cache, code: List[str]) -> Optional[Callable]:
    """``keep(objs) -> [matching objs]`` for *plan*'s residual (None:
    nothing to check): one generated expression through *cache* (its
    source noted in *code*), or the residual's closure when *cache* is
    None."""
    residual = plan.residual
    if isinstance(residual, TrueP):
        return None
    if cache is not None:
        if isinstance(plan, IndexPlan):
            cls = plan.handle.cls
        else:
            # Only a cluster handle's rows are exactly its class (deep
            # and as-of-deep views mix derived classes in).
            cls = (plan.source.cls
                   if isinstance(plan.source, ClusterHandle) else None)
        try:
            keep, source = _codegen.batch_filter(residual, cls, cache)
        except _codegen._CannotLower:
            pass
        else:
            code.append(source)
            return keep
    check = residual.compiled()
    return lambda objs: [obj for obj in objs if check(obj)]


#: What a probe finds for a key no build row has.
_NO_ROWS = ()

#: The untraced stand-in for ``tracer.measure(span)``.
_UNMEASURED = nullcontext()


def _measure(tracer, span):
    return _UNMEASURED if tracer is None else tracer.measure(span)


def _counted(chunks: Iterator[List], keep, span) -> Iterator[List]:
    """*chunks* through the batch filter *keep*, with row accounting."""
    for objs in chunks:
        matched = objs if keep is None else keep(objs)
        span.rows_in += len(objs)
        span.rows_out += len(matched)
        yield matched


def _limited(rows, n: int, tracer) -> Iterator:
    if tracer is None:
        return islice(rows, n)
    span = tracer.root.child("limit", "n=%d" % n)

    def counted():
        for row in islice(rows, n):
            span.rows_in += 1
            span.rows_out += 1
            yield row
    return counted()


def _table(items, key: Callable) -> dict:
    """Hash table of *items* grouped by ``key(item)``."""
    table: dict = {}
    for item in items:
        table.setdefault(key(item), []).append(item)
    return table


def _no_key(_):
    """The key of a level without keys: one for all."""
    return None


def _join_level(chunks: Iterator[List], table: dict, step, swapped: bool,
                tracer, span) -> Iterator[List[Tuple]]:
    """*chunks* of prefix rows through one :func:`_join_step`,
    INDEX_BATCH rows at a time."""
    for rows in chunks:
        for i in range(0, len(rows), INDEX_BATCH):
            part = rows[i:i + INDEX_BATCH]
            with _measure(tracer, span):
                out = _join_step(part, table, step, swapped)
            if span is not None:
                span.rows_in += len(part)
                span.rows_out += len(out)
            if out:
                yield out


def _join_step(rows: List, table: dict, step, swapped: bool) -> List[Tuple]:
    """Extend each prefix row of *rows* with the objects of one more
    source that join it; the extended rows, in *rows* order.

    *table* holds that source's objects under ``build(obj)``, probed
    with ``probe(row)``; ``check(row, obj)`` judges a pair before its
    extended row is built. *swapped*, the table holds the prefix rows
    instead, under ``probe(row)``, and *rows* are the new source's
    objects, looked up by ``build(obj)``.
    """
    probe, build, check = step
    get = table.get
    if swapped:
        if check is None:
            return [row + (obj,) for obj in rows
                    for row in get(build(obj), _NO_ROWS)]
        return [row + (obj,) for obj in rows
                for row in get(build(obj), _NO_ROWS) if check(row, obj)]
    if check is None:
        return [row + (obj,) for row in rows
                for obj in get(probe(row), _NO_ROWS)]
    return [row + (obj,) for row in rows
            for obj in get(probe(row), _NO_ROWS) if check(row, obj)]


def _closure_step(keys: List[Tuple[int, str, str]],
                  conjuncts: List[Predicate]) -> Tuple:
    """The ``(probe, build, check)`` of one join level from the
    predicates' own closures (what ``codegen.join_steps`` generates)."""
    probe = build = check = None
    if keys:
        def probe(row):
            return tuple(getattr(row[v], a) for v, a, _ in keys)

        def build(obj):
            return tuple(getattr(obj, b) for _, _, b in keys)
    if conjuncts:
        checks = [_tuple_check(c) for c in conjuncts]

        def check(row, obj):
            row += (obj,)
            for c in checks:
                if not c(row):
                    return False
            return True
    return probe, build, check


def _orient(jc: JoinCompare, k: int) -> Tuple[int, str, str]:
    """``(probe_var, probe_attr, build_attr)`` for joining variable *k*."""
    if jc.lvar == k:
        return (jc.rvar, jc.rattr, jc.lattr)
    return (jc.lvar, jc.lattr, jc.rattr)


def _tuple_check(conj: Predicate) -> Callable:
    """A compiled row-tuple filter for a residual conjunct.

    Opaque callables mixed into a V-predicate receive the loop variables
    as separate arguments (matching the plain multi-source suchthat
    convention); everything else already evaluates over the row tuple.
    """
    if isinstance(conj, Callable_):
        func = conj.func
        return lambda row: bool(func(*row))
    return conj.compiled()


def _key_fn(key) -> Callable:
    if isinstance(key, AttrExpr):
        return lambda obj: getattr(obj, key.name)
    if isinstance(key, str):
        return lambda obj: getattr(obj, key)
    if callable(key):
        return key
    raise QueryError("by() expects an attribute or key function, got %r"
                     % (key,))


def forall(*sources) -> Forall:
    """Begin a forall iteration over *sources* (see module docs)."""
    return Forall(*sources)

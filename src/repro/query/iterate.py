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

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import QueryError
from . import codegen as _codegen
from .optimizer import IndexRange, choose_plan
from .predicates import (A, And, AttrExpr, Callable_, JoinCompare, Predicate,
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
        self._join_key_specs: Optional[List[Any]] = None  # original keys
        self._limit: Optional[int] = None
        #: Per-query opt-out from generated-code execution.
        self._codegen_off = False
        #: The chosen plan, kept across iterations of the same Forall
        #: (re-validated against the database's index-DDL epoch).
        self._plan = None
        self._plan_epoch = -1
        #: Tracing: off by default (the untraced path is byte-for-byte
        #: the pre-tracing code); trace() turns it on, last_trace holds
        #: the span tree of the most recent traced run.
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
        and ``explain(analyze=True)`` renders it. Tracing materializes
        each operator stage (so time and IO attribute cleanly), trading
        laziness for measurement — leave it off on hot paths.
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

        ``codegen(False)`` forces the interpreted pipeline regardless of
        the database flag and the ``REPRO_CODEGEN`` environment switch.
        """
        self._codegen_off = not on
        return self

    # -- execution ------------------------------------------------------------

    def __iter__(self) -> Iterator:
        if self._trace_on:
            if len(self._sources) == 1:
                return self._iter_single_traced()
            return self._iter_join_traced()
        if len(self._sources) == 1:
            return self._iter_single()
        return self._iter_join()

    def _db(self):
        return getattr(self._sources[0], "db", None)

    def _exec_db(self):
        """The database behind any source (deep views included)."""
        for source in self._sources:
            db = getattr(source, "db", None)
            if db is None:
                db = getattr(getattr(source, "handle", None), "db", None)
            if db is not None:
                return db
        return None

    def _note_mode(self, compiled: bool) -> None:
        db = self._exec_db()
        if db is None:
            return
        counter = getattr(
            db, "_q_mode_compiled" if compiled else "_q_mode_interpreted",
            None)
        if counter is not None:
            counter.inc()

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

    def _iter_single(self) -> Iterator:
        plan = self._single_plan()
        fused = _codegen.run_single(self, plan, "iter")
        if fused is not _codegen.INELIGIBLE:
            self._note_mode(compiled=True)
            return fused
        self._note_mode(compiled=False)
        if self._sort_elided(plan):
            rows = plan.execute(keyed=True)
        else:
            rows = plan.execute()
            if self._order:
                rows = iter(self._sorted(list(rows)))
        if self._limit is not None:
            rows = _take(rows, self._limit)
        return rows

    def _sort_elided(self, plan) -> bool:
        """True when *plan* emits rows already in the by() order: an
        ascending index range scan on the one by() key. (desc still
        sorts — reversing the scan would reverse equal-key runs and
        break the stable-sort guarantee.)"""
        if len(self._order) != 1:
            return False
        key, desc = self._order[0]
        return (not desc and isinstance(key, AttrExpr)
                and isinstance(plan, IndexRange) and plan.field == key.name)

    # -- traced execution --------------------------------------------------

    def _iter_single_traced(self) -> Iterator:
        from ..obs.trace import QueryTracer
        plan = self._single_plan()
        db = self._db()
        tracer = QueryTracer(db, "forall", "1 source")
        root = tracer.root
        if _codegen.would_run(self):
            root.detail += ", interpreted fallback (tracing)"
        scan = root.child("scan", plan.describe())
        elided = self._sort_elided(plan)
        with tracer.measure(root):
            with tracer.measure(scan):
                rows = list(plan.execute(span=scan, keyed=True) if elided
                            else plan.execute(span=scan))
            if self._order and not elided:
                sort = root.child("sort", "%d key(s)" % len(self._order))
                sort.rows_in = len(rows)
                with tracer.measure(sort):
                    rows = self._sorted(rows)
                sort.rows_out = len(rows)
            if self._limit is not None:
                lim = root.child("limit", "n=%d" % self._limit)
                lim.rows_in = len(rows)
                rows = rows[:self._limit]
                lim.rows_out = len(rows)
            root.rows_in = scan.rows_in
            root.rows_out = len(rows)
        plan.last_span = scan
        self._last_trace = root
        self._record_traced(db, plan.describe(), root)
        return iter(rows)

    def _iter_join_traced(self) -> Iterator[Tuple]:
        from ..obs.trace import QueryTracer
        db = self._db()
        tracer = QueryTracer(db, "forall", "%d sources" % len(self._sources))
        root = tracer.root
        if _codegen.would_run(self):
            root.detail += ", interpreted fallback (tracing)"
        with tracer.measure(root):
            if self._join_keys is not None:
                root.detail += ", hash equijoin"
                rows = list(self._iter_hash_join())
            elif is_multivar(self._pred):
                root.detail += ", fused join"
                rows = self._iter_fused_join_traced(tracer)
            else:
                root.detail += ", nested loop"
                pred = self._pred
                if pred is None:
                    row_check = None
                elif callable(pred) and not isinstance(pred, Predicate):
                    row_check = _row_filter(pred)
                else:
                    raise QueryError(
                        "multi-variable suchthat takes a callable of %d "
                        "arguments or a V[...] predicate"
                        % len(self._sources))
                rows = list(self._cross_product(row_check))
            if self._order:
                sort = root.child("sort", "%d key(s)" % len(self._order))
                sort.rows_in = len(rows)
                with tracer.measure(sort):
                    rows = self._sorted_tuples(rows)
                sort.rows_out = len(rows)
            if self._limit is not None:
                lim = root.child("limit", "n=%d" % self._limit)
                lim.rows_in = len(rows)
                rows = rows[:self._limit]
                lim.rows_out = len(rows)
            root.rows_out = len(rows)
        self._last_trace = root
        self._record_traced(db, root.detail, root)
        return iter(rows)

    def _iter_fused_join_traced(self, tracer) -> List[Tuple]:
        """Traced counterpart of :meth:`_iter_fused_join`: each scan and
        each join step is materialized under its own measured span."""
        plans, eq_pairs, residual_at = self._fusion()
        arity = len(self._sources)
        root = tracer.root
        scan0 = root.child("scan V[0]", plans[0].describe())
        with tracer.measure(scan0):
            rows = [(obj,) for obj in plans[0].execute(span=scan0)]
            for conj in residual_at[0]:
                check = _tuple_check(conj)
                rows = [row for row in rows if check(row)]
        for k in range(1, arity):
            keys = [_orient(jc, k) for jc in eq_pairs
                    if max(jc.lvar, jc.rvar) == k]
            scan_k = root.child("scan V[%d]" % k, plans[k].describe())
            with tracer.measure(scan_k):
                items = list(plans[k].execute(span=scan_k))
            join = root.child("hash join" if keys else "nested-loop join",
                              "V[0..%d] x V[%d] (%d key(s))"
                              % (k - 1, k, len(keys)))
            join.rows_in = len(rows) + len(items)
            with tracer.measure(join):
                rows = list(self._join_step(
                    iter(rows), plans, k, keys,
                    [_tuple_check(c) for c in residual_at[k]],
                    right=items))
            join.rows_out = len(rows)
        root.rows_in = scan0.rows_in
        return rows

    def _record_traced(self, db, detail: str, root) -> None:
        record = getattr(db, "_record_query", None) if db is not None \
            else None
        if record is not None:
            record("forall", detail, root.ns, root.rows_out)

    def _iter_join(self) -> Iterator[Tuple]:
        fused = _codegen.run_join(self, "iter")
        if fused is not _codegen.INELIGIBLE:
            self._note_mode(compiled=True)
            return fused
        self._note_mode(compiled=False)
        if self._join_keys is not None:
            rows = self._iter_hash_join()
        elif is_multivar(self._pred):
            rows = self._iter_fused_join()
        else:
            pred = self._pred
            arity = len(self._sources)
            if pred is None:
                row_check = None
            elif callable(pred) and not isinstance(pred, Predicate):
                row_check = _row_filter(pred)
            else:
                raise QueryError(
                    "multi-variable suchthat takes a callable of %d "
                    "arguments or a V[...] predicate" % arity)
            rows = self._cross_product(row_check)
        if self._order:
            rows = iter(self._sorted_tuples(list(rows)))
        if self._limit is not None:
            rows = _take(rows, self._limit)
        return rows

    def _cross_product(self, row_check) -> Iterator[Tuple]:
        def recurse(depth: int, chosen: tuple):
            if depth == len(self._sources):
                if row_check is None or row_check(chosen):
                    yield chosen
                return
            for item in self._sources[depth]:
                yield from recurse(depth + 1, chosen + (item,))
        return recurse(0, ())

    # -- fused multi-variable join (V[...] predicates) ---------------------

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

    def _iter_fused_join(self) -> Iterator[Tuple]:
        """Execute a V-predicate join: per-source index plans below a
        left-deep chain of (multi-key) hash joins."""
        plans, eq_pairs, residual_at = self._fusion()
        arity = len(self._sources)
        rows: Iterator[Tuple] = ((obj,) for obj in plans[0].execute())
        for conj in residual_at[0]:
            rows = filter(_tuple_check(conj), rows)
        for k in range(1, arity):
            keys = [_orient(jc, k) for jc in eq_pairs
                    if max(jc.lvar, jc.rvar) == k]
            rows = self._join_step(rows, plans, k, keys,
                                   [_tuple_check(c) for c in residual_at[k]])
        return rows

    def _join_step(self, rows: Iterator[Tuple], plans, k: int,
                   keys: List[Tuple[int, str, str]],
                   checks: List[Callable], right=None) -> Iterator[Tuple]:
        """Extend each prefix row with source *k*.

        *keys* holds ``(probe_var, probe_attr, build_attr)`` triples: the
        hash table over source *k* is keyed on the build attrs, probed
        with the prefix row's attrs. Without keys this degenerates to a
        (filtered) cross product. *right* overrides where source *k*'s
        rows come from (the traced path pre-materializes them under a
        measured span); by default the plan executes here. Every branch
        consumes *right* exactly once.
        """
        if right is None:
            right = plans[k].execute()
        if not keys:
            items = list(right)
            for row in rows:
                for obj in items:
                    new = row + (obj,)
                    if all(c(new) for c in checks):
                        yield new
            return
        if k == 1 and plans[0].estimated_rows < plans[1].estimated_rows:
            # Build on the smaller left side, stream the right side.
            table: dict = {}
            for row in rows:
                probe = tuple(getattr(row[v], a) for v, a, _ in keys)
                table.setdefault(probe, []).append(row)
            for obj in right:
                build = tuple(getattr(obj, b) for _, _, b in keys)
                for row in table.get(build, ()):
                    new = row + (obj,)
                    if all(c(new) for c in checks):
                        yield new
            return
        table = {}
        for obj in right:
            build = tuple(getattr(obj, b) for _, _, b in keys)
            table.setdefault(build, []).append(obj)
        for row in rows:
            probe = tuple(getattr(row[v], a) for v, a, _ in keys)
            for obj in table.get(probe, ()):
                new = row + (obj,)
                if all(c(new) for c in checks):
                    yield new

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
        self._join_key_specs = list(keys)
        return self

    def _iter_hash_join(self) -> Iterator[Tuple]:
        keys = self._join_keys
        pred = self._pred
        if pred is not None and isinstance(pred, Predicate):
            raise QueryError("join_on takes a callable residual filter")
        row_check = None if pred is None else _row_filter(pred)
        # Build hash tables for every source after the first.
        tables = []
        for source, key_fn in zip(self._sources[1:], keys[1:]):
            table: dict = {}
            for item in source:
                table.setdefault(key_fn(item), []).append(item)
            tables.append(table)

        def expand(depth: int, chosen: tuple, join_key):
            if depth == len(self._sources):
                if row_check is None or row_check(chosen):
                    yield chosen
                return
            for item in tables[depth - 1].get(join_key, ()):
                yield from expand(depth + 1, chosen + (item,), join_key)

        for first in self._sources[0]:
            yield from expand(1, (first,), keys[0](first))

    # -- terminal conveniences ------------------------------------------------

    def limit(self, n: int) -> "Forall":
        """Yield at most *n* results (applied after suchthat/by)."""
        if n < 0:
            raise QueryError("limit must be non-negative")
        self._limit = n
        return self

    def to_list(self) -> List:
        if not self._trace_on:
            if len(self._sources) == 1:
                rows = _codegen.run_single(self, self._single_plan(),
                                           "collect")
            else:
                rows = _codegen.run_join(self, "collect")
            if rows is not _codegen.INELIGIBLE:
                self._note_mode(compiled=True)
                return rows
        return list(self)

    def first(self):
        """The first matching element, or None."""
        for item in self:
            return item
        return None

    def exists(self) -> bool:
        """Whether any row matches (stops at the first)."""
        return self.first() is not None

    def count(self) -> int:
        if not self._trace_on:
            if len(self._sources) == 1:
                n = _codegen.run_single(self, self._single_plan(), "count")
            else:
                n = _codegen.run_join(self, "count")
            if n is not _codegen.INELIGIBLE:
                self._note_mode(compiled=True)
                return n
        return sum(1 for _ in self)

    def explain(self, analyze: bool = False, code: bool = False) -> str:
        """Human-readable description of the chosen plan.

        With *analyze=True* the query is actually executed with tracing
        on and the per-operator measurements (rows in/out, pages touched,
        cache hits, wall time) are appended to the plan text. Tracing
        always runs the interpreted pipeline; when the untraced query
        would have used generated code, the trace header says so. With
        *code=True* the generated source (if any) is appended.
        """
        text = self._explain_plan()
        mode, source = _codegen.describe_mode(self)
        text += "\nexecution: %s" % mode
        if code:
            if source is None:
                text += "\ngenerated code: none (interpreted)"
            else:
                text += "\ngenerated code:\n" + "\n".join(
                    "  " + line for line in source.rstrip().splitlines())
        if not analyze:
            return text
        from ..obs.trace import render_trace
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


def _orient(jc: JoinCompare, k: int) -> Tuple[int, str, str]:
    """``(probe_var, probe_attr, build_attr)`` for joining variable *k*."""
    if jc.lvar == k:
        return (jc.rvar, jc.rattr, jc.lattr)
    return (jc.lvar, jc.lattr, jc.rattr)


def _row_filter(pred) -> Callable:
    """Compile a multi-argument residual filter into a row-tuple closure.

    Opaque suchthat callables on joins receive the loop variables as
    separate arguments; introspectable predicates are specialised via
    :meth:`Predicate.compiled` so the hot residual loop never goes
    through interpreted double dispatch.
    """
    if isinstance(pred, Predicate):
        check = pred.compiled()
        return lambda row, _check=check: _check(row)
    return lambda row, _func=pred, _bool=bool: _bool(_func(*row))


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


def _take(rows: Iterator, n: int) -> Iterator:
    for i, row in enumerate(rows):
        if i >= n:
            return
        yield row


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

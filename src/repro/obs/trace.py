"""Per-operator spans for query tracing (``explain analyze``).

A :class:`Span` records what one plan operator did during a traced
execution: rows in/out, pages touched, cache hits, and wall time. The
query layer builds a small span tree per traced query (scan → join →
sort → limit) and :func:`render_trace` pretty-prints it.

Tracing is strictly opt-in: untraced queries never allocate a span. A
traced query runs the same operators with a span attached to each, so
what is timed is what an untraced run executes.
"""

from __future__ import annotations

import time
from typing import List, Optional


class Span:
    """One operator's measurements during a traced query."""

    __slots__ = ("op", "detail", "rows_in", "rows_out", "ns", "pages",
                 "cache_hits", "children")

    def __init__(self, op: str, detail: str = ""):
        self.op = op
        self.detail = detail
        self.rows_in = 0
        self.rows_out = 0
        self.ns = 0
        self.pages = 0
        self.cache_hits = 0
        self.children: List["Span"] = []

    def child(self, op: str, detail: str = "") -> "Span":
        span = Span(op, detail)
        self.children.append(span)
        return span

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "detail": self.detail,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "ns": self.ns,
            "pages": self.pages,
            "cache_hits": self.cache_hits,
            "children": [c.to_dict() for c in self.children],
        }


class _Measure:
    """Context manager charging wall time + IO deltas to a span."""

    __slots__ = ("tracer", "span", "_t0", "_pages0", "_hits0")

    def __init__(self, tracer: "QueryTracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self._pages0, self._hits0 = self.tracer._io_counters()
        self._t0 = time.perf_counter_ns()
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.span.ns += time.perf_counter_ns() - self._t0
        pages, hits = self.tracer._io_counters()
        self.span.pages += pages - self._pages0
        self.span.cache_hits += hits - self._hits0
        return False


class QueryTracer:
    """Builds the span tree for one traced query against a database.

    IO attribution samples the engine's existing counters (buffer pool
    pin hits/misses, page-cache hits, decoded-cache hits) before and
    after each measured piece of work; the deltas are charged to that
    operator's span. Measurements must not nest: the query layer
    measures one operator's work on one chunk at a time.
    """

    __slots__ = ("db", "root")

    def __init__(self, db, op: str = "query", detail: str = ""):
        self.db = db
        self.root = Span(op, detail)

    def _io_counters(self):
        if self.db is None:  # tracing plain in-memory sources: no IO
            return 0, 0
        pool = self.db.store._pool
        pages = (pool.hits + pool.misses
                 + pool.directory_hits + pool.directory_misses)
        hits = (pool.hits + pool.directory_hits
                + self.db.store.page_cache_hits + self.db._decoded.hits)
        return pages, hits

    def measure(self, span: Span) -> _Measure:
        return _Measure(self, span)

    def stream(self, span: Span, items):
        """Iterate *items*, charging the work of each pull to *span*
        (and nothing of what the consumer does between pulls)."""
        items = iter(items)
        while True:
            with self.measure(span):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item


def render_trace(root: Span, indent: str = "") -> List[str]:
    """Render a span tree as ``explain analyze`` text lines.

    Per-row averages guard against empty operators (an empty cluster
    yields ``rows=0``) — no division by zero, the average simply reads 0.
    """
    rows = root.rows_out
    avg_ns = (root.ns / rows) if rows else 0.0
    line = ("%s%s" % (indent, root.op))
    if root.detail:
        line += " [%s]" % root.detail
    line += (": rows=%d (in=%d) time=%.3fms pages=%d cache_hits=%d"
             % (rows, root.rows_in, root.ns / 1e6, root.pages,
                root.cache_hits))
    if rows:
        line += " avg=%.1fus/row" % (avg_ns / 1e3)
    lines = [line]
    for child in root.children:
        lines.extend(render_trace(child, indent + "  "))
    return lines

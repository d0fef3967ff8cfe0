"""Central metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints (ISSUE 4): instrumentation must be safe under the
concurrent-transaction paths from PR 2 without adding locks to hot
paths. Two techniques make that work:

- **Owned counters** use :func:`itertools.count` internally. ``next()``
  on a count object is a single C call, so a bump is atomic under the
  GIL — N threads incrementing concurrently never lose an update, and
  there is no lock to contend on. The current value is read without
  consuming a tick via the count's pickle protocol.
- **Sampled metrics** (:meth:`MetricsRegistry.counter_fn` /
  :meth:`MetricsRegistry.gauge_fn`) wrap the *existing* plain-int
  counters that storage components already bump under their own locks
  (buffer pool latch, lock-manager condition, WAL append path). The
  registry reads them lazily at snapshot time, so absorbing those stats
  costs zero extra work on the hot path.

Histograms keep per-bucket plain-int counts guarded by a per-histogram
lock: the updates are read-modify-write (not GIL-atomic), and
observations can arrive from concurrent client threads that hold no
component lock, so exactness needs the lock. It is uncontended on
single-threaded paths.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple


#: Consumes an iterator in one C call (a deque that keeps nothing).
_consume = deque(maxlen=0).extend


def _count_value(it) -> int:
    """Current value of an :func:`itertools.count` without consuming it."""
    return it.__reduce__()[1][0]


class Counter:
    """Monotonic counter with GIL-atomic increments."""

    __slots__ = ("name", "labels", "_it")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._it = itertools.count()

    def inc(self, n: int = 1) -> None:
        if n == 1:
            next(self._it)          # one C call: atomic under the GIL
        elif n > 0:
            _consume(itertools.islice(self._it, n))  # so is this

    @property
    def value(self) -> int:
        return _count_value(self._it)


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0

    def set(self, value) -> None:
        self._value = value

    @property
    def value(self):
        return self._value


class Histogram:
    """Fixed-bucket histogram (upper bounds + implicit +Inf overflow).

    ``observe()`` takes a small per-histogram lock. The bucket/count/sum
    updates are read-modify-write on plain ints and floats — *not*
    GIL-atomic like ``Counter.inc`` — and observations arrive from
    concurrent client threads that hold no component lock, so there is
    no "call sites already hold a lock" contract to lean on. The lock is
    uncontended on every single-threaded path and costs a few hundred ns
    when it is not.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "_lock")

    def __init__(self, name: str, buckets: Sequence[float],
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)   # last = +Inf
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile by linear interpolation in-bucket.

        Observations are assumed uniformly distributed inside each
        bucket ``(lower, upper]``; the first bucket's lower edge is 0.
        Follows the ``histogram_quantile`` conventions: an empty
        histogram has no quantiles (``None``), and a target rank that
        lands in the +Inf overflow bucket reports the highest finite
        bound (the estimate cannot exceed what the buckets resolve).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        with self._lock:
            counts = list(self.counts)
            total = self.count
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        lower = 0.0
        for bound, count in zip(self.buckets, counts):
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return lower + (bound - lower) * fraction
            cumulative += count
            lower = bound
        return self.buckets[-1] if self.buckets else None

    def percentiles(self, quantiles: Sequence[float] = (0.50, 0.90,
                                                        0.99, 0.999)):
        """``{"p50": ..., "p90": ...}`` for the given quantiles."""
        return {"p%g" % (100 * q): self.quantile(q) for q in quantiles}


class _Sampled:
    """A metric whose value is read from a callable at snapshot time."""

    __slots__ = ("name", "labels", "kind", "fn")

    def __init__(self, name: str, fn: Callable[[], float], kind: str,
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.labels = dict(labels or {})
        self.kind = kind            # "counter" or "gauge"
        self.fn = fn

    @property
    def value(self):
        return self.fn()


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Registry of named metrics under a dotted namespace.

    Creation (``counter("txn.aborts", reason="deadlock")``) is guarded by
    a small lock so two threads racing to create the same metric share
    one instance; bumping the returned object takes no lock at all.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}

    # -- creation / lookup ------------------------------------------------
    def _get_or_create(self, name, labels, factory):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory()
                    self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(name, labels,
                                   lambda: Counter(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(name, labels,
                                   lambda: Gauge(name, labels))

    def histogram(self, name: str, buckets: Sequence[float],
                  **labels) -> Histogram:
        return self._get_or_create(name, labels,
                                   lambda: Histogram(name, buckets, labels))

    def counter_fn(self, name: str, fn: Callable[[], float],
                   **labels) -> None:
        """Register a counter whose value is sampled from *fn* lazily."""
        self._get_or_create(name, labels,
                            lambda: _Sampled(name, fn, "counter", labels))

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 **labels) -> None:
        """Register a gauge whose value is sampled from *fn* lazily."""
        self._get_or_create(name, labels,
                            lambda: _Sampled(name, fn, "gauge", labels))

    # -- reads ------------------------------------------------------------
    def get(self, name: str):
        """Total value of *name* summed across all label sets."""
        total = 0
        found = False
        for (metric_name, _), metric in list(self._metrics.items()):
            if metric_name == name and not isinstance(metric, Histogram):
                total += metric.value
                found = True
        return total if found else None

    def snapshot(self) -> Dict[str, object]:
        """Flat ``{name or name{k="v"}: value}`` dict for tests/benchmarks.

        Histograms appear as ``{"count", "sum", "buckets"}`` sub-dicts.
        """
        out: Dict[str, object] = {}
        for (name, label_key), metric in sorted(self._metrics.items()):
            key = name
            if label_key:
                key += "{%s}" % ",".join('%s="%s"' % kv for kv in label_key)
            if isinstance(metric, Histogram):
                out[key] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": {str(b): c for b, c in
                                zip(metric.buckets, metric.counts)},
                    "p50": metric.quantile(0.50),
                    "p95": metric.quantile(0.95),
                    "p99": metric.quantile(0.99),
                }
            else:
                out[key] = metric.value
        return out

    def render_prometheus(self, prefix: str = "ode") -> str:
        return render_prometheus(self, prefix=prefix)

    def _by_name(self):
        grouped: Dict[str, List[object]] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            grouped.setdefault(name, []).append(metric)
        return grouped


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(prefix: str, dotted: str) -> str:
    return (prefix + "_" + dotted).replace(".", "_")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, str(v).replace('"', '\\"'))
                             for k, v in sorted(labels.items()))


def _prom_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    # Non-numeric gauges (e.g. durability mode) become an info-style
    # labeled constant handled by the caller; plain fallback here.
    return "0"


def render_prometheus(registry: MetricsRegistry, prefix: str = "ode") -> str:
    """Render the registry in Prometheus text exposition format v0.0.4."""
    lines: List[str] = []
    for name, metrics in registry._by_name().items():
        first = metrics[0]
        if isinstance(first, Histogram):
            base = _prom_name(prefix, name)
            lines.append("# HELP %s %s" % (base, name))
            lines.append("# TYPE %s histogram" % base)
            for hist in metrics:
                cumulative = 0
                for bound, count in zip(hist.buckets, hist.counts):
                    cumulative += count
                    labels = dict(hist.labels)
                    labels["le"] = ("%g" % bound)
                    lines.append("%s_bucket%s %d" % (base,
                                                     _prom_labels(labels),
                                                     cumulative))
                labels = dict(hist.labels)
                labels["le"] = "+Inf"
                lines.append("%s_bucket%s %d" % (base, _prom_labels(labels),
                                                 hist.count))
                lines.append("%s_sum%s %s" % (base, _prom_labels(hist.labels),
                                              _prom_value(hist.sum)))
                lines.append("%s_count%s %d" % (base,
                                                _prom_labels(hist.labels),
                                                hist.count))
            # Quantile estimates as a sibling gauge family (a histogram
            # family may only carry _bucket/_sum/_count samples).
            qlines: List[str] = []
            for hist in metrics:
                if hist.count == 0:
                    continue
                for q in (0.50, 0.95, 0.99):
                    labels = dict(hist.labels)
                    labels["q"] = "%g" % q
                    qlines.append("%s_quantile%s %s"
                                  % (base, _prom_labels(labels),
                                     _prom_value(float(hist.quantile(q)))))
            if qlines:
                lines.append("# HELP %s_quantile estimated quantiles of %s"
                             % (base, name))
                lines.append("# TYPE %s_quantile gauge" % base)
                lines.extend(qlines)
            continue
        is_counter = (isinstance(first, Counter)
                      or (isinstance(first, _Sampled)
                          and first.kind == "counter"))
        kind = "counter" if is_counter else "gauge"
        base = _prom_name(prefix, name)
        if is_counter and not base.endswith("_total"):
            base += "_total"
        lines.append("# HELP %s %s" % (base, name))
        lines.append("# TYPE %s %s" % (base, kind))
        for metric in metrics:
            value = metric.value
            if isinstance(value, str):
                # String-valued gauge → info-style constant with the
                # value carried in a label (e.g. WAL durability mode).
                labels = dict(metric.labels)
                labels["value"] = value
                lines.append("%s%s 1" % (base, _prom_labels(labels)))
            else:
                lines.append("%s%s %s" % (base, _prom_labels(metric.labels),
                                          _prom_value(value)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# A tiny validating parser for the exposition format (used by tests and
# `python -m repro promlint`).
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_LABEL_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"')


class PromParseError(ValueError):
    """Raised by :func:`parse_prometheus` on malformed exposition text."""


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse Prometheus text format → ``{name: [(labels, value), ...]}``.

    Validates name syntax, label syntax, float values, and that TYPE
    lines precede their samples. Raises :class:`PromParseError` with a
    line number on the first problem.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    typed: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                if not _NAME_RE.match(parts[2]):
                    raise PromParseError(
                        "line %d: bad metric name %r in %s line"
                        % (lineno, parts[2], parts[1]))
                if parts[1] == "TYPE":
                    if len(parts) < 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped"):
                        raise PromParseError(
                            "line %d: bad TYPE %r" % (lineno, line))
                    typed[parts[2]] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise PromParseError("line %d: unparseable sample %r"
                                 % (lineno, line))
        name = m.group("name")
        labels: Dict[str, str] = {}
        body = m.group("labels")
        if body:
            inner = body[1:-1].strip()
            if inner:
                pos = 0
                while pos < len(inner):
                    lm = _LABEL_RE.match(inner, pos)
                    if not lm:
                        raise PromParseError(
                            "line %d: bad label syntax %r"
                            % (lineno, inner[pos:]))
                    labels[lm.group("key")] = lm.group("val")
                    pos = lm.end()
                    if pos < len(inner):
                        if inner[pos] != ",":
                            raise PromParseError(
                                "line %d: expected ',' in labels %r"
                                % (lineno, inner))
                        pos += 1
        try:
            value = float(m.group("value"))
        except ValueError:
            raise PromParseError("line %d: bad value %r"
                                 % (lineno, m.group("value")))
        samples.setdefault(name, []).append((labels, value))
    # histogram families must have _bucket/_sum/_count samples
    for name, kind in typed.items():
        if kind == "histogram":
            for suffix in ("_bucket", "_sum", "_count"):
                if name + suffix not in samples:
                    raise PromParseError(
                        "histogram %s missing %s samples" % (name, suffix))
    return samples

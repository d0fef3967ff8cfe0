"""Live console dashboard for the workload sampler feed (``repro top``).

Split so the interesting part is testable: :func:`render_frame` is a
pure function from sampler rows to a text frame (golden-tested), and
:func:`run_dashboard` is the thin ANSI loop that clears the screen and
redraws it. :func:`tail_rows` follows a JSONL timeline file the way
``tail -f`` does, so the dashboard works against a simulator running in
a different process.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

SPARK_CHARS = "▁▂▃▄▅▆▇█"     # min..max; gaps (None) render as spaces


def _spark(values: Sequence[Optional[float]], width: int) -> str:
    """Render the last *width* values as a unicode sparkline."""
    tail = [v for v in values][-width:]
    numeric = [v for v in tail if v is not None]
    if not numeric:
        return "(no data)"
    lo, hi = min(numeric), max(numeric)
    span = (hi - lo) or 1.0
    out = []
    for v in tail:
        if v is None:
            out.append(" ")
        else:
            idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
            out.append(SPARK_CHARS[idx])
    return "".join(out)


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        text = "%.1f" % value if abs(value) >= 100 else "%.2f" % value
    else:
        text = str(value)
    return text + suffix


def render_frame(rows: Sequence[Dict[str, Any]], width: int = 78,
                 title: str = "repro top") -> str:
    """Render sampler *rows* (oldest→newest) as one dashboard frame."""
    lines: List[str] = []
    rule = "─" * width
    if not rows:
        header = " %s" % title
        lines.append(header + "waiting for samples".rjust(
            max(0, width - len(header))))
        lines.append(rule)
        return "\n".join(lines)
    last = rows[-1]
    status = "t=%ss  tick %s" % (_fmt(last.get("t")), last.get("tick", "?"))
    header = " %s" % title
    lines.append(header + status.rjust(max(0, width - len(header))))
    lines.append(rule)

    def stat_line(pairs):
        cell = max(10, (width - 2) // len(pairs))
        parts = []
        for label, value in pairs:
            parts.append(("%s %s" % (label, value)).ljust(cell))
        return " " + "".join(parts).rstrip()

    lines.append(stat_line([
        ("ops/s", _fmt(last.get("ops_s"))),
        ("commit/s", _fmt(last.get("commit_s"))),
        ("abort/s", _fmt(last.get("abort_s"))),
        ("in-flight", _fmt(last.get("in_flight"))),
    ]))
    lines.append(stat_line([
        ("p50", _fmt(last.get("p50_ms"), "ms")),
        ("p99", _fmt(last.get("p99_ms"), "ms")),
        ("err/s", _fmt(last.get("errors_s"))),
        ("buf hit", _fmt(last.get("buffer_hit_pct"), "%")),
    ]))
    lines.append(stat_line([
        ("wal sync/s", _fmt(last.get("wal_syncs_s"))),
        ("conflict/s", _fmt(last.get("conflicts_s"))),
        ("evt drop", _fmt(last.get("events_dropped"))),
    ]))
    if last.get("stmt_hits_s") or last.get("stmt_misses_s"):
        lines.append(" O++ statement cache: hit/s %s  miss/s %s"
                     % (_fmt(last.get("stmt_hits_s")),
                        _fmt(last.get("stmt_misses_s"))))
    aborts = last.get("aborts") or {}
    if aborts:
        text = " ".join("%s=%s" % (k, _fmt(v))
                        for k, v in sorted(aborts.items()))
        lines.append(" aborts by reason: %s" % text[:width - 20])
    scans = last.get("shard_scans") or {}
    if scans:
        text = " ".join("%s:%s" % (k.replace('shard="', "").rstrip('"'),
                                   _fmt(v))
                        for k, v in sorted(scans.items()))
        lines.append(" shard scans: %s" % text[:width - 14])
    lines.append(rule)
    spark_w = width - 2
    lines.append(" ops/s")
    lines.append(" " + _spark([r.get("ops_s") for r in rows], spark_w))
    lines.append(" p99 ms")
    lines.append(" " + _spark([r.get("p99_ms") for r in rows], spark_w))
    return "\n".join(lines)


def tail_rows(path: str, poll_s: float = 0.25,
              stop=None) -> Iterator[Dict[str, Any]]:
    """Yield rows appended to a JSONL timeline file, ``tail -f`` style."""
    import json
    pos = 0
    buf = ""
    while stop is None or not stop.is_set():
        if not os.path.exists(path):
            time.sleep(poll_s)
            continue
        with open(path, "r", encoding="utf-8") as fh:
            fh.seek(pos)
            chunk = fh.read()
            pos = fh.tell()
        if chunk:
            buf += chunk
            while "\n" in buf:
                line, buf = buf.split("\n", 1)
                line = line.strip()
                if line:
                    try:
                        yield json.loads(line)
                    except ValueError:
                        pass
        else:
            time.sleep(poll_s)


def run_dashboard(rows_iter: Iterable[Dict[str, Any]],
                  refresh_s: float = 0.25, width: int = 78,
                  out=None, history: int = 120,
                  max_frames: Optional[int] = None) -> int:
    """Consume *rows_iter*, redrawing an ANSI frame per refresh window.

    Returns the number of frames drawn. ``max_frames`` bounds the loop
    for tests and ``repro top --once``.
    """
    out = out or sys.stdout
    window: List[Dict[str, Any]] = []
    frames = 0
    last_draw = 0.0
    try:
        for row in rows_iter:
            window.append(row)
            if len(window) > history:
                window.pop(0)
            now = time.monotonic()
            if now - last_draw < refresh_s and (
                    max_frames is None or frames > 0):
                continue
            last_draw = now
            out.write("\x1b[H\x1b[2J" + render_frame(window, width) + "\n")
            out.flush()
            frames += 1
            if max_frames is not None and frames >= max_frames:
                break
    except KeyboardInterrupt:
        pass
    return frames

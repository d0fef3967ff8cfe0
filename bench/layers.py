"""Per-layer probes that more than one workload's traced run uses.

Each probe drives one public call on inputs the workload already made and
returns per-layer metric values; the spans it records carry the layer as
the first dotted component of their name.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro import Database
from repro.storage import decode_value, encode_value

from harness import Spans, clock, ratio


def counter_metrics(before: Dict, after: Dict, ops: int, commits: int,
                    user_bytes: int) -> Dict[str, float]:
    """Ratios from two ``metrics.snapshot()`` (or ``Client.stats()``
    ``metrics``) readings taken around *ops* operations."""
    def delta(name):
        return counter_value(after, name) - counter_value(before, name)
    hits, misses = delta("buffer.hits"), delta("buffer.misses")
    dec_hits, dec_misses = delta("decoded.hits"), delta("decoded.misses")
    return {
        "storage.buffer_hit_ratio": ratio(hits, hits + misses),
        "storage.evictions_per_op": ratio(delta("buffer.evictions"), ops),
        "storage.decoded_hit_ratio": ratio(dec_hits, dec_hits + dec_misses),
        "storage.wal_bytes_per_user_byte":
            ratio(delta("wal.end_lsn"), user_bytes),
        "storage.wal_syncs_per_commit": ratio(delta("wal.syncs"), commits),
    }


class CounterSum:
    """Adds up ``metrics.snapshot()`` counter deltas over several opens of
    one database (every reopen starts the counters from zero)."""

    def __init__(self, db: Database):
        self.totals: Dict[str, float] = {}
        self.start(db)

    def start(self, db: Database) -> None:
        self._db = db
        self._before = db.metrics.snapshot()

    def stop(self) -> None:
        after = self._db.metrics.snapshot()
        for key, value in after.items():
            if isinstance(value, (int, float)):
                self.totals[key] = (self.totals.get(key, 0.0) + value
                                    - counter_value(self._before, key))


def counter_value(snapshot: Dict, name: str) -> float:
    value = snapshot.get(name, 0)
    return float(value) if isinstance(value, (int, float)) else 0.0


def codec_probe(states: Sequence[Dict], spans: Spans) -> Dict[str, float]:
    """``encode_value`` / ``decode_value`` over the workload's own records."""
    start = clock()
    raws = [encode_value(state) for state in states]
    mid = clock()
    for raw in raws:
        decode_value(raw)
    end = clock()
    spans.add("storage.encode", start, mid, -1, -1)
    spans.add("storage.decode", mid, end, -1, -1)
    n = len(states)
    return {"storage.encode_us_per_record": ratio((mid - start) * 1e6, n),
            "storage.decode_us_per_record": ratio((end - mid) * 1e6, n)}


def user_bytes(states: Sequence[Dict]) -> int:
    return sum(len(encode_value(state)) for state in states)


def snapshot_probe(db: Database, spans: Spans, rounds: int = 20) -> float:
    """Median cost in ms of the boundary ``metrics.snapshot()`` call."""
    costs: List[float] = []
    for _ in range(rounds):
        start = clock()
        db.metrics.snapshot()
        end = clock()
        spans.add("obs.snapshot", start, end, -1, -1)
        costs.append(end - start)
    return statistics.median(costs) * 1e3


def span_ms(spans: Spans, name: str, call):
    """Run ``call()`` under one span; returns ``(result, milliseconds)``."""
    start = clock()
    result = call()
    end = clock()
    spans.add(name, start, end, -1, -1)
    return result, (end - start) * 1e3


def store_probes(db: Database, states: Sequence[Dict],
                 spans: Spans) -> Dict[str, float]:
    """The probes every workload's traced run ends with: codec over its
    own records, the boundary snapshot, one checkpoint."""
    out = codec_probe(states, spans)
    out["obs.snapshot_ms"] = snapshot_probe(db, spans)
    out["storage.checkpoint_ms"] = span_ms(spans, "storage.checkpoint",
                                           db.checkpoint)[1]
    return out


def recovery_probe(db: Database, path: str, spans: Spans):
    """``store.crash()`` then reopen: returns ``(new_db, recovery_ms)``.

    The caller commits a fixed number of transactions after a checkpoint
    first, so the redo pass has the same work on every run.
    """
    db.store.crash()
    return span_ms(spans, "storage.recovery", lambda: Database(path))

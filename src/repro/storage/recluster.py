"""Metrics-driven dynamic reclustering daemon.

The store records which objects ``get`` touches when
:attr:`~repro.storage.store.Store.track_access` is on. This daemon
periodically drains that profile, picks the objects hot enough to matter
(at least ``min_hits`` accesses in the window), and calls
:meth:`Store.recluster_shard` so each shard rewrites with its hot
objects packed into the leading extent — the dynamic counterpart of the
paper's static ``cluster`` placement hints: objects that are *used*
together migrate to live together, and the scans/dereference runs that
made them hot read fewer pages next time. The same round rewrites any
shard whose object table is mostly dead entries
(:meth:`Store.crowded_directories`).

The daemon is deliberately dumb and safe: each migration is an ordinary
transaction under the cluster's X lock, so it serializes against
application writers via 2PL and against MVCC chain walkers via the scan
gate; if a migration deadlocks, hits a degraded store or loses a race
with DDL, the round is simply skipped — reclustering is an optimization,
never a correctness dependency.

Environment knobs (read at daemon construction):

``REPRO_RECLUSTER`` — set to ``0`` to disable the daemon entirely.
``REPRO_RECLUSTER_INTERVAL`` — seconds between rounds (default 30).
``REPRO_RECLUSTER_MIN_HITS`` — accesses before an object counts as hot
(default 64).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Tuple

from ..errors import (CatalogError, DeadlockError, DegradedModeError,
                      LockTimeoutError)

ENV_ENABLE = "REPRO_RECLUSTER"
ENV_INTERVAL = "REPRO_RECLUSTER_INTERVAL"
ENV_MIN_HITS = "REPRO_RECLUSTER_MIN_HITS"

DEFAULT_INTERVAL = 30.0
DEFAULT_MIN_HITS = 64


def enabled(environ=os.environ) -> bool:
    """Whether the daemon should run (``REPRO_RECLUSTER`` != ``0``)."""
    return environ.get(ENV_ENABLE, "1") != "0"


def _env_float(environ, name: str, default: float) -> float:
    try:
        return float(environ.get(name, ""))
    except ValueError:
        return default


class ReclusterDaemon(threading.Thread):
    """Background thread migrating hot objects into shared extents."""

    def __init__(self, store, interval: float = None,
                 min_hits: int = None, environ=os.environ):
        super().__init__(name="repro-recluster", daemon=True)
        self.store = store
        self.interval = (interval if interval is not None
                         else _env_float(environ, ENV_INTERVAL,
                                         DEFAULT_INTERVAL))
        self.min_hits = (min_hits if min_hits is not None
                         else int(_env_float(environ, ENV_MIN_HITS,
                                             DEFAULT_MIN_HITS)))
        self._stop_evt = threading.Event()
        #: rounds attempted / migrations skipped on contention, for tests
        self.rounds = 0
        self.skipped = 0

    def run(self) -> None:
        self.store.track_access = True
        try:
            while not self._stop_evt.wait(self.interval):
                try:
                    self.run_once()
                except Exception:
                    # The store may be mid-close or degraded; a daemon
                    # round must never take the process down.
                    self.skipped += 1
        finally:
            self.store.track_access = False

    def stop(self) -> None:
        """Signal and join the daemon (called from ``Database.close``)."""
        self._stop_evt.set()
        if self.is_alive():
            self.join(timeout=10.0)

    # -- one round ---------------------------------------------------------

    def plan(self) -> Dict[str, Dict[int, List]]:
        """Drain the access profile into cluster -> shard -> hot serials
        (rank order: hottest first)."""
        profile = self.store.take_access_profile()
        by_cluster: Dict[str, List[Tuple[int, object]]] = {}
        for (cluster, serial), hits in profile.items():
            if hits >= self.min_hits:
                by_cluster.setdefault(cluster, []).append((hits, serial))
        out: Dict[str, Dict[int, List]] = {}
        for cluster, ranked in by_cluster.items():
            ranked.sort(key=lambda pair: (-pair[0], repr(pair[1])))
            shards: Dict[int, List] = {}
            for _hits, serial in ranked:
                sid = self.store._shard_of_key((serial, 0))
                shards.setdefault(sid, []).append(serial)
            out[cluster] = shards
        return out

    def run_once(self) -> int:
        """One reclustering round; returns how many shards were rewritten.

        Besides the hot sets, a shard whose object table holds more dead
        entries than live ones is rewritten (with no placement hint):
        the same rebuild reclaims them, so the space deletes leave
        behind is bounded without anyone calling ``vacuum``.
        """
        self.rounds += 1
        work = {(cluster, sid): serials
                for cluster, shards in self.plan().items()
                for sid, serials in shards.items()}
        for pair in self.store.crowded_directories():
            work.setdefault(pair, [])
        rewritten = 0
        for (cluster, sid), serials in work.items():
            if not self.store.has_cluster(cluster):
                continue  # dropped since the accesses were recorded
            try:
                self.store.recluster_shard(cluster, serials, shard=sid)
                rewritten += 1
            except (DeadlockError, LockTimeoutError,
                    DegradedModeError, CatalogError):
                self.skipped += 1
        return rewritten

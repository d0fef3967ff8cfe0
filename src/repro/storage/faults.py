"""Deterministic fault injection for the storage stack.

The page file and the WAL call :meth:`FaultInjector.fire` at named
*failpoints* bracketing every OS-level I/O. An unarmed injector is a
single attribute check (``if f is not None and f.enabled``) on those
paths; an armed one can deterministically inject the classic storage
failure modes at any point:

=========== =================================================================
``die``     hard process death (``os._exit``) — models a crash/power cut
``error``   the syscall fails with ``EIO`` (an :class:`OSError` the site
            translates into its typed error)
``torn``    a page write persists only its first N bytes, then the process
            dies — models a torn sector write
``lost``    a write is silently dropped (the site returns as if it
            succeeded) — models a lost write / lying firmware
``lie``     an fsync is skipped but reported successful — models a
            battery-less write cache
``short``   a read returns fewer bytes than asked
=========== =================================================================

Which action makes sense depends on the site, so every registered
failpoint carries a default action (see :data:`KNOWN_FAILPOINTS`); the
crash harness enumerates that table to build its kill-point matrix.

Failpoints are armed programmatically (``db.faults.arm(...)``) or through
the environment, which is how the harness arms a *subprocess* before it
even finishes importing::

    REPRO_FAULTS="wal.flush.pre:die:3;pagefile.write.torn:torn:1"
    REPRO_FAULTS_SEED=42

Each entry is ``name:action[:at_hit]`` — the action triggers on the
``at_hit``-th time the point is reached (1-based, default 1). The seed
drives the RNG used for randomized parameters (e.g. how many bytes of a
torn write survive), so every run is reproducible.
"""

from __future__ import annotations

import errno
import os
import random
from typing import Dict, List, Optional, Tuple

from ..errors import StorageError

ENV_FAULTS = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

#: Exit code used by ``die``/``torn`` so the harness can tell an injected
#: death from an ordinary crash.
DIE_EXIT_CODE = 47

#: Every failpoint the storage stack fires, with its default action.
#: The crash harness derives its kill-point matrix from this table.
KNOWN_FAILPOINTS: Tuple[Tuple[str, str], ...] = (
    ("pagefile.write.pre", "die"),
    ("pagefile.write.torn", "torn"),
    ("pagefile.write.lost", "lost"),
    ("pagefile.write.post", "die"),
    ("pagefile.read.pre", "error"),
    ("pagefile.read.short", "short"),
    ("pagefile.sync.pre", "die"),
    ("pagefile.sync.lie", "lie"),
    ("pagefile.sync.post", "die"),
    ("wal.append.pre", "die"),
    ("wal.append.post", "die"),
    ("wal.flush.pre", "die"),
    ("wal.flush.fsync", "error"),
    ("wal.flush.lie", "lie"),
    ("wal.flush.post", "die"),
    ("wal.truncate.pre", "die"),
    ("wal.truncate.post", "die"),
    # The vacuum rewrite's points (fired only when something vacuums) —
    # the harness covers them with its maintenance cycles.
    ("vacuum.pre", "die"),
    ("vacuum.commit.pre", "die"),
    # Fired only when a store older binaries split over several page
    # files is opened (repro.storage.upgrade.merge_files): once per
    # cluster it copies into the main file, after its commit and
    # checkpoint, and after the root naming the files is cleared, before
    # the other files are unlinked.
    ("upgrade.merge.copy", "die"),
    ("upgrade.merge.root", "die"),
    ("upgrade.merge.unlink", "die"),
    # Fired once per object the format conversion at open folds into one
    # record, and once per record it rewrites in the positional layout
    # (only when an older file is opened); the harness's old-layout
    # cycles kill there.
    ("upgrade.fold", "die"),
    ("upgrade.relayout", "die"),
    # Network-server socket-layer points (fired only under `repro serve`
    # — the embedded matrix skips them; the server crash harness covers
    # them). `server.send.pre` kills between commit and the client ack
    # (acked-durable-but-unacked, the classic server crash window);
    # `server.send.torn` ships a partial reply frame then dies;
    # `server.recv.pre` fails a request read with EIO.
    ("server.send.pre", "die"),
    ("server.send.torn", "torn"),
    ("server.recv.pre", "error"),
)

_KNOWN = dict(KNOWN_FAILPOINTS)

ACTIONS = ("die", "error", "torn", "lost", "lie", "short")


class FaultPoint:
    """One armed failpoint: what to do and when."""

    __slots__ = ("name", "action", "at_hit", "count", "param", "hits",
                 "fired")

    def __init__(self, name: str, action: str, at_hit: int = 1,
                 count: int = 1, param: Optional[int] = None):
        self.name = name
        self.action = action
        self.at_hit = at_hit
        #: how many consecutive hits trigger (0 = every hit from at_hit on)
        self.count = count
        #: action parameter (torn: surviving byte count; short: bytes kept)
        self.param = param
        self.hits = 0
        self.fired = 0

    def __repr__(self):
        return ("FaultPoint(%r, %r, at_hit=%d, hits=%d, fired=%d)"
                % (self.name, self.action, self.at_hit, self.hits,
                   self.fired))


class FaultInjector:
    """Named-failpoint registry shared by one store's page file and WAL."""

    def __init__(self, seed: Optional[int] = None):
        self.enabled = False
        self._points: Dict[str, FaultPoint] = {}
        self.rng = random.Random(seed if seed is not None else 0)
        #: total faults actually injected (metrics: ``faults.injected``)
        self.injected = 0
        #: ``(name, action)`` trace of injected faults, for tests
        self.trace: List[Tuple[str, str]] = []
        self._obs_events = None

    @classmethod
    def from_env(cls, environ=os.environ) -> "FaultInjector":
        """Build an injector armed from ``REPRO_FAULTS``(+``_SEED``)."""
        seed = environ.get(ENV_SEED)
        injector = cls(seed=int(seed) if seed else None)
        spec = environ.get(ENV_FAULTS, "")
        for entry in filter(None, (e.strip() for e in spec.split(";"))):
            parts = entry.split(":")
            if len(parts) not in (2, 3):
                raise StorageError(
                    "bad %s entry %r (want name:action[:at_hit])"
                    % (ENV_FAULTS, entry))
            name, action = parts[0], parts[1]
            at_hit = int(parts[2]) if len(parts) == 3 else 1
            injector.arm(name, action, at_hit=at_hit)
        return injector

    def attach_observability(self, events) -> None:
        self._obs_events = events

    def arm(self, name: str, action: Optional[str] = None, at_hit: int = 1,
            count: int = 1, param: Optional[int] = None) -> FaultPoint:
        """Arm failpoint *name*; the default action is the site's natural
        failure mode from :data:`KNOWN_FAILPOINTS`."""
        if action is None:
            action = _KNOWN.get(name)
            if action is None:
                raise StorageError("unknown failpoint %r has no default "
                                   "action" % name)
        if action not in ACTIONS:
            raise StorageError("unknown fault action %r (one of %s)"
                               % (action, ", ".join(ACTIONS)))
        point = FaultPoint(name, action, at_hit=at_hit, count=count,
                           param=param)
        self._points[name] = point
        self.enabled = True
        return point

    def disarm(self, name: Optional[str] = None) -> None:
        """Disarm one failpoint, or all of them."""
        if name is None:
            self._points.clear()
        else:
            self._points.pop(name, None)
        self.enabled = bool(self._points)

    def armed(self, name: str) -> Optional[FaultPoint]:
        return self._points.get(name)

    # -- the hot path ---------------------------------------------------------

    def fire(self, name: str, **ctx) -> Optional[FaultPoint]:
        """Reach failpoint *name*.

        Returns ``None`` when nothing triggers. ``die`` exits the process
        on the spot; ``error`` raises ``OSError(EIO)`` (the site wraps it
        in its typed error). The site-cooperative actions (``torn``,
        ``lost``, ``lie``, ``short``) return the armed point and the call
        site implements the failure.
        """
        point = self._points.get(name)
        if point is None:
            return None
        point.hits += 1
        if point.hits < point.at_hit:
            return None
        if point.count and point.hits >= point.at_hit + point.count:
            return None
        point.fired += 1
        self.injected += 1
        self.trace.append((name, point.action))
        if self._obs_events is not None:
            self._obs_events.emit("fault_injected", failpoint=name,
                                  action=point.action, **ctx)
        if point.action == "die":
            os._exit(DIE_EXIT_CODE)
        if point.action == "error":
            raise OSError(errno.EIO, "injected EIO at %s" % name)
        return point

    def die(self) -> None:
        """Immediate injected process death (used by ``torn`` sites after
        the partial write has been issued)."""
        os._exit(DIE_EXIT_CODE)

    def stats(self) -> Dict[str, int]:
        return {"armed": len(self._points), "injected": self.injected}

    def __repr__(self):
        return ("FaultInjector(armed=%d, injected=%d)"
                % (len(self._points), self.injected))

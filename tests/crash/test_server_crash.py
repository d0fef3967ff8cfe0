"""Server kill-and-audit cycles (EXP-20): SIGKILL / injected death of a
``repro serve`` process mid-commit must never lose a client-acked
transaction.

One cycle: spawn ``python -m repro serve`` as a subprocess (optionally
with socket- or WAL-layer failpoints armed via ``REPRO_FAULTS``), run a
sequential remote workload — each op one explicit begin/execute/commit,
its index recorded as *acked* only after the commit reply arrives — and
let the fault (or a parent-driven SIGKILL racing the commit stream) kill
the server. Then reopen the database **in this process**, which runs
crash recovery, and audit:

1. the store reopens and is not degraded;
2. ``db.verify()`` is clean;
3. the surviving state is exactly the first ``k`` ops for some
   ``k >= acked`` — every acked commit survived, nothing partial (the
   ``server.send.pre`` death window is precisely the durable-but-unacked
   commit, so ``k > acked`` is legal, losing an acked op is not);
4. the recovered store still accepts writes.

The smoke subset runs in CI (``pytest -m crash``); ``REPRO_CRASH_FULL=1``
runs the >= 20-cycle matrix the acceptance criteria require.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import OdeError
from repro.server.client import Client
from repro.storage.faults import DIE_EXIT_CODE

pytestmark = pytest.mark.crash

SRC_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(repro.__file__))))

SCHEMA = """
class citem { public: char* name; int qty; };
create citem;
"""

#: Exit statuses a killed child may legitimately end with.
OK_EXITS = (0, DIE_EXIT_CODE, -signal.SIGKILL)

N_OPS = 40


class ServerCycle:
    """One spawn/kill/audit cycle against a ``repro serve`` subprocess."""

    def __init__(self, tmpdir: str, spec: str = "",
                 kill_after_s: float = None):
        self.db_path = os.path.join(tmpdir, "srvcrash.odb")
        self.spec = spec
        self.kill_after_s = kill_after_s
        self.acked = 0
        self.returncode = None
        self.stderr = ""
        self.problems = []

    def run(self) -> "ServerCycle":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        if self.spec:
            env["REPRO_FAULTS"] = self.spec
        else:
            env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.db_path,
             "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = None
        try:
            line = proc.stdout.readline().decode().split()
            assert line[:1] == ["LISTENING"], (
                "server never announced: %r / %s"
                % (line, proc.stderr.read().decode()[-500:]))
            host, port = line[1], int(line[2])
            if self.kill_after_s is not None:
                killer = threading.Thread(
                    target=self._kill_later, args=(proc,), daemon=True)
                killer.start()
            self._workload(host, port)
        finally:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            self.returncode = proc.returncode
            self.stderr = proc.stderr.read().decode()
            proc.stdout.close()
            proc.stderr.close()
            if killer is not None:
                killer.join(timeout=10)
        if self.returncode not in OK_EXITS:
            self.problems.append("server exited %d: %s"
                                 % (self.returncode, self.stderr[-500:]))
        self.problems.extend(self._audit())
        return self

    def _kill_later(self, proc) -> None:
        time.sleep(self.kill_after_s)
        try:
            proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _workload(self, host: str, port: int) -> None:
        """Sequential committed ops; self.acked counts commit *replies*."""
        try:
            client = Client(host, port, timeout=15.0)
            client.execute(SCHEMA)
            for i in range(N_OPS):
                client.begin()
                client.execute('pnew citem("obj%05d", %d);' % (i, i))
                client.commit()
                self.acked += 1
        except (OdeError, OSError):
            return  # the server died (or evicted us): cycle over

    def _audit(self):
        problems = []
        if not os.path.exists(self.db_path):
            if self.acked:
                problems.append("no database file, yet %d commits acked"
                                % self.acked)
            return problems
        from repro import Database
        try:
            db = Database(self.db_path)
        except Exception as exc:
            return ["recovery failed to reopen the store: %s: %s"
                    % (type(exc).__name__, exc)]
        try:
            if db.degraded is not None:
                problems.append("degraded after recovery: %s" % db.degraded)
            for issue in db.verify():
                problems.append("integrity: %s" % issue)
            from repro.opp.interp import Interpreter
            interp = Interpreter(db, echo=False)
            interp.run('class citem { public: char* name; int qty; };')
            state = {}
            if "citem" in db.clusters():
                interp.run("forall c in citem suchthat (c->qty >= 0) "
                           'printf("%s=%d\\n", c->name, c->qty);')
                for line in interp.output:
                    name, _, qty = line.strip().partition("=")
                    state[name] = int(qty)
            matched = None
            for k in range(self.acked, N_OPS + 1):
                model = {"obj%05d" % i: i for i in range(k)}
                if state == model:
                    matched = k
                    break
            if matched is None:
                problems.append(
                    "state matches no committed prefix >= %d acked ops "
                    "(%d objects recovered)" % (self.acked, len(state)))
            if not problems:
                # The recovered store still takes writes: an O++ probe
                # through the same path the server would use.
                if "citem" not in db.clusters():
                    interp.run("create citem;")
                interp.run('pnew citem("__probe__", 999983);\n'
                           "forall c in citem suchthat "
                           '(c->qty == 999983) pdelete c;')
        except Exception as exc:
            problems.append("audit raised %s: %s"
                            % (type(exc).__name__, exc))
        finally:
            try:
                db.close()
            except Exception as exc:
                problems.append("close after recovery raised %s: %s"
                                % (type(exc).__name__, exc))
        return problems


#: Smoke matrix: the socket-layer kill windows (die before the reply —
#: the durable-but-unacked ack window; torn reply frame) plus WAL-layer
#: deaths under the server, plus two parent SIGKILLs racing the commit
#: stream. ~8 cycles.
SMOKE_SPECS = [
    ("send-pre@5", "server.send.pre:die:5"),
    ("send-pre@17", "server.send.pre:die:17"),
    ("send-torn@9", "server.send.torn:torn:9"),
    ("recv-pre@12", "server.recv.pre:error:12"),
    ("wal-flush@7", "wal.flush.pre:die:7"),
    ("wal-flush@23", "wal.flush.pre:die:23"),
]

SMOKE_KILLS = [0.3, 0.9]

_FULL = bool(os.environ.get("REPRO_CRASH_FULL"))

#: Full matrix: >= 20 cycles across ack-window depths and kill delays.
FULL_SPECS = [
    ("send-pre@%d" % h, "server.send.pre:die:%d" % h)
    for h in (2, 5, 9, 17, 29, 41)
] + [
    ("send-torn@%d" % h, "server.send.torn:torn:%d" % h)
    for h in (3, 9, 21)
] + [
    ("recv-pre@%d" % h, "server.recv.pre:error:%d" % h)
    for h in (4, 16)
] + [
    ("wal-flush@%d" % h, "wal.flush.pre:die:%d" % h)
    for h in (2, 7, 13, 23, 31)
] + [
    ("pagefile-torn@%d" % h, "pagefile.write.torn:torn:%d" % h)
    for h in (2, 9)
]

FULL_KILLS = [0.15, 0.3, 0.5, 0.7, 0.9, 1.2]


@pytest.mark.parametrize("label,spec", SMOKE_SPECS,
                         ids=[label for label, _ in SMOKE_SPECS])
def test_server_crash_smoke(tmp_path, label, spec):
    cycle = ServerCycle(str(tmp_path), spec=spec).run()
    assert cycle.problems == [], (
        "server crash cycle %s (acked=%d) violated recovery invariants: "
        "%s\n--- server stderr ---\n%s"
        % (label, cycle.acked, cycle.problems, cycle.stderr[-1500:]))


@pytest.mark.parametrize("delay", SMOKE_KILLS)
def test_server_sigkill_smoke(tmp_path, delay):
    cycle = ServerCycle(str(tmp_path), kill_after_s=delay).run()
    assert cycle.problems == [], (
        "SIGKILL@%.2fs cycle (acked=%d) violated recovery invariants: "
        "%s\n--- server stderr ---\n%s"
        % (delay, cycle.acked, cycle.problems, cycle.stderr[-1500:]))


@pytest.mark.skipif(not _FULL, reason="set REPRO_CRASH_FULL=1 (slow)")
@pytest.mark.parametrize("label,spec", FULL_SPECS,
                         ids=[label for label, _ in FULL_SPECS])
def test_server_crash_full(tmp_path, label, spec):
    cycle = ServerCycle(str(tmp_path), spec=spec).run()
    assert cycle.problems == [], (
        "server crash cycle %s (acked=%d): %s\n%s"
        % (label, cycle.acked, cycle.problems, cycle.stderr[-1500:]))


@pytest.mark.skipif(not _FULL, reason="set REPRO_CRASH_FULL=1 (slow)")
@pytest.mark.parametrize("delay", FULL_KILLS)
def test_server_sigkill_full(tmp_path, delay):
    cycle = ServerCycle(str(tmp_path), kill_after_s=delay).run()
    assert cycle.problems == [], (
        "SIGKILL@%.2fs cycle (acked=%d): %s\n%s"
        % (delay, cycle.acked, cycle.problems, cycle.stderr[-1500:]))

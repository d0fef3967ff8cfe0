#!/usr/bin/env python3
"""The repo's benchmark: four workloads, named metrics, checked outputs.

One run (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload embedded_hot --seed 7 --seconds 15 --trace 0

prints every metric by name and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones (fixed op counts,
spans written to ``bench/.work/trace-<workload>.json``).

A whole set (every workload, both modes, ``--runs`` seeds each)::

    python3 bench/run.py --seed 7 --runs 10 --out results.json

Each run is a fresh child process with ``PYTHONHASHSEED=0`` and its own
directory under ``bench/.work``; the program is imported from ``src/``
next to ``bench/`` and nothing outside this checkout is read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]

import harness  # noqa: E402  (needs bench/ on the path)

CHILD_TIMEOUT_S = 170


def make_workload(name: str, cfg: dict, seed: int, workdir: str):
    if name in ("embedded_hot", "embedded_cold"):
        from embedded import Embedded
        return Embedded(name, cfg, seed, workdir)
    if name == "analytics":
        from analytics import Analytics
        return Analytics(cfg, seed, workdir)
    from server_oltp import ServerOltp
    return ServerOltp(cfg, seed, workdir)


# ---------------------------------------------------------------------------
# child: one workload, one mode
# ---------------------------------------------------------------------------

def end_to_end(wl, setup_times, timed, fin) -> dict:
    """The end-to-end metrics of one untraced run, by declared name."""
    ops = sum(t.ops for t in timed)
    seconds = max(t.seconds for t in timed)

    def merged(kinds):
        per_client = [t.kind_windows(kinds) for t in timed]
        return [[x for client in per_client for x in client[w]]
                for w in range(harness.WINDOWS)]
    reads, writes = merged(wl.read_kinds), merged(wl.write_kinds)
    ms = 1e3
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops / seconds, "1/s"),
        "read_p50_ms": (harness.windowed_pct(reads, 0.50) * ms, "ms"),
        "read_p90_ms": (harness.windowed_pct(reads, 0.90) * ms, "ms"),
        "write_p50_ms": (harness.windowed_pct(writes, 0.50) * ms, "ms"),
        "write_p90_ms": (harness.windowed_pct(writes, 0.90) * ms, "ms"),
        "space_amp": (fin["disk_bytes"] / fin["live_user_bytes"], "ratio"),
        "peak_rss_mb": (fin.get("rss_mb") or harness.peak_rss_mb(), "MiB"),
    }


def child(args) -> int:
    spec = harness.load_spec()
    cond = spec["conditions"]
    cfg = cond["workloads"][args.workload]
    wl = make_workload(args.workload, cfg, args.seed, args.workdir)
    setups = (1 if args.quick or args.trace
              else cond["fixed"]["setups_per_run"])
    setup_times = []
    for attempt in range(setups):
        start = harness.clock()
        wl.setup(attempt)
        setup_times.append(harness.clock() - start)
        if attempt < setups - 1:
            wl.discard()
            shutil.rmtree(os.path.join(args.workdir, "setup%d" % attempt))

    if args.trace:
        spans = harness.Spans()
        traced = wl.traced(spans)
        fin = wl.finish()
        traced["metrics"]["storage.bytes_per_object"] = (
            fin["disk_bytes"] / fin["objects"])
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(traced["metrics"]) - set(declared))
        if unknown:
            raise SystemExit("undeclared per-layer metrics: %s" % unknown)
        # A layer the workload never enters has no spans: its metrics read 0.
        values = {name: (float(traced["metrics"].get(name, 0.0)), unit)
                  for name, unit in declared.items()}
        attempted, failed = traced["counts"]["ops"], traced.get("failed", 0)
        os.makedirs(harness.WORK_DIR, exist_ok=True)
        with open(os.path.join(harness.WORK_DIR,
                               "trace-%s.json" % args.workload), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "columns": ["name", "start", "end", "parent", "op"],
                       "layers": spans.layers(), "counts": traced["counts"],
                       "spans": spans.rows}, f)
    else:
        timed = wl.timed(args.seconds)
        fin = wl.finish()
        values = end_to_end(wl, setup_times, timed, fin)
        attempted = sum(t.ops for t in timed)
        failed = sum(len(t.failed_ops) for t in timed)

    for problem in fin["problems"]:
        print("CHECK FAILED: %s" % problem)
    for name, (value, unit) in values.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not fin["problems"], "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in values.items()},
    }))
    return 0 if not fin["problems"] else 1


# ---------------------------------------------------------------------------
# parent: spawn children, relay and collect
# ---------------------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """One run in a fresh process group; returns its parsed result line."""
    workdir = os.path.join(harness.WORK_DIR, "run-%d-%s-%d-%d"
                           % (os.getpid(), workload, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    if trace:
        # No time-triggered background work, so single-client counts repeat.
        env["REPRO_RECLUSTER"] = "0"
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir] + (["--quick"] if quick else [])
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # The child's group holds the server it may have started.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    # Relayed as is: the child's last line is the run's result object.
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s seed %d trace %d (exit %s)"
                         % (workload, seed, trace, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end, 1 per-layer (default: both)")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload, counting up from --seed")
    parser.add_argument("--quick", action="store_true",
                        help="short smoke run; results are flagged and "
                             "compare.py refuses them")
    parser.add_argument("--out", help="write the collected runs as JSON")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("bench/run.py: no program to measure: %s/repro is missing"
              % SRC, file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    spec = harness.load_spec()
    cond = spec["conditions"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(names)))
    seed = cond["default_seed"] if args.seed is None else args.seed
    seconds = args.seconds
    if seconds is None:
        seconds = (cond["fixed"]["quick_seconds"] if args.quick
                   else spec["run_seconds"])
    modes = (0, 1) if args.trace is None else (args.trace,)
    runs = []
    for workload in ([args.workload] if args.workload else names):
        for k in range(args.runs):
            for trace in modes:
                print("== %s seed %d %s" % (workload, seed + k,
                                            "traced" if trace else "timed"))
                result = run_child(workload, seed + k, seconds, trace,
                                   args.quick)
                runs.append(dict(result, workload=workload, seed=seed + k,
                                 trace=trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"claim": cond["claim"], "quick": args.quick,
                       "seconds": seconds, "runs": runs}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

A is the baseline, B the candidate. For every workload and end-to-end
metric the table shows each set's median and quartiles and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  either set's quartile spread is wider than the bound, so
                the runs cannot tell

Only the bounds in ``BENCHMARK.json`` are used. A workload also regresses
when its share of failed operations grows by more than 0.001. Unknown
workload or metric names, and ``--quick`` results, are refused. The exit
status is the gate: 0 all ok, 1 something regressed, 2 only unresolved
rows, 3 bad input.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAILED_SHARE_SLACK = 0.001


class BadInput(Exception):
    pass


def load_bounds() -> Tuple[List[str], Dict[str, Dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]})


def load_set(path: str, workloads: List[str],
             metrics: Dict[str, Dict]) -> Dict[str, Dict]:
    """``{workload: {"values": {metric: [..]}, "attempted", "failed"}}``
    from the untraced runs of one result file."""
    with open(path) as f:
        data = json.load(f)
    if data.get("quick"):
        raise BadInput("%s holds --quick results; they are for smoke "
                       "tests, not for comparison" % path)
    out: Dict[str, Dict] = {}
    for run in data["runs"]:
        if run.get("trace"):
            continue
        if run["workload"] not in workloads:
            raise BadInput("%s: unknown workload %r"
                           % (path, run["workload"]))
        entry = out.setdefault(run["workload"],
                               {"values": {}, "attempted": 0, "failed": 0})
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        for name, value in run["metrics"].items():
            if name not in metrics:
                raise BadInput("%s: unknown end-to-end metric %r"
                               % (path, name))
            entry["values"].setdefault(name, []).append(value["value"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        raise BadInput("a set needs at least two runs per workload to have "
                       "quartiles (got %d)" % len(values))
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], spec: Dict) -> Tuple[str, float]:
    """``(verdict, worse)`` where *worse* is the share of A's median by
    which B's median is worse (negative when it is better)."""
    a1, a_med, a3 = quartiles(a)
    b1, b_med, b3 = quartiles(b)
    change = (b_med - a_med) / a_med
    worse = change if spec["better"] == "lower" else -change
    if max((a3 - a1) / a_med, (b3 - b1) / b_med) > spec["bound"]:
        return "unresolved", worse
    return ("regressed" if worse > spec["bound"] else "ok"), worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 3
    workloads, metrics = load_bounds()
    try:
        a_set = load_set(argv[0], workloads, metrics)
        b_set = load_set(argv[1], workloads, metrics)
        rows, seen = [], set()
        for workload in workloads:
            if workload not in a_set or workload not in b_set:
                continue
            a, b = a_set[workload], b_set[workload]
            for name, spec in metrics.items():
                if name not in a["values"] or name not in b["values"]:
                    raise BadInput("%s: metric %s missing from one set"
                                   % (workload, name))
                result, worse = verdict(a["values"][name],
                                        b["values"][name], spec)
                rows.append((workload, name, spec["unit"],
                             quartiles(a["values"][name]),
                             quartiles(b["values"][name]),
                             worse, spec["bound"], result))
                seen.add(result)
            a_share = a["failed"] / a["attempted"]
            b_share = b["failed"] / b["attempted"]
            result = ("regressed" if b_share > a_share + FAILED_SHARE_SLACK
                      else "ok")
            rows.append((workload, "failed_share", "ratio",
                         (a_share,) * 3, (b_share,) * 3,
                         b_share - a_share, FAILED_SHARE_SLACK, result))
            seen.add(result)
    except BadInput as exc:
        print("compare.py: %s" % exc, file=sys.stderr)
        return 3
    if not rows:
        print("compare.py: the two sets share no workload", file=sys.stderr)
        return 3
    print("%-14s %-13s %-6s %34s %34s %8s %6s  %s"
          % ("workload", "metric", "unit", "A q1 / median / q3",
             "B q1 / median / q3", "worse", "bound", "verdict"))
    for workload, name, unit, qa, qb, worse, bound, result in rows:
        print("%-14s %-13s %-6s %34s %34s %+8.3f %6.3f  %s"
              % (workload, name, unit, "%.4g / %.4g / %.4g" % qa,
                 "%.4g / %.4g / %.4g" % qb, worse, bound, result))
    if "regressed" in seen:
        return 1
    return 2 if "unresolved" in seen else 0


if __name__ == "__main__":
    sys.exit(main())

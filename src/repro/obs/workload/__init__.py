"""Macro workload simulator: scenario specs, driver, sampler, dashboard.

The repo benchmark (``bench/``) times four fixed workloads from outside;
this package answers the VOODB-style question from inside — *how does
the whole engine behave under a realistic mixed workload at scale?* It
is built as an observability layer: everything it measures flows through
the :mod:`repro.obs` metrics registry, so the same percentile histograms
and counters serve the simulator report, the Prometheus exposition, and
the live ``repro top`` dashboard.

Pieces:

- :mod:`repro.obs.workload.spec` — declarative scenario specs (client
  populations, open/closed-loop arrival processes, operation mixes,
  dataset scales) with validation, plus three built-in scenarios.
- :mod:`repro.obs.workload.driver` — executes a scenario over threads
  against an embedded :class:`~repro.core.database.Database`, timing
  every operation into per-class latency histograms.
- :mod:`repro.obs.workload.sampler` — a background thread snapshotting
  registry deltas every N ms into a JSONL timeline (ops/s, abort rates,
  cache hits, WAL flushes, conflicts).
- :mod:`repro.obs.workload.dashboard` — renders the sampler feed as a
  live ANSI console dashboard (``repro top``).
- :mod:`repro.obs.workload.compare` — diffs two simulation reports and
  flags p99/throughput regressions (the macro regression gate).
"""

from .compare import compare_reports, format_comparison
from .dashboard import render_frame, run_dashboard, tail_rows
from .driver import WorkloadDriver
from .sampler import TimeSeriesSampler, load_timeline
from .spec import (BUILTIN_SCENARIOS, ClientGroup, PhaseSpec, ScenarioError,
                   ScenarioSpec, get_scenario, load_scenario, parse_scenario)

__all__ = [
    "BUILTIN_SCENARIOS", "ClientGroup", "PhaseSpec", "ScenarioError",
    "ScenarioSpec", "get_scenario", "load_scenario", "parse_scenario",
    "WorkloadDriver", "TimeSeriesSampler", "load_timeline",
    "render_frame", "run_dashboard", "tail_rows",
    "compare_reports", "format_comparison",
]

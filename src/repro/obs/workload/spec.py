"""Declarative scenario specifications for the macro workload simulator.

A scenario is data, not code (the VOODB position: workloads you can
publish, re-run, and diff). It names a dataset scale, one or more
*phases*, and per-phase *client groups*; each group is a population of
identical clients with an operation mix and an arrival process:

- ``closed``  — each client issues the next operation when the previous
  one finishes, after an optional think time (a connection pool);
- ``fixed``   — each client issues operations at a fixed rate,
  regardless of completions (an open-loop load generator);
- ``poisson`` — open loop with exponentially distributed inter-arrival
  times (independent user traffic).

Open-loop latencies are measured from the operation's *scheduled*
arrival, so queueing delay under overload is part of the number — the
property that makes open-loop percentiles honest (coordinated-omission
safe).

Specs parse from plain dicts (JSON files, TOML files on Python >= 3.11,
or the built-in table below); :func:`parse_scenario` validates
everything and raises :class:`ScenarioError` with a path-qualified
message on the first problem.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List

from ...errors import OdeError

#: Operation classes the driver implements (see driver.py for semantics).
VALID_OPS = frozenset((
    "pnew", "update", "deref", "scan", "explode", "trigger",
    "version", "timetravel", "ingest", "analyze",
))

ARRIVALS = ("closed", "fixed", "poisson")

#: Dataset population knobs accepted under ``dataset``.
DATASET_KEYS = frozenset(("items", "parts", "designs", "events"))

#: Tunables accepted under ``params`` (merged over these defaults).
DEFAULT_PARAMS: Dict[str, float] = {
    "ingest_batch": 250,     # SimEvents per ingest transaction
    "trigger_items": 200,    # items armed with the restock trigger
    "scan_categories": 10,   # selectivity of the analytical scan
    "think_jitter": 0.5,     # +/- fraction applied to think times
}


class ScenarioError(OdeError):
    """A scenario spec failed validation."""


@dataclass
class ClientGroup:
    """A population of identical clients."""

    count: int
    mix: Dict[str, float]
    arrival: str = "closed"
    think_time_ms: float = 0.0
    rate: float = 0.0            # per-client ops/s (open loops only)


@dataclass
class PhaseSpec:
    """One timed stage of a scenario (e.g. ingest, then analyze)."""

    name: str
    duration_s: float
    clients: List[ClientGroup]


@dataclass
class ScenarioSpec:
    """A complete, validated scenario."""

    name: str
    description: str = ""
    dataset: Dict[str, int] = field(default_factory=dict)
    phases: List[PhaseSpec] = field(default_factory=list)
    seed: int = 0
    sample_interval_ms: float = 100.0
    durability: str = "group"
    params: Dict[str, float] = field(default_factory=dict)

    def scaled(self, factor: float) -> "ScenarioSpec":
        """A copy with dataset sizes multiplied by *factor* (>= 0)."""
        if factor <= 0:
            raise ScenarioError("scale factor must be positive, got %r"
                                % (factor,))
        dataset = {k: int(math.ceil(v * factor))
                   for k, v in self.dataset.items()}
        return replace(self, dataset=dataset)

    def with_duration(self, duration_s: float) -> "ScenarioSpec":
        """A copy with every phase's duration set to *duration_s*."""
        phases = [replace(p, duration_s=duration_s) for p in self.phases]
        return replace(self, phases=phases)

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    def to_dict(self) -> Dict:
        """Plain-dict form (round-trips through parse_scenario)."""
        return {
            "name": self.name,
            "description": self.description,
            "dataset": dict(self.dataset),
            "seed": self.seed,
            "sample_interval_ms": self.sample_interval_ms,
            "durability": self.durability,
            "params": dict(self.params),
            "phases": [
                {"name": p.name, "duration_s": p.duration_s,
                 "clients": [
                     {"count": g.count, "mix": dict(g.mix),
                      "arrival": g.arrival,
                      "think_time_ms": g.think_time_ms, "rate": g.rate}
                     for g in p.clients]}
                for p in self.phases],
        }


# ---------------------------------------------------------------------------
# Parsing / validation
# ---------------------------------------------------------------------------

def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError("%s: %s" % (where, message))


def _parse_group(d: Dict, where: str) -> ClientGroup:
    _require(isinstance(d, dict), where, "client group must be a table")
    unknown = set(d) - {"count", "mix", "arrival", "think_time_ms", "rate"}
    _require(not unknown, where, "unknown keys %s" % sorted(unknown))
    count = d.get("count", 1)
    _require(isinstance(count, int) and count >= 1, where,
             "count must be an integer >= 1, got %r" % (count,))
    mix = d.get("mix")
    _require(isinstance(mix, dict) and mix, where,
             "mix must be a non-empty {op: weight} table")
    for op, weight in mix.items():
        _require(op in VALID_OPS, where,
                 "unknown operation %r (valid: %s)"
                 % (op, ", ".join(sorted(VALID_OPS))))
        _require(isinstance(weight, (int, float)) and weight > 0, where,
                 "weight for %r must be > 0, got %r" % (op, weight))
    arrival = d.get("arrival", "closed")
    _require(arrival in ARRIVALS, where,
             "arrival must be one of %s, got %r" % (ARRIVALS, arrival))
    think = d.get("think_time_ms", 0.0)
    _require(isinstance(think, (int, float)) and think >= 0, where,
             "think_time_ms must be >= 0")
    rate = d.get("rate", 0.0)
    if arrival == "closed":
        _require(not rate, where,
                 "rate only applies to open-loop arrivals "
                 "(fixed / poisson)")
    else:
        _require(isinstance(rate, (int, float)) and rate > 0, where,
                 "open-loop arrival %r needs rate > 0 (ops/s per client)"
                 % arrival)
        _require(not think, where,
                 "think_time_ms only applies to closed-loop arrivals")
    return ClientGroup(count=count, mix={k: float(v) for k, v in mix.items()},
                       arrival=arrival, think_time_ms=float(think),
                       rate=float(rate))


def _parse_phase(d: Dict, index: int) -> PhaseSpec:
    where = "phases[%d]" % index
    _require(isinstance(d, dict), where, "phase must be a table")
    unknown = set(d) - {"name", "duration_s", "clients"}
    _require(not unknown, where, "unknown keys %s" % sorted(unknown))
    name = d.get("name", "phase%d" % index)
    _require(isinstance(name, str) and name, where, "name must be a string")
    duration = d.get("duration_s")
    _require(isinstance(duration, (int, float)) and duration > 0, where,
             "duration_s must be > 0")
    clients = d.get("clients")
    _require(isinstance(clients, list) and clients, where,
             "clients must be a non-empty list")
    groups = [_parse_group(g, "%s.clients[%d]" % (where, i))
              for i, g in enumerate(clients)]
    return PhaseSpec(name=name, duration_s=float(duration), clients=groups)


def parse_scenario(d: Dict) -> ScenarioSpec:
    """Validate a plain-dict spec into a :class:`ScenarioSpec`.

    Raises :class:`ScenarioError` naming the offending key on the first
    problem — a typo in a scenario file should fail loudly, not silently
    drive the wrong workload.
    """
    _require(isinstance(d, dict), "scenario", "spec must be a table")
    known = {"name", "description", "dataset", "seed", "sample_interval_ms",
             "durability", "params", "phases",
             "duration_s", "clients"}
    unknown = set(d) - known
    _require(not unknown, "scenario", "unknown keys %s" % sorted(unknown))
    name = d.get("name")
    _require(isinstance(name, str) and bool(name), "scenario",
             "name is required")
    dataset = d.get("dataset", {})
    _require(isinstance(dataset, dict), "dataset", "must be a table")
    for key, value in dataset.items():
        _require(key in DATASET_KEYS, "dataset",
                 "unknown key %r (valid: %s)"
                 % (key, ", ".join(sorted(DATASET_KEYS))))
        _require(isinstance(value, int) and value >= 0, "dataset",
                 "%s must be an integer >= 0" % key)
    # Single-phase shorthand: top-level duration_s + clients.
    if "phases" in d:
        _require("clients" not in d and "duration_s" not in d, "scenario",
                 "give either phases or top-level duration_s/clients, "
                 "not both")
        raw_phases = d["phases"]
        _require(isinstance(raw_phases, list) and bool(raw_phases),
                 "phases", "must be a non-empty list")
        phases = [_parse_phase(p, i) for i, p in enumerate(raw_phases)]
    else:
        _require("clients" in d and "duration_s" in d, "scenario",
                 "needs phases, or duration_s plus clients")
        phases = [_parse_phase({"name": "main",
                                "duration_s": d["duration_s"],
                                "clients": d["clients"]}, 0)]
    durability = d.get("durability", "group")
    _require(durability in ("full", "group", "none"), "durability",
             "must be full, group, or none; got %r" % (durability,))
    seed = d.get("seed", 0)
    _require(isinstance(seed, int), "seed", "must be an integer")
    interval = d.get("sample_interval_ms", 100.0)
    _require(isinstance(interval, (int, float)) and interval > 0,
             "sample_interval_ms", "must be > 0")
    params = dict(DEFAULT_PARAMS)
    raw_params = d.get("params", {})
    _require(isinstance(raw_params, dict), "params", "must be a table")
    for key, value in raw_params.items():
        _require(key in DEFAULT_PARAMS, "params",
                 "unknown key %r (valid: %s)"
                 % (key, ", ".join(sorted(DEFAULT_PARAMS))))
        _require(isinstance(value, (int, float)) and value >= 0, "params",
                 "%s must be a number >= 0" % key)
        params[key] = value
    return ScenarioSpec(
        name=name, description=d.get("description", ""),
        dataset={k: int(v) for k, v in dataset.items()},
        phases=phases, seed=seed, sample_interval_ms=float(interval),
        durability=durability, params=params)


def load_scenario(path: str) -> ScenarioSpec:
    """Load a scenario spec from a ``.json`` or ``.toml`` file."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            raise ScenarioError(
                "TOML scenario files need Python >= 3.11 (tomllib); "
                "use the JSON form of %r instead" % path)
        with open(path, "rb") as fh:
            try:
                data = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise ScenarioError("%s: %s" % (path, exc))
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ScenarioError("%s: %s" % (path, exc))
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
# Sizes here are the smoke tier (seconds-scale on one core); `--scale`
# multiplies the dataset and `--duration` stretches the phases for the
# full tier. A report records the spec, and so the tier, that produced it.

BUILTIN_SCENARIOS: Dict[str, Dict] = {
    # OLTP mix over the inventory schema: point reads dominate, with
    # read-modify-write updates, inserts, and the occasional short scan.
    "oltp": {
        "name": "oltp",
        "description": "OLTP mix: derefs, read-modify-write updates, "
                       "inserts, short analytical scans",
        "dataset": {"items": 2000},
        "duration_s": 4.0,
        "clients": [
            {"count": 4,
             "mix": {"deref": 8, "update": 4, "pnew": 2, "scan": 1}},
            # One open-loop group keeps pressure constant even when the
            # closed-loop clients stall on locks: queueing delay then
            # shows up in the percentiles instead of disappearing.
            {"count": 2, "mix": {"deref": 3, "update": 1},
             "arrival": "poisson", "rate": 40.0},
        ],
    },
    # ALEPH-style bulk scientific ingest, then scan-heavy analysis:
    # append event batches, then aggregate over the accumulated extent.
    "ingest_scan": {
        "name": "ingest_scan",
        "description": "Bulk event ingest, then scan-heavy analysis "
                       "(ALEPH ingest-then-analyze shape)",
        "dataset": {"events": 2000},
        "phases": [
            {"name": "ingest", "duration_s": 3.0,
             "clients": [{"count": 3, "mix": {"ingest": 1}}]},
            {"name": "analyze", "duration_s": 3.0,
             "clients": [{"count": 3,
                          "mix": {"analyze": 3, "scan": 1}}]},
        ],
    },
    # Active-database churn: trigger cascades, version creation, and
    # time-travel reads against the version chains, with fixpoint
    # part explosions mixed in.
    "churn": {
        "name": "churn",
        "description": "Trigger cascades, version churn, time-travel "
                       "reads, recursive part explosions",
        "dataset": {"items": 600, "parts": 300, "designs": 200},
        "duration_s": 4.0,
        "clients": [
            {"count": 3,
             "mix": {"trigger": 2, "version": 3, "timetravel": 2,
                     "update": 2, "explode": 1}},
        ],
    },
}


def get_scenario(name: str) -> ScenarioSpec:
    """A built-in scenario by name (see :data:`BUILTIN_SCENARIOS`)."""
    try:
        raw = BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            "unknown scenario %r (built-ins: %s; or pass a spec file)"
            % (name, ", ".join(sorted(BUILTIN_SCENARIOS))))
    return parse_scenario(raw)

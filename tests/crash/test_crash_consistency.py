"""Crash-consistency matrix (EXP-16).

The smoke matrix — every known failpoint at two hit counts, one cycle
each — runs in CI (``pytest -m crash``). The full randomized matrix
(hundreds of cycles) is opt-in via ``REPRO_CRASH_FULL=1`` /
``make crash-full``; a run prints nothing when every invariant holds.
"""

import os

import pytest

from .harness import (conversion_state, kill_specs, relayout_state,
                      run_cycle, shard_kill_specs, v2_conversion_windows,
                      v2_env, v2_kill_specs, v5_conversion_windows, v5_env,
                      v5_kill_specs)

pytestmark = pytest.mark.crash

SMOKE = kill_specs(hits=(2, 13))
SHARD = shard_kill_specs()
V2 = v2_kill_specs()
V5 = v5_kill_specs()

#: The full matrix crosses more seeds and hit depths; 2 seeds x 17
#: failpoints x 6 depths = 204 crash/recover cycles (>= the 200 the
#: acceptance criteria ask for).
FULL_SEEDS = (1337, 2024)
FULL_HITS = (1, 3, 9, 17, 29, 41)

_FULL = bool(os.environ.get("REPRO_CRASH_FULL"))


@pytest.mark.parametrize(
    "label,spec,strict", SMOKE, ids=[label for label, _, _ in SMOKE])
def test_crash_smoke(tmp_path, label, spec, strict):
    result = run_cycle(str(tmp_path), spec, strict=strict)
    assert result.problems == [], (
        "crash cycle %s violated recovery invariants: %s\n--- child "
        "stderr ---\n%s" % (label, result.problems, result.stderr[-1500:]))


@pytest.mark.parametrize(
    "label,spec,strict,extra_env", SHARD,
    ids=[label for label, _, _, _ in SHARD])
def test_crash_shard_matrix(tmp_path, label, spec, strict, extra_env):
    """Crash matrix over a 4-shard store (EXP-18): shard-creation and
    vacuum failpoints plus core WAL/pagefile points rerun with the
    gpid router and deterministic vacuum maintenance in play."""
    result = run_cycle(str(tmp_path), spec, strict=strict,
                       extra_env=extra_env)
    assert result.problems == [], (
        "shard crash cycle %s violated recovery invariants: %s\n--- child "
        "stderr ---\n%s" % (label, result.problems, result.stderr[-1500:]))


@pytest.fixture(scope="module")
def v2_windows(tmp_path_factory):
    """Hit-count windows of the conversion at open, per shard count."""
    return {shards: v2_conversion_windows(
                str(tmp_path_factory.mktemp("v2-calibrate-%d" % shards)),
                shards)
            for shards in (1, 4)}


@pytest.mark.parametrize(
    "label,shards,name,action,where", V2,
    ids=[label for label, _, _, _, _ in V2])
def test_crash_v2_migration(tmp_path, v2_windows, label, shards, name,
                            action, where):
    """Version-2 layout cycles (EXP-22, EXP-27): the store is reopened
    with hash directories, a hash index and a version-3 tree, and dies
    inside the conversion that open runs — or, sharded, in the first
    vacuum after it. The crash leaves every retired structure or
    none, and after recovery every acknowledged object is there."""
    if isinstance(where, float):
        lo, hi = v2_windows[shards][name]
        assert hi > lo, "%s never fires inside the conversion" % name
        at_hit = lo + 1 + int((hi - lo - 1) * where)
    else:
        at_hit = where
    result = run_cycle(str(tmp_path), "%s:%s:%d" % (name, action, at_hit),
                       extra_env=v2_env(shards), inspect=conversion_state)
    assert result.returncode != 0, "the kill point was never reached"
    assert result.problems == [], (
        "v2 crash cycle %s (hit %d) violated recovery invariants: %s\n"
        "--- child stderr ---\n%s"
        % (label, at_hit, result.problems, result.stderr[-1500:]))


@pytest.fixture(scope="module")
def v5_windows(tmp_path_factory):
    """Hit-count windows of the format 5 -> 6 rewrite, per shard count."""
    return {shards: v5_conversion_windows(
                str(tmp_path_factory.mktemp("v5-calibrate-%d" % shards)),
                shards)
            for shards in (1, 4)}


@pytest.mark.parametrize(
    "label,shards,name,action,where", V5,
    ids=[label for label, _, _, _, _ in V5])
def test_crash_v5_relayout(tmp_path, v5_windows, label, shards, name,
                           action, where):
    """Format-5 cycles: every object record is a codec dict when the
    store reopens, and the child dies inside the rewrite that makes each
    one positional. The crash leaves every record in one layout, and
    after recovery every acknowledged object is there."""
    lo, hi = v5_windows[shards][name]
    assert hi > lo, "%s never fires inside the conversion" % name
    at_hit = lo + 1 + int((hi - lo - 1) * where)
    result = run_cycle(str(tmp_path), "%s:%s:%d" % (name, action, at_hit),
                       extra_env=v5_env(shards), inspect=relayout_state)
    assert result.returncode != 0, "the kill point was never reached"
    assert result.problems == [], (
        "v5 crash cycle %s (hit %d) violated recovery invariants: %s\n"
        "--- child stderr ---\n%s"
        % (label, at_hit, result.problems, result.stderr[-1500:]))


@pytest.mark.skipif(not _FULL, reason="set REPRO_CRASH_FULL=1 (slow)")
@pytest.mark.parametrize("seed", FULL_SEEDS)
@pytest.mark.parametrize(
    "label,spec,strict",
    kill_specs(hits=FULL_HITS),
    ids=[label for label, _, _ in kill_specs(hits=FULL_HITS)])
def test_crash_full_matrix(tmp_path, seed, label, spec, strict):
    result = run_cycle(str(tmp_path), spec, seed=seed, strict=strict)
    assert result.problems == [], (
        "crash cycle %s seed=%d violated recovery invariants: %s\n--- "
        "child stderr ---\n%s"
        % (label, seed, result.problems, result.stderr[-1500:]))


def test_harness_catches_broken_build(tmp_path):
    """Negative control: a build that skips checksum stamping must FAIL
    the audit — otherwise the harness is vacuous.

    The kill point matters: while the WAL survives, recovery quietly
    *rebuilds* the unstamped pages from the log (checksum failure →
    suspect set → unconditional redo), masking the breakage. Dying just
    after a checkpoint truncates the log leaves unstamped pages with
    nothing to rebuild from — the audit's reopen must flag them."""
    result = run_cycle(str(tmp_path), "wal.truncate.post:die:1",
                       extra_env={"REPRO_WORKLOAD_SKIP_CHECKSUM": "1"})
    assert result.problems, (
        "the harness failed to detect an intentionally broken build "
        "(pagefile.SKIP_CHECKSUM) — its checks have no teeth")


def test_clean_cycle_has_no_violations(tmp_path):
    """Positive control: no faults armed, nothing to report."""
    result = run_cycle(str(tmp_path), "")
    assert result.returncode == 0
    assert result.acked == 40
    assert result.problems == []

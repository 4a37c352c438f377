"""Replication-engine tests.

summarize() is pinned with hand-arithmetic fixtures; the replicate
pipeline is checked for determinism, failure accounting, and desk-scale
agreement with the published no-censoring operating characteristics.
Full 200-rep reproductions live in the acceptance suite.
"""

import math
import os

import numpy as np
import pytest

from recurweight import harness
from recurweight.calibrate import CalibrationEntry, lookup_calibration
from recurweight.harness import (
    ReplicateResult,
    _worker_count,
    run_replicate,
    run_simulation,
    summarize,
)
from recurweight.simgen import config_for

TRUTH_LN2 = lookup_calibration(2.0)


def make_result(b1=0.4, b2=0.2, failed=False):
    return ReplicateResult(
        beta_hat=(b1, b2),
        naive_se=(0.02, 0.03),
        robust_se=(0.025, 0.035),
        replicate_seed=1,
        failed=failed,
    )


def toy_truth(m1=0.4, m2=0.2):
    return CalibrationEntry(m1, m1 + 0.1, m2, m1, 0.005)


def test_summarize_exact_estimates():
    rows = [make_result(0.4, 0.2) for _ in range(5)]
    s = summarize(rows, toy_truth(), 1)
    assert s.bias_pct == 0.0
    assert s.ese == 0.0
    assert s.mean_beta_hat == 0.4
    assert s.ase == pytest.approx(0.02)
    assert s.rse == pytest.approx(0.025)
    assert not s.bias_is_absolute


def test_summarize_two_point_ese():
    d = 0.03
    rows = [make_result(b1=0.4 + d), make_result(b1=0.4 - d)]
    s = summarize(rows, toy_truth(), 1)
    assert s.ese == pytest.approx(d * math.sqrt(2.0), rel=1e-12)
    assert s.bias_pct == pytest.approx(0.0, abs=1e-10)


def test_summarize_ese_absorbs_bias():
    # constant offset: spread around truth is the offset, centered is 0
    rows = [make_result(b2=0.2 + 0.05) for _ in range(4)]
    s = summarize(rows, toy_truth(), 2)
    assert s.ese == pytest.approx(0.05 * math.sqrt(4 / 3), rel=1e-12)
    assert s.ese_centered == 0.0
    assert s.bias_pct == pytest.approx(25.0)


def test_summarize_null_truth_absolute_bias():
    rows = [make_result(b2=0.01), make_result(b2=0.03)]
    s = summarize(rows, toy_truth(m2=0.0), 2)
    assert s.bias_is_absolute
    assert s.bias_pct == pytest.approx(0.02)
    assert s.true_hr == 1.0


def test_summarize_excludes_failures():
    rows = [make_result(b1=0.4), make_result(b1=99.0, failed=True), make_result(b1=0.5)]
    s = summarize(rows, toy_truth(), 1)
    assert s.n_reps == 3
    assert s.n_failed == 1
    assert s.mean_beta_hat == pytest.approx(0.45)


def test_summarize_single_success_flags_ese():
    s = summarize([make_result()], toy_truth(), 1)
    assert math.isnan(s.ese)
    assert math.isnan(s.ese_centered)


def test_summarize_input_validation():
    with pytest.raises(ValueError):
        summarize([], toy_truth(), 1)
    with pytest.raises(ValueError):
        summarize([make_result(failed=True)], toy_truth(), 1)
    with pytest.raises(ValueError):
        summarize([make_result()], toy_truth(), 3)


def test_replicate_deterministic():
    cfg = config_for(3, 0.25, 1_500, beta_c=0.46)
    a = run_replicate(cfg, 42, 3)
    b = run_replicate(cfg, 42, 3)
    assert a == b


def test_replicate_seeds_distinct():
    cfg = config_for(1, 0.25, 1_500)
    seeds = {run_replicate(cfg, 42, i).replicate_seed for i in range(5)}
    assert len(seeds) == 5
    assert all(isinstance(s, int) for s in seeds)


def test_replicate_censored_diagnostics():
    cfg = config_for(3, 0.25, 4_000, beta_c=0.4599, tau=1.0)
    r = run_replicate(cfg, 7, 1)
    assert not r.failed
    assert r.diagnostics["censored_analysis"] == "risk-set"
    assert r.diagnostics["weight_models"] == "observed-rows"
    assert 0.2 < r.diagnostics["censored_frac_event1"] < 0.45
    assert r.diagnostics["censored_frac_event2"] > r.diagnostics["censored_frac_event1"]
    for v in (*r.beta_hat, *r.robust_se):
        assert np.isfinite(v)


def test_replicate_failure_is_flagged_not_raised():
    # two subjects cannot support a propensity model
    cfg = config_for(1, 0.25, 2)
    r = run_replicate(cfg, 11, 0)
    assert r.failed
    assert "failure" in r.diagnostics
    assert math.isnan(r.beta_hat[0])


def test_null_effect_coverage():
    cfg = config_for(1, 0.25, 2_000, beta_c=0.0)
    results = [run_replicate(cfg, 313, i) for i in range(30)]
    assert not any(r.failed for r in results)
    covered = [abs(r.beta_hat[0]) < 4 * r.robust_se[0] for r in results]
    assert all(covered)
    for r in results:
        assert 0.9 < r.diagnostics["sw1_mean"] < 1.1
        assert 0.9 < r.diagnostics["sw2_mean"] < 1.1


def test_simulation_matches_published_spread():
    # second-event sampling distribution at the published regime:
    # estimates center on 0.3551 with replicate spread near 0.0636
    truth = TRUTH_LN2
    cfg = config_for(3, 0.5, 10_000, beta_c=truth.beta_c)
    row1, row2 = run_simulation(cfg, truth, 40, 626)
    assert row2.true_beta_m == pytest.approx(0.3551)
    assert row2.true_hr == pytest.approx(1.4263, abs=5e-4)
    assert abs(row2.mean_beta_hat - 0.3551) < 0.04
    assert 0.04 < row2.ese < 0.09
    assert row2.n_failed == 0
    assert row1.n_subjects == 10_000


def test_simulation_scenario2_low_bias():
    truth = TRUTH_LN2
    cfg = config_for(2, 0.5, 10_000, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, 25, 929)
    assert abs(row2.bias_pct) < 6.0


def test_simulation_scenario1_truth_adaptation():
    truth = lookup_calibration(1.5)
    cfg = config_for(1, 0.25, 2_000, beta_c=truth.beta_c)
    row1, row2 = run_simulation(cfg, truth, 4, 31)
    assert row2.true_beta_m == row1.true_beta_m == truth.beta_m1

    cfg2 = config_for(2, 0.25, 2_000, beta_c=truth.beta_c)
    _, drift_row2 = run_simulation(cfg2, truth, 4, 31)
    assert drift_row2.true_beta_m == truth.beta_m2


def test_simulation_single_rep_flags_ese():
    truth = lookup_calibration(1.5)
    cfg = config_for(2, 0.25, 2_000, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, 1, 5)
    assert math.isnan(row2.ese)
    assert row2.n_reps == 1


def test_simulation_aborts_on_failures():
    truth = lookup_calibration(1.0)
    cfg = config_for(1, 0.25, 2)
    with pytest.raises(RuntimeError, match="replicates failed"):
        run_simulation(cfg, truth, 5, 17)


def test_simulation_thread_count_invariance(monkeypatch):
    truth = lookup_calibration(1.5)
    cfg = config_for(3, 0.25, 1_500, beta_c=truth.beta_c)
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    serial = run_simulation(cfg, truth, 6, 88)
    monkeypatch.setenv("RECURWEIGHT_THREADS", "3")
    pooled = run_simulation(cfg, truth, 6, 88)
    assert serial == pooled


def test_worker_count_follows_affinity_not_cpu_count(monkeypatch):
    # a cgroup- or taskset-limited process sees fewer CPUs than the host
    monkeypatch.delenv("RECURWEIGHT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(harness, "cpu_count", lambda: 64)
    assert _worker_count(100) == 2
    assert _worker_count(1) == 1


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delenv("RECURWEIGHT_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness, "cpu_count", lambda: 3)
    assert _worker_count(100) == 3


def test_worker_count_env_cap(monkeypatch):
    monkeypatch.setenv("RECURWEIGHT_THREADS", "5")
    assert _worker_count(100) == 5
    assert _worker_count(2) == 2
    monkeypatch.setenv("RECURWEIGHT_THREADS", "0")
    assert _worker_count(100) == 1


@pytest.mark.parametrize("value", ["two", "", "1.5"])
def test_worker_count_malformed_env_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("RECURWEIGHT_THREADS", value)
    with pytest.raises(ValueError, match="RECURWEIGHT_THREADS"):
        _worker_count(10)

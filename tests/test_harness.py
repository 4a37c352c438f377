"""Replication-engine tests.

summarize() is pinned with hand-arithmetic fixtures; the replicate
pipeline is checked for determinism, failure accounting, and desk-scale
agreement with the published no-censoring operating characteristics.
Full 200-rep reproductions live in the acceptance suite.
"""

import ctypes
import math
import multiprocessing
import os
import pickle
import platform
import warnings

import numpy as np
import pytest

from recurweight import harness
from recurweight.calibrate import CalibrationEntry, lookup_calibration
from recurweight.harness import (
    REPLICATE_DTYPE,
    ReplicateResult,
    _worker_count,
    run_replicate,
    run_simulation,
    summarize,
)
from recurweight.iptw import build_treatment_weights
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream

TRUTH_LN2 = lookup_calibration(2.0)


def make_result(b1=0.4, b2=0.2, failed=False):
    row = np.full((), np.nan, REPLICATE_DTYPE)[()]
    row["log_hr"] = b1, b2
    row["naive_se"] = 0.02, 0.03
    row["robust_se"] = 0.025, 0.035
    return ReplicateResult(row, "WeightModelError: toy" if failed else None)


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
    # == is False on rows with nan fields, so compare the bytes
    assert a.row.tobytes() == b.row.tobytes()
    assert a.failure == b.failure


def test_replicate_indices_give_distinct_estimates():
    cfg = config_for(1, 0.25, 1_500)
    estimates = {tuple(run_replicate(cfg, 42, i).row["log_hr"]) for i in range(5)}
    assert len(estimates) == 5


def test_replicate_censored_diagnostics():
    cfg = config_for(3, 0.25, 4_000, beta_c=0.4599, tau=1.0)
    r = run_replicate(cfg, 7, 1)
    assert not r.failed
    censored = r.row["censored_frac"]
    assert 0.2 < censored[0] < 0.45
    assert censored[1] > censored[0]
    # sw2 is 0 where the first event was censored; the mean skips those rows
    ds = gen_dataset(cfg, RngStream(7, 1))
    sw2 = build_treatment_weights(ds, 3).sw2[ds["delta1"] == 1]
    assert r.row["sw_mean"][1] == pytest.approx(sw2.mean(), rel=1e-12)
    assert r.row["sw_max"][1] == sw2.max()
    for v in (*r.row["log_hr"], *r.row["robust_se"]):
        assert np.isfinite(v)


@pytest.mark.parametrize("tau", [None, 1.0])
def test_successful_replicate_fills_every_field(tau):
    # a field that no path writes stays nan and fails here; only an
    # uncensored run leaves its censored fractions unwritten
    r = run_replicate(config_for(3, 0.25, 1_500, beta_c=0.4599, tau=tau), 7, 1)
    assert r.failure is None
    for name in REPLICATE_DTYPE.names:
        if name == "censored_frac" and tau is None:
            assert np.isnan(r.row[name]).all()
        else:
            assert np.isfinite(r.row[name]).all(), name


def test_results_survive_a_pickle_round_trip():
    # the pool moves each result between processes this way
    ok = run_replicate(config_for(3, 0.25, 1_500, beta_c=0.4599, tau=1.0), 7, 1)
    failed = run_replicate(config_for(1, 0.25, 2), 11, 0)
    assert not ok.failed and failed.failed
    for r in (ok, failed):
        back = pickle.loads(pickle.dumps(r))
        assert back.row.dtype == REPLICATE_DTYPE
        assert back.row.tobytes() == r.row.tobytes()
        assert back.failure == r.failure


def test_replicate_failure_is_flagged_not_raised():
    # two subjects cannot support a propensity model
    cfg = config_for(1, 0.25, 2)
    r = run_replicate(cfg, 11, 0)
    assert r.failed
    assert r.failure
    assert math.isnan(r.row["log_hr"][0])


def test_replicate_with_too_few_observed_first_events_is_flagged():
    # at tau = 0.05 only a couple of 30 first events are observed, fewer
    # than the second propensity model's three coefficients
    r = run_replicate(config_for(3, 0.25, 30, beta_c=0.783, tau=0.05), 1234, 0)
    assert r.failed
    assert r.failure.startswith("WeightModelError: ")
    # what explains the failure was computed before it and is kept
    assert r.row["censored_frac"][0] == pytest.approx(28 / 30)
    assert r.row["prevalence"][0] == pytest.approx(0.3)
    assert math.isnan(r.row["sw_mean"][0])


def test_replicate_with_a_singular_weight_model_is_flagged():
    # at tau = 0.3 every one of the 4 observed first events is untreated,
    # so the second propensity model's z1 column is all zeros
    r = run_replicate(config_for(3, 0.25, 12, beta_c=0.783, tau=0.3), 1234, 0)
    assert r.failed
    assert r.failure == "WeightModelError: singular information matrix"


@pytest.mark.parametrize(
    "scenario, prevalence, n, index",
    [
        (1, 0.25, 12, 344),  # e1 saturates
        (3, 0.25, 15, 384),  # e2 saturates
        (3, 0.5, 30, 1392),  # e2 saturates
    ],
)
def test_replicate_with_a_saturated_propensity_is_flagged(
    scenario, prevalence, n, index
):
    cfg = config_for(scenario, prevalence, n, beta_c=0.7830)
    r = run_replicate(cfg, 1234, index)
    assert r.failed
    assert r.failure == (
        "SeparationError: a fitted probability saturated at 0 or 1"
    )
    assert math.isnan(r.row["sw_mean"][0])


# the second fit's log HR in the replicate below, by OpenBLAS kernel
# set: its weights come from IRLS sums that go through BLAS, and the
# kernel sets round them differently
NEWTON_OVERFLOW_LOG_HR2 = {
    "SkylakeX": -5.408509293480798,
    "Haswell": -5.408509293480803,
    "Nehalem": -5.408509293480803,
}


def test_replicate_whose_newton_trial_step_overflows_warns_nothing(pinned_by_openblas_core):
    # a trial step overflows exp(beta) in the second Cox fit; step-halving
    # counts the inf/nan likelihood as a drop and the fit converges
    r = run_replicate(config_for(3, 0.25, 100, beta_c=0.7830), 1234, 2162)
    assert not r.failed
    assert r.row["log_hr"].tolist() == [
        0.5267740849832034, pinned_by_openblas_core(NEWTON_OVERFLOW_LOG_HR2)]


def test_replicate_without_observed_first_event_warns_nothing():
    # every first event is censored, so no row is left for the sw2 mean
    # and the first Cox fit fails; what was computed before the failure
    # is kept
    cfg = config_for(1, 0.25, 20, tau=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_replicate(cfg, 1, 0)
    row = r.row
    assert r.failed
    assert r.failure.startswith("MonotoneLikelihoodError: ")
    assert row["prevalence"][0] == row["prevalence"][1] == pytest.approx(0.15)
    assert row["censored_frac"].tolist() == [1.0, 1.0]
    tw = build_treatment_weights(gen_dataset(cfg, RngStream(1, 0)), 1)
    assert row["sw_mean"][0] == tw.sw1.mean()
    assert row["sw_max"][0] == tw.sw1.max()
    assert math.isnan(row["sw_mean"][1])
    assert row["sw_max"][1] == 0.0
    assert np.isnan(row["log_hr"]).all()


def test_null_effect_coverage():
    cfg = config_for(1, 0.25, 2_000, beta_c=0.0)
    results = [run_replicate(cfg, 313, i) for i in range(30)]
    assert not any(r.failed for r in results)
    covered = [abs(r.row["log_hr"][0]) < 4 * r.row["robust_se"][0] for r in results]
    assert all(covered)
    for r in results:
        assert np.all((0.9 < r.row["sw_mean"]) & (r.row["sw_mean"] < 1.1))


def test_simulation_matches_published_spread():
    # second-event sampling distribution at the published regime:
    # estimates center on 0.3551 with replicate spread near 0.0636
    truth = TRUTH_LN2
    cfg = config_for(3, 0.5, 10_000, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, 40, 626)
    assert row2.true_beta_m == pytest.approx(0.3551)
    assert row2.true_hr == pytest.approx(1.4263, abs=5e-4)
    assert abs(row2.mean_beta_hat - 0.3551) < 0.04
    assert 0.04 < row2.ese < 0.09
    assert row2.n_failed == 0


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
    with pytest.raises(
        RuntimeError,
        match=r"^5 of 5 replicates failed \(SeparationError: 5\); results",
    ):
        run_simulation(cfg, truth, 5, 17)


def test_simulation_abort_counts_failures_by_type(monkeypatch):
    failures = ["WeightModelError: a", "SeparationError: b", None,
                "MonotoneLikelihoodError: c", "SeparationError: d",
                "WeightModelError: e"]
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    monkeypatch.setattr(harness, "run_replicate", lambda config, seed, i: (
        ReplicateResult(np.full((), np.nan, REPLICATE_DTYPE), failures[i])))
    with pytest.raises(RuntimeError) as caught:
        run_simulation(config_for(1, 0.25, 2), lookup_calibration(1.0), 6, 17)
    assert str(caught.value) == (
        "5 of 6 replicates failed (SeparationError: 2, WeightModelError: 2, "
        "MonotoneLikelihoodError: 1); results would be unreliable")


def test_simulation_refuses_a_truth_for_another_beta_c(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("a replicate or pool started")

    monkeypatch.setattr(harness, "run_replicate", started)
    monkeypatch.setattr(harness, "Pool", started)
    with pytest.raises(ValueError, match=r"beta_c 0\.783.* beta_c 0\.46$"):
        run_simulation(config_for(1, 0.25, 500, beta_c=0.46), TRUTH_LN2, 4, 5)


def test_serial_study_runs_the_pool_chunks_in_process(monkeypatch):
    chunks, run_chunk = [], harness._run_chunk

    def recording(config, seed, indices):
        chunks.append(list(indices))
        return run_chunk(config, seed, indices)

    monkeypatch.setattr(harness, "_run_chunk", recording)
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    truth = lookup_calibration(1.5)
    row1, _ = run_simulation(config_for(1, 0.25, 300, beta_c=truth.beta_c), truth, 17, 5)
    assert chunks == [list(range(8)), list(range(8, 16)), [16]]
    assert row1.n_reps == 17


def test_simulation_thread_count_invariance(monkeypatch):
    truth = lookup_calibration(1.5)
    cfg = config_for(3, 0.25, 1_500, beta_c=truth.beta_c)
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    serial = run_simulation(cfg, truth, 6, 88)
    monkeypatch.setenv("RECURWEIGHT_THREADS", "3")
    pooled = run_simulation(cfg, truth, 6, 88)
    assert serial == pooled


def _recording_pool(calls):
    """A stand-in for `Pool` that runs starmap here and records its shape."""

    class RecordingPool:
        def __init__(self, processes, initializer=None):
            calls.append({"workers": processes, "initializer": initializer})

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args, chunksize):
            # each task is one chunk of replicates, its indices last
            calls[-1]["starmap_chunksize"] = chunksize
            calls[-1]["chunks"] = [list(a[-1]) for a in args]
            return [func(*a) for a in args]

    return RecordingPool


@pytest.mark.parametrize("threads, n_reps, chunksize", [
    ("3", 6, 2),    # chunks of 8 would leave two of three workers idle
    ("2", 17, 8),
    ("1", 3, None),  # serial: no pool, the caller's allocator untouched
])
def test_pool_shape(monkeypatch, threads, n_reps, chunksize):
    calls = []
    monkeypatch.setattr(harness, "Pool", _recording_pool(calls))
    monkeypatch.setenv("RECURWEIGHT_THREADS", threads)
    truth = lookup_calibration(1.5)
    run_simulation(config_for(1, 0.25, 500, beta_c=truth.beta_c), truth, n_reps, 5)
    if chunksize is None:
        assert calls == []
    else:
        indices = list(range(n_reps))
        assert calls == [{"workers": int(threads),
                          "initializer": harness._keep_heap,
                          "starmap_chunksize": 1,
                          "chunks": [indices[i:i + chunksize]
                                     for i in range(0, n_reps, chunksize)]}]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_pool_workers_keep_their_heap(monkeypatch):
    # under glibc's default trim threshold the two workers fault their
    # heap back in after every replicate: about 34k minor faults for
    # this study, against about 3k when they keep it
    resource = pytest.importorskip("resource")
    if multiprocessing.get_start_method() != "fork":
        # workers of a fork server or a spawn are not children of this
        # process, so RUSAGE_CHILDREN would not count their faults
        pytest.skip("needs fork-started pool workers")
    monkeypatch.setenv("RECURWEIGHT_THREADS", "2")
    cfg = config_for(3, 0.5, 10_000, beta_c=TRUTH_LN2.beta_c)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    run_simulation(cfg, TRUTH_LN2, 40, 626)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    assert 0 < faults < 10_000


def _no_library(name):
    raise OSError("no C library")


def _windows_cdll(name):
    # CDLL(None) on Windows fails on `'/' in name`
    raise TypeError("argument of type 'NoneType' is not iterable")


@pytest.mark.parametrize("cdll", [_no_library, _windows_cdll,
                                  lambda name: object()],
                         ids=["no-library", "windows", "no-mallopt"])
def test_keep_heap_without_mallopt_does_nothing(monkeypatch, cdll):
    # a raising pool initializer would kill and restart every worker
    # forever, so a missing mallopt must pass quietly
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    harness._keep_heap()


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

"""Release gate: end-to-end checks at full scale.

Each test pins one acceptance criterion. Unlike the unit suites these
run the whole pipeline at the scales the package is meant for (200
replicates of n = 10,000 per study; the five-target calibration
solve), so the file takes seconds rather than milliseconds, dominated
by the studies.

Everything here is deterministic: one frozen master seed drives the
Monte Carlo runs, and the calibration oracle is exact.
"""

import csv
import dataclasses
import io
from contextlib import redirect_stdout

import numpy as np
import numpy.testing as npt
import pytest

from recurweight.calibrate import CALIBRATION_TABLE, lookup_calibration
from recurweight.cli import main
from recurweight.coxfit import (
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
)
from recurweight.harness import run_simulation
from recurweight.iptw import build_treatment_weights
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream, fit_logistic

from cox_reference import partial_loglik

SEED = 20250801
REPS = 200
N = 10_000


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_calibration_reproduces_reference_table(tmp_path):
    # full-scale solve through the command line, checked against the
    # constants shipped in CALIBRATION_TABLE
    out = tmp_path / "table.csv"
    code, _ = run_cli(
        ["calibrate", "--targets", "1,1.5,2,2.5,3",
         "--oracle-n", "1000000", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == len(CALIBRATION_TABLE) == 5
    for row, ref in zip(rows, CALIBRATION_TABLE):
        got_c = float(row["beta_c"])
        got_m2 = float(row["beta_m2"])
        assert abs(got_c - ref.beta_c) <= 0.01, (
            f"beta_c for target hr {row['hr1']}: {got_c} vs {ref.beta_c}"
        )
        assert abs(got_m2 - ref.beta_m2) <= 0.01, (
            f"beta_m2 for target hr {row['hr1']}: {got_m2} vs {ref.beta_m2}"
        )


def test_shared_frailty_bias_negligible():
    # scenario 2, 50% prevalence, conditional hr 2: the stabilized
    # weights must leave essentially no bias in the second gap time
    truth = lookup_calibration(2.0)
    cfg = config_for(2, prevalence=0.5, n_subjects=N, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, REPS, SEED)
    assert abs(row2.bias_pct) <= 1.5, f"event-2 bias {row2.bias_pct:+.3f}%"


def test_se_ratios_in_confounded_regime():
    # scenario 3, 50% prevalence, true event-2 hr 1.4263: the naive SE
    # must badly understate the spread while the robust SE tracks it
    truth = lookup_calibration(2.0)
    cfg = config_for(3, prevalence=0.5, n_subjects=N, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, REPS, SEED)
    npt.assert_allclose(row2.true_hr, 1.4263, atol=5e-5)
    assert row2.ase / row2.ese < 0.55, (
        f"ase/ese = {row2.ase / row2.ese:.3f} (ase {row2.ase:.4f}, ese {row2.ese:.4f})"
    )
    assert 0.8 <= row2.rse / row2.ese <= 1.2, (
        f"rse/ese = {row2.rse / row2.ese:.3f} (rse {row2.rse:.4f}, ese {row2.ese:.4f})"
    )


def test_censoring_bias_grows_as_tau_shrinks():
    # scenario 3, 25% prevalence, true event-2 log hr 0.2085: heavy
    # administrative censoring inflates the event-2 estimate, and the
    # inflation is worse at the shorter cutoff
    truth = lookup_calibration(1.5)
    bias = {}
    for tau in (0.25, 1.0):
        cfg = config_for(
            3, prevalence=0.25, n_subjects=N, beta_c=truth.beta_c, tau=tau
        )
        _, row2 = run_simulation(cfg, truth, REPS, SEED)
        assert row2.n_failed == 0
        bias[tau] = row2.bias_pct
    assert 30.0 <= bias[0.25] <= 55.0, f"bias at tau=0.25: {bias[0.25]:+.2f}%"
    assert bias[1.0] < bias[0.25], (
        f"bias at tau=1 ({bias[1.0]:+.2f}%) not below tau=0.25 ({bias[0.25]:+.2f}%)"
    )


def test_censoring_fractions():
    # the two cutoffs were chosen to censor roughly a third of first
    # events (tau=1) and most second events (tau=0.25)
    truth = lookup_calibration(1.5)
    cfg = config_for(3, prevalence=0.25, n_subjects=100_000,
                     beta_c=truth.beta_c, tau=1.0)
    ds = gen_dataset(cfg, RngStream(SEED, 0))
    frac1 = 1.0 - ds["delta1"].mean()
    assert 0.25 <= frac1 <= 0.35, f"frac(delta1=0) = {frac1:.4f} at tau=1"

    cfg = dataclasses.replace(cfg, tau=0.25)
    ds = gen_dataset(cfg, RngStream(SEED, 0))
    frac2 = 1.0 - ds["delta2"].mean()
    assert 0.85 <= frac2 <= 0.95, f"frac(delta2=0) = {frac2:.4f} at tau=0.25"


class TestEstimatorOracles:
    def test_cox_matches_grid_search(self):
        # two-stage grid (coarse 1e-2, fine 1e-4) over the concave
        # partial likelihood on 50 small samples
        rng = RngStream(77)
        coarse = np.arange(-5.0, 5.0 + 1e-9, 1e-2)
        done = 0
        while done < 50:
            n = int(3 + rng.random() * 6)
            t = rng.random(n)
            z = (rng.random(n) < 0.5).astype(float)
            if z.min() == z.max():
                continue
            s = SurvivalSample(
                time=t,
                event=np.ones(n),
                treatment=z,
                weight=0.5 + 1.5 * rng.random(n),
            )
            try:
                fit = fit_weighted_cox(s)
            except MonotoneLikelihoodError:
                continue
            ll = partial_loglik(coarse, s)
            anchor = coarse[np.argmax(ll)]
            fine = anchor + np.arange(-200, 201) * 1e-4
            ll = partial_loglik(fine, s)
            best = fine[np.argmax(ll)]
            assert abs(fit.log_hr - best) <= 2e-4, (
                f"sample {done}: newton {fit.log_hr:.6f} vs grid {best:.6f}"
            )
            done += 1

    def test_cox_three_subject_closed_form(self):
        # score equation reduces to 2 e^{2 beta} = 1
        s = SurvivalSample(
            time=np.array([1.0, 2.0, 3.0]),
            event=np.ones(3),
            treatment=np.array([1.0, 0.0, 1.0]),
            weight=np.ones(3),
        )
        npt.assert_allclose(
            fit_weighted_cox(s).log_hr, -0.5 * np.log(2.0), atol=1e-4
        )

    def test_logistic_intercept_closed_form(self):
        rng = RngStream(88)
        y = (rng.random(400) < 0.3).astype(float)
        fit = fit_logistic(np.ones((400, 1)), y)
        ybar = y.mean()
        npt.assert_allclose(
            fit.coefficients[0], np.log(ybar / (1.0 - ybar)), atol=1e-6
        )


class TestStructuralInvariants:
    def test_stabilized_weight_means_near_one(self):
        cfg = config_for(3, prevalence=0.25, n_subjects=100_000, beta_c=0.4599)
        ds = gen_dataset(cfg, RngStream(SEED, 1))
        w = build_treatment_weights(ds, cfg.scenario)
        assert 0.97 <= w.sw1.mean() <= 1.03, f"sw1 mean {w.sw1.mean():.4f}"
        assert 0.97 <= w.sw2.mean() <= 1.03, f"sw2 mean {w.sw2.mean():.4f}"

    def test_covariate_drift_correlation(self):
        cfg = config_for(3, prevalence=0.25, n_subjects=100_000, beta_c=0.4599)
        ds = gen_dataset(cfg, RngStream(SEED, 1))
        corr = np.corrcoef(ds["x1"], ds["x2"])[0, 1]
        assert 0.23 <= corr <= 0.255, f"corr(x1, x2) = {corr:.4f}"

    def test_second_event_never_outlives_first(self):
        cfg = config_for(3, prevalence=0.25, n_subjects=50_000,
                         beta_c=0.4599, tau=0.5)
        ds = gen_dataset(cfg, RngStream(SEED, 2))
        assert np.all(ds["delta2"] <= ds["delta1"])

    def test_thread_count_does_not_change_results(self, monkeypatch):
        truth = lookup_calibration(1.5)
        cfg = config_for(3, prevalence=0.25, n_subjects=2_000,
                         beta_c=truth.beta_c)
        runs = []
        for workers in ("1", "3", "1"):
            monkeypatch.setenv("RECURWEIGHT_THREADS", workers)
            rows = run_simulation(cfg, truth, n_reps=6, master_seed=SEED)
            runs.append(tuple(dataclasses.astuple(r) for r in rows))
        assert runs[0] == runs[1] == runs[2]

"""Calibration tests at reduced oracle sizes.

Full-size (10^6) reproduction of the published mapping lives in the
acceptance suite; here the oracle runs at 1-2 x 10^5, which keeps the
Monte Carlo error near 0.005 and the runtime in seconds.
"""

import numpy as np
import pytest

from recurweight import calibrate, coxfit
from recurweight.calibrate import (
    CALIBRATION_TABLE,
    CalibrationEntry,
    _bisect,
    calibrate_beta_c,
    lookup_calibration,
    marginal_hr_oracle,
)
from recurweight.coxfit import SurvivalSample, fit_weighted_cox
from recurweight.simgen import Scenario, ScenarioConfig, gen_potential_outcomes
from recurweight.statcore import RngStream

LN2 = float(np.log(2.0))


def test_bisect_linear_root():
    root, res = _bisect(lambda x: x - 0.3, 0.0, 1.0, 1e-6)
    assert abs(root - 0.3) < 1e-5
    assert abs(res) <= 1e-6


def test_bisect_bracket_failure():
    with pytest.raises(ValueError):
        _bisect(lambda x: x - 5.0, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        _bisect(lambda x: x + 5.0, 0.0, 1.0, 1e-6)


def test_bisect_unreachable_tolerance():
    step = lambda x: 1.0 if x > 0 else -1.0
    with pytest.raises(RuntimeError):
        _bisect(step, -1.0, 1.0, 0.5)


def test_entry_validation():
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 10**6, 0.5, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.0, 0.1, 0.0, 10**6, 0.0, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 10**6, 0.4, -1.0)


def test_published_table_shape_and_order():
    assert len(CALIBRATION_TABLE) == 5
    betas_c = [e.beta_c for e in CALIBRATION_TABLE]
    assert betas_c == sorted(betas_c)
    for entry in CALIBRATION_TABLE:
        assert 0.0 <= entry.beta_m1 <= entry.beta_c
        assert 0.0 <= entry.beta_m2 <= entry.beta_m1


def test_lookup():
    assert lookup_calibration(1.5).beta_c == pytest.approx(0.4599)
    assert lookup_calibration(3.0).beta_m2 == pytest.approx(0.5616)
    assert lookup_calibration(1.7) is None


def test_oracle_validation():
    with pytest.raises(ValueError):
        marginal_hr_oracle(0.5, 1, oracle_n=10_000)
    with pytest.raises(ValueError):
        marginal_hr_oracle(0.5, 3)
    with pytest.raises(ValueError):
        calibrate_beta_c(-0.1)


def test_oracle_null():
    assert abs(marginal_hr_oracle(0.0, 1, oracle_n=100_000)) < 0.01


def test_oracle_event1_published_points():
    got = marginal_hr_oracle(0.4599, 1, oracle_n=200_000)
    assert got == pytest.approx(0.4055, abs=0.01)
    got = marginal_hr_oracle(0.7830, 1, oracle_n=200_000)
    assert got == pytest.approx(0.6931, abs=0.01)


def test_oracle_event2_published_point():
    got = marginal_hr_oracle(1.2331, 2, oracle_n=200_000)
    assert got == pytest.approx(0.5616, abs=0.015)


def test_oracle_drift_scenarios_agree_exactly():
    # potential outcomes ignore the assignment model, so scenarios 2
    # and 3 share the identical generator path
    a = marginal_hr_oracle(0.78, 2, scenario=2, oracle_n=100_000)
    b = marginal_hr_oracle(0.78, 2, scenario=3, oracle_n=100_000)
    assert a == b


def test_oracle_no_drift_no_extra_attenuation():
    # scenario 1 reuses x1 for the second event, so both events share
    # one marginal effect up to Monte Carlo noise
    m1 = marginal_hr_oracle(0.7830, 1, scenario=1, oracle_n=100_000)
    m2 = marginal_hr_oracle(0.7830, 2, scenario=1, oracle_n=100_000)
    assert abs(m1 - m2) < 0.015


def test_null_target_short_circuit():
    entry = calibrate_beta_c(0.0, oracle_n=100_000)
    assert entry.beta_c == 0.0
    assert entry.beta_m2 == 0.0
    assert entry.achieved_beta_m1 == 0.0


def test_calibration_hits_target():
    entry = calibrate_beta_c(LN2, tolerance=0.008, oracle_n=100_000)
    assert abs(entry.achieved_beta_m1 - LN2) <= 0.008
    assert entry.beta_c == pytest.approx(0.7830, abs=0.03)
    assert entry.beta_m2 == pytest.approx(0.3551, abs=0.03)
    assert 0.0 <= entry.beta_m2 <= entry.beta_m1 <= entry.beta_c


def test_calibration_deterministic():
    a = calibrate_beta_c(0.4055, tolerance=0.008, oracle_n=100_000)
    b = calibrate_beta_c(0.4055, tolerance=0.008, oracle_n=100_000)
    assert a == b


def test_calibration_monotone_in_target():
    low = calibrate_beta_c(0.4055, tolerance=0.008, oracle_n=100_000)
    high = calibrate_beta_c(0.9163, tolerance=0.008, oracle_n=100_000)
    assert low.beta_c < high.beta_c


@pytest.mark.parametrize("event", [1, 2])
def test_census_oracle_matches_fresh_potential_outcomes(event):
    # the oracle rescales sorted control times instead of drawing the
    # treated arm at each beta_c; a direct fit on both drawn arms must
    # agree up to rounding
    beta_c, n = 0.9, 100_000
    cfg = ScenarioConfig(Scenario.TVTreatmentCovariates, n_subjects=n, beta_c=beta_c)
    po = gen_potential_outcomes(cfg, RngStream(calibrate.DEFAULT_ORACLE_SEED))
    sample = SurvivalSample(
        time=np.concatenate([po[f"w{event}_treated"], po[f"w{event}_control"]]),
        event=np.ones(2 * n),
        treatment=np.concatenate([np.ones(n), np.zeros(n)]),
        weight=np.ones(2 * n),
    )
    direct = fit_weighted_cox(sample).log_hr
    assert abs(marginal_hr_oracle(beta_c, event, oracle_n=n) - direct) <= 1e-6


def test_calibration_solve_is_a_few_evaluations(monkeypatch):
    # one census per solve and a secant on a smooth oracle: f(lo),
    # f(hi), about one interior point, then the event-2 value
    calls = []

    def counting_fit(sample, robust=True):
        calls.append(robust)
        return fit_weighted_cox(sample, robust=robust)

    draws = []

    def counting_census(config, stream):
        draws.append(config.n_subjects)
        return gen_potential_outcomes(config, stream)

    monkeypatch.setattr(calibrate, "fit_weighted_cox", counting_fit)
    monkeypatch.setattr(calibrate, "gen_potential_outcomes", counting_census)
    entry = calibrate_beta_c(LN2, tolerance=0.008, oracle_n=100_000)
    assert abs(entry.achieved_beta_m1 - LN2) <= 0.008
    assert len(calls) <= 5
    assert not any(calls)  # the oracle never pays for a sandwich
    assert draws == [100_000]


def test_oracle_fit_does_not_crawl_at_the_noise_floor(monkeypatch):
    # at this seed the f(hi) fit of a full-size solve once took 16
    # Newton iterations and 89 likelihood evaluations, because rounding
    # noise in the likelihood made step-halving reject good steps; a
    # fit whose every step is accepted evaluates once per iterate
    po = calibrate._census(calibrate.ORACLE_SCENARIO, 1_000_000, 202)
    control = np.sort(po["w1_control"])
    del po
    fits, evaluations = [], []
    real_loglik = coxfit._loglik_at

    def counting_loglik(beta, *args):
        evaluations.append(beta)
        return real_loglik(beta, *args)

    def recording_fit(sample, robust=True):
        fits.append(fit_weighted_cox(sample, robust=robust))
        return fits[-1]

    monkeypatch.setattr(coxfit, "_loglik_at", counting_loglik)
    monkeypatch.setattr(calibrate, "fit_weighted_cox", recording_fit)
    calibrate._census_log_hr(control, 2.0 * LN2 + 0.5)
    (fit,) = fits
    assert fit.n_iter <= 6
    assert len(evaluations) == fit.n_iter + 1


def test_secant_beats_bisection_on_a_smooth_root():
    evaluations = []

    def f(x):
        evaluations.append(x)
        return np.expm1(x) - 1.0  # root at log 2, convex

    root, res = _bisect(f, 0.0, 3.0, 1e-10)
    assert abs(res) <= 1e-10
    assert root == pytest.approx(np.log(2.0), abs=1e-9)
    # plain bisection needs about 35 halvings of [0, 3] for this tolerance
    assert len(evaluations) <= 15


def test_secant_returns_upper_end_inside_tolerance():
    assert _bisect(lambda x: x - 1.0, 0.0, 1.0, 1e-9) == (1.0, 0.0)

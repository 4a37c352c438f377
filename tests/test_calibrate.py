"""Calibration tests.

The oracle is exact, so every check runs at full precision in
milliseconds; the census cross-check draws a finite potential-outcome
population and fits it, which is what the exact value is the limit of.
"""

import numpy as np
import pytest

from recurweight import calibrate, coxfit, simgen
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
    with pytest.raises(RuntimeError, match="root search exhausted"):
        _bisect(step, -1.0, 1.0, 0.5)


def test_entry_validation():
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 0.5, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.0, 0.1, 0.0, 0.0, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 0.4, -1.0)


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
        marginal_hr_oracle(0.5, 3)
    with pytest.raises(ValueError):
        marginal_hr_oracle(0.5, 1, scenario=4)
    with pytest.raises(ValueError):
        calibrate_beta_c(-0.1)


@pytest.mark.parametrize("beta_c, message", [
    (float("nan"), "no log-time grid point carries mass"),
    (float("inf"), "score is not finite"),
    (1e3, "score is not finite"),
])
def test_oracle_raises_instead_of_returning_nan(beta_c, message):
    with pytest.raises(ValueError, match=message):
        marginal_hr_oracle(beta_c, 1)


def test_oracle_null():
    assert abs(marginal_hr_oracle(0.0, 1)) <= 1e-10
    assert abs(marginal_hr_oracle(0.0, 2)) <= 1e-10


def test_oracle_event1_published_points():
    got = marginal_hr_oracle(0.4599, 1)
    assert got == pytest.approx(0.4055, abs=5e-4)
    got = marginal_hr_oracle(0.7830, 1)
    assert got == pytest.approx(0.6931, abs=5e-4)


def test_oracle_event2_published_point():
    got = marginal_hr_oracle(1.2331, 2)
    assert got == pytest.approx(0.5616, abs=5e-4)


def test_oracle_drift_scenarios_agree_exactly():
    # potential outcomes ignore the assignment model, so scenarios 2
    # and 3 share one second-gap covariate law
    a = marginal_hr_oracle(0.78, 2, scenario=2)
    b = marginal_hr_oracle(0.78, 2, scenario=3)
    assert a == b


def test_oracle_no_drift_no_extra_attenuation():
    # scenario 1 reuses x1 for the second event, so both events share
    # one marginal effect
    m1 = marginal_hr_oracle(0.7830, 1, scenario=1)
    m2 = marginal_hr_oracle(0.7830, 2, scenario=1)
    assert m1 == m2


def test_null_target_short_circuit():
    entry = calibrate_beta_c(0.0)
    assert entry.beta_c == 0.0
    assert entry.beta_m2 == 0.0
    assert entry.achieved_beta_m1 == 0.0


def test_calibration_hits_target():
    entry = calibrate_beta_c(LN2)
    assert entry.tolerance == calibrate.SOLVE_TOLERANCE
    assert abs(entry.achieved_beta_m1 - LN2) <= calibrate.SOLVE_TOLERANCE
    assert entry.beta_c == pytest.approx(0.7830, abs=5e-4)
    assert entry.beta_m2 == pytest.approx(0.3551, abs=5e-4)
    assert 0.0 <= entry.beta_m2 <= entry.beta_m1 <= entry.beta_c


def test_exact_solve_reproduces_published_table():
    # the shipped constants are a rounded census solve; the exact
    # solve lands within 5e-4 of every one (4.3e-4 at most, measured)
    for hr, ref in zip((1.0, 1.5, 2.0, 2.5, 3.0), CALIBRATION_TABLE):
        entry = calibrate_beta_c(float(np.log(hr)))
        assert entry.beta_m1 == pytest.approx(ref.beta_m1, abs=5e-4)
        assert entry.beta_c == pytest.approx(ref.beta_c, abs=5e-4), hr
        assert entry.beta_m2 == pytest.approx(ref.beta_m2, abs=5e-4), hr


def test_calibration_deterministic():
    a = calibrate_beta_c(0.4055)
    b = calibrate_beta_c(0.4055)
    assert a == b


def test_calibration_monotone_in_target():
    low = calibrate_beta_c(0.4055)
    high = calibrate_beta_c(0.9163)
    assert low.beta_c < high.beta_c


# seed spread (sample SD) of the census log HR at beta_c 0.9 and
# 200,000 subjects, over census seeds 1-10: 2.16e-3 for event 1 and
# 4.56e-4 for event 2; the largest of those 10 deviations from the
# exact value was 1.6 and 2.1 SDs
CENSUS_N = 200_000
CENSUS_SEED_SPREAD = {1: 2.16e-3, 2: 4.56e-4}


@pytest.mark.parametrize("event", [1, 2])
def test_census_oracle_matches_fresh_potential_outcomes(event):
    # the exact value is the limit of an unweighted Cox fit on both
    # forced arms of a growing census; a finite one must land within
    # 4 seed SDs of it
    beta_c, n = 0.9, CENSUS_N
    cfg = ScenarioConfig(Scenario.TVTreatmentCovariates, n_subjects=n, beta_c=beta_c)
    po = gen_potential_outcomes(cfg, RngStream(12345))
    sample = SurvivalSample(
        time=np.concatenate([po[f"w{event}_treated"], po[f"w{event}_control"]]),
        event=np.ones(2 * n),
        treatment=np.concatenate([np.ones(n), np.zeros(n)]),
        weight=np.ones(2 * n),
    )
    census = fit_weighted_cox(sample, robust=False).log_hr
    exact = marginal_hr_oracle(beta_c, event)
    assert abs(census - exact) <= 4 * CENSUS_SEED_SPREAD[event]


def test_calibration_solve_is_a_few_evaluations(monkeypatch):
    # the solve evaluates through the module attribute, so a wrapper
    # installed there sees every call: f(lo), f(hi), a few secant
    # points, then the event-2 value; it draws no census and fits no
    # Cox model
    oracle_events, fits, draws = [], [], []
    real_oracle = calibrate.marginal_hr_oracle

    def counting_oracle(beta_c, event, *args, **kwargs):
        oracle_events.append(event)
        return real_oracle(beta_c, event, *args, **kwargs)

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit_weighted_cox(*args, **kwargs)

    def counting_census(*args, **kwargs):
        draws.append(args)
        return gen_potential_outcomes(*args, **kwargs)

    monkeypatch.setattr(calibrate, "marginal_hr_oracle", counting_oracle)
    for module in (calibrate, coxfit):
        monkeypatch.setattr(module, "fit_weighted_cox", counting_fit)
    for module in (calibrate, simgen):
        monkeypatch.setattr(module, "gen_potential_outcomes", counting_census)
    entry = calibrate_beta_c(LN2)
    assert abs(entry.achieved_beta_m1 - LN2) <= calibrate.SOLVE_TOLERANCE
    assert fits == [] and draws == []
    # 7 at this target: 6 on event 1, then the event-2 value
    assert 3 <= len(oracle_events) <= 8
    assert oracle_events == [1] * (len(oracle_events) - 1) + [2]


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

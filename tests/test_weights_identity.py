"""The treatment weights and the IRLS fit equal their reference forms bit for bit.

The references below are the straightforward forms of the weight build,
of the IRLS loop and of a replicate: the second propensity model fit on
masked rows and re-predicted on the whole sample, the joint table as
four boolean means, the weight factors summed as z a + (1 - z) b, the
weighted design formed by broadcasting, and a censored second-event fit
on the subset of rows whose first event was observed. The library
computes the same numbers with fewer passes, and excludes those rows by
giving them zero weight; every comparison here is exact equality.
"""

import numpy as np
import pytest

from recurweight.coxfit import SurvivalSample, fit_weighted_cox
from recurweight.harness import _REPLICATE_FAILURES, run_replicate
from recurweight.iptw import TreatmentWeights, build_treatment_weights
from recurweight.simgen import Scenario, config_for, gen_dataset
from recurweight.statcore import (
    LogisticFit,
    RngStream,
    SeparationError,
    WeightModelError,
    expit,
    fit_logistic,
)

BETA_C = 0.7832


def reference_fit_logistic(design, response):
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if n < p:
        raise WeightModelError(f"fewer rows than coefficients (n={n}, p={p})")
    ybar = np.mean(y)
    if ybar <= 0.0 or ybar >= 1.0:
        raise SeparationError("constant response: logistic MLE is divergent")
    beta = np.zeros(p)
    converged = False
    for it in range(1, 26):
        prob = expit(X @ beta)
        wls = prob * (1.0 - prob)
        info = X.T @ (X * wls[:, None])
        score = X.T @ (y - prob)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise WeightModelError("singular information matrix") from None
        beta += step
        if np.max(np.abs(beta)) > 30.0:
            raise SeparationError("coefficient magnitude exceeded 30.0: separated data")
        if np.max(np.abs(step)) < 1e-8:
            converged = True
            break
    if not converged:
        raise WeightModelError("IRLS did not converge in 25 iterations")
    prob = expit(X @ beta)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise SeparationError("a fitted probability saturated at 0 or 1")
    return LogisticFit(beta, it, prob)


def reference_weight_e2(z1, z2, e1, e2, p_joint):
    z1 = np.asarray(z1, dtype=int)
    z2 = np.asarray(z2, dtype=int)
    denominator = (z1 * e1 + (1 - z1) * (1.0 - e1)) * (
        z2 * e2 + (1 - z2) * (1.0 - e2)
    )
    return p_joint[z1, z2] / denominator


def reference_build_treatment_weights(dataset, scenario):
    n = len(dataset)
    x1 = np.asarray(dataset["x1"], dtype=float)
    z1 = np.asarray(dataset["z1"], dtype=float)
    e1 = reference_fit_logistic(
        np.column_stack([np.ones(n), x1]), z1
    ).fitted_probabilities
    p1 = float(z1.mean())
    sw1 = p1 * z1 / e1 + (1.0 - p1) * (1.0 - z1) / (1.0 - e1)
    observed = np.asarray(dataset["delta1"], dtype=bool)
    if Scenario(scenario) is not Scenario.TVTreatmentCovariates:
        return TreatmentWeights(sw1, np.where(observed, sw1, 0.0))

    x2 = np.asarray(dataset["x2"], dtype=float)
    z2 = np.asarray(dataset["z2"], dtype=float)
    fit2 = reference_fit_logistic(
        np.column_stack([np.ones(observed.sum()), x2[observed], z1[observed]]),
        z2[observed],
    )
    e2 = expit(np.column_stack([np.ones(n), x2, z1]) @ fit2.coefficients)
    z1o = dataset["z1"][observed].astype(int)
    z2o = dataset["z2"][observed].astype(int)
    p_joint = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            p_joint[i, j] = np.mean((z1o == i) & (z2o == j))
    sw2 = np.zeros(n)
    sw2[observed] = reference_weight_e2(z1o, z2o, e1[observed], e2[observed], p_joint)
    return TreatmentWeights(sw1, sw2)


def reference_replicate(cfg, seed, index):
    """Estimates and failure message of a replicate whose censored
    second-event fit runs on the subset of rows with delta1 = 1."""
    def fit(time, event, treatment, weight):
        f = fit_weighted_cox(SurvivalSample(time, event, treatment, weight))
        return f.log_hr, f.naive_se, f.robust_se

    try:
        ds = gen_dataset(cfg, RngStream(seed, index))
        tw = reference_build_treatment_weights(ds, cfg.scenario)
        n = len(ds)
        if cfg.tau is None:
            fits = (fit(ds["w1"], np.ones(n), ds["z1"], tw.sw1),
                    fit(ds["w2"], np.ones(n), ds["z2"], tw.sw2))
        else:
            at_risk = ds["delta1"] == 1
            sub = ds[at_risk]
            fits = (
                fit(np.minimum(ds["w1"], cfg.tau), ds["delta1"], ds["z1"], tw.sw1),
                fit(np.minimum(sub["w1"] + sub["w2"], cfg.tau), sub["delta2"],
                    sub["z2"], tw.sw2[at_risk]),
            )
    except _REPLICATE_FAILURES as exc:
        return None, f"{type(exc).__name__}: {exc}"
    return fits, None


def replicate_outcome(result):
    if result.failed:
        return None, result.failure
    row = result.row
    return tuple(zip(*(row[name].tolist()
                       for name in ("log_hr", "naive_se", "robust_se")))), None


def assert_fits_equal(got, want):
    assert np.array_equal(got.coefficients, want.coefficients)
    assert np.array_equal(got.fitted_probabilities, want.fitted_probabilities)
    assert got.n_iter == want.n_iter


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("prevalence", [0.25, 0.5])
@pytest.mark.parametrize("tau", [None, 1.0, 0.25])
def test_weights_equal_the_reference(scenario, prevalence, tau):
    cfg = config_for(scenario, prevalence, 3_000, beta_c=BETA_C, tau=tau)
    for index in range(2):
        ds = gen_dataset(cfg, RngStream(909, index))
        got = build_treatment_weights(ds, scenario)
        want = reference_build_treatment_weights(ds, scenario)
        assert np.array_equal(got.sw1, want.sw1)
        # a row whose first event was censored is not at risk for the second
        observed = ds["delta1"] == 1
        assert np.array_equal(got.sw2[observed], want.sw2[observed])
        assert np.all(got.sw2[observed] > 0.0)
        assert np.all(got.sw2[~observed] == 0.0)
        assert observed.all() == (tau is None)


@pytest.mark.parametrize("tau", [None, 0.25])
def test_fit_logistic_equals_the_reference_loop(tau):
    cfg = config_for(3, 0.5, 3_000, beta_c=BETA_C, tau=tau)
    ds = gen_dataset(cfg, RngStream(910))
    n = len(ds)
    observed = ds["delta1"] == 1
    z1 = ds["z1"].astype(float)
    second = np.column_stack([np.ones(n), ds["x2"], z1])
    cases = [
        (np.column_stack([np.ones(n), ds["x1"]]), z1),
        (second[observed], ds["z2"][observed]),
        # a column-major design keeps its layout in the weighted buffer
        (np.asfortranarray(second), ds["z2"]),
    ]
    for design, response in cases:
        assert_fits_equal(fit_logistic(design, response),
                          reference_fit_logistic(design, response))


@pytest.mark.parametrize(
    "scenario, tau", [(1, None), (3, None), (2, 0.5), (3, 1.0), (3, 0.25)]
)
def test_replicate_equals_a_reference_weights_replicate(scenario, tau):
    cfg = config_for(scenario, 0.5, 10_000, beta_c=BETA_C, tau=tau)
    for index in range(2):
        got = replicate_outcome(run_replicate(cfg, 2025, index))
        assert got[1] is None
        assert repr(got) == repr(reference_replicate(cfg, 2025, index))


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.05, 0.25])
def test_failed_replicates_equal_the_reference(scenario, tau):
    # at n = 60 some replicates, and at tau = 0.05 most, see too few
    # first or second events for a weight model or a Cox fit
    cfg = config_for(scenario, 0.25, 60, beta_c=BETA_C, tau=tau)
    succeeded = []
    for index in range(12):
        got = replicate_outcome(run_replicate(cfg, 31, index))
        assert repr(got) == repr(reference_replicate(cfg, 31, index))
        succeeded.append(got[1] is None)
    assert not all(succeeded)


def test_sw1_is_exactly_one_quotient_per_arm():
    ds = gen_dataset(config_for(1, 0.25, 3_000), RngStream(911))
    sw1 = build_treatment_weights(ds, 1).sw1
    z1 = ds["z1"].astype(float)
    e1 = fit_logistic(np.column_stack([np.ones(len(ds)), ds["x1"]]), z1).fitted_probabilities
    p1 = float(z1.mean())
    treated = z1 == 1.0
    assert np.array_equal(sw1[treated], p1 / e1[treated])
    assert np.array_equal(sw1[~treated], (1.0 - p1) / (1.0 - e1[~treated]))

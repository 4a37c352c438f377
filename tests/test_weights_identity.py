"""The treatment weights and the IRLS fit equal their reference forms bit for bit.

The references below are the straightforward forms of the weight build
and of the IRLS loop: the second propensity model fit on masked rows
and re-predicted on the whole sample, the joint table as four boolean
means, the weight factors summed as z a + (1 - z) b, and the weighted
design formed by broadcasting. The library computes the same numbers
with fewer passes; every comparison here is exact equality.
"""

import numpy as np
import pytest

from recurweight import harness
from recurweight.harness import run_replicate
from recurweight.iptw import (
    TreatmentWeights,
    WeightModelError,
    build_treatment_weights,
    stabilized_weight_e1,
)
from recurweight.simgen import Scenario, config_for, gen_dataset
from recurweight.statcore import (
    LogisticFit,
    RngStream,
    SeparationError,
    expit,
    fit_logistic,
)

BETA_C = 0.7832


def reference_fit_logistic(design, response):
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if n < p:
        raise ValueError(f"need n >= p, got n={n}, p={p}")
    ybar = np.mean(y)
    if ybar <= 0.0 or ybar >= 1.0:
        raise SeparationError("constant response: logistic MLE is divergent")
    beta = np.zeros(p)
    converged = False
    it = 0
    for it in range(1, 26):
        prob = expit(X @ beta)
        wls = prob * (1.0 - prob)
        info = X.T @ (X * wls[:, None])
        score = X.T @ (y - prob)
        step = np.linalg.solve(info, score)
        beta += step
        if np.max(np.abs(beta)) > 30.0:
            raise SeparationError("separated data")
        if np.max(np.abs(step)) < 1e-8:
            converged = True
            break
    return LogisticFit(beta, converged, it, expit(X @ beta))


def reference_weight_e2(z1, z2, e1, e2, p_joint):
    z1 = np.asarray(z1, dtype=int)
    z2 = np.asarray(z2, dtype=int)
    denominator = (z1 * e1 + (1 - z1) * (1.0 - e1)) * (
        z2 * e2 + (1 - z2) * (1.0 - e2)
    )
    return p_joint[z1, z2] / denominator


def reference_fit(design, response):
    fit = reference_fit_logistic(design, response)
    if not fit.converged:
        raise WeightModelError("did not converge")
    return fit


def reference_build_treatment_weights(dataset, scenario):
    n = len(dataset)
    x1 = np.asarray(dataset["x1"], dtype=float)
    z1 = np.asarray(dataset["z1"], dtype=float)
    e1 = reference_fit(np.column_stack([np.ones(n), x1]), z1).fitted_probabilities
    p1 = float(z1.mean())
    sw1 = p1 * z1 / e1 + (1.0 - p1) * (1.0 - z1) / (1.0 - e1)
    if Scenario(scenario) is not Scenario.TVTreatmentCovariates:
        p_joint = np.array([[1.0 - p1, 0.0], [0.0, p1]])
        return TreatmentWeights(sw1, sw1.copy(), p1, p_joint)

    x2 = np.asarray(dataset["x2"], dtype=float)
    z2 = np.asarray(dataset["z2"], dtype=float)
    observed = np.asarray(dataset["delta1"], dtype=bool)
    fit2 = reference_fit(
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
    valid = (e2 > 0.0) & (e2 < 1.0)
    if not np.all(valid[observed]):
        raise ValueError("e2 must lie strictly in (0, 1)")
    sw2 = np.zeros(n)
    sw2[valid] = reference_weight_e2(
        dataset["z1"][valid], dataset["z2"][valid], e1[valid], e2[valid], p_joint,
    )
    return TreatmentWeights(sw1, sw2, p1, p_joint)


def assert_fits_equal(got, want):
    assert np.array_equal(got.coefficients, want.coefficients)
    assert np.array_equal(got.fitted_probabilities, want.fitted_probabilities)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)


@pytest.mark.parametrize("scenario", [1, 2, 3])
@pytest.mark.parametrize("prevalence", [0.25, 0.5])
@pytest.mark.parametrize("tau", [None, 1.0, 0.25])
def test_weights_equal_the_reference(scenario, prevalence, tau):
    cfg = config_for(scenario, prevalence, 3_000, beta_c=BETA_C, tau=tau)
    for index in range(2):
        ds = gen_dataset(cfg, RngStream(909, index))
        got = build_treatment_weights(ds, scenario)
        want = reference_build_treatment_weights(ds, scenario)
        for name in ("sw1", "sw2", "p_joint"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.p_marginal == want.p_marginal


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


@pytest.mark.parametrize("scenario, tau", [(1, None), (3, None), (3, 1.0), (3, 0.25)])
def test_replicate_equals_a_reference_weights_replicate(scenario, tau, monkeypatch):
    cfg = config_for(scenario, 0.5, 10_000, beta_c=BETA_C, tau=tau)
    got = [run_replicate(cfg, 2025, i) for i in range(2)]
    monkeypatch.setattr(harness, "build_treatment_weights",
                        reference_build_treatment_weights)
    want = [run_replicate(cfg, 2025, i) for i in range(2)]
    assert not any(r.failed for r in got)
    assert repr(got) == repr(want)


def test_sw1_is_exactly_one_quotient_per_arm():
    e1 = np.array([0.1, 0.37, 0.5, 0.93])
    z1 = np.array([1, 0, 1, 0])
    sw1 = stabilized_weight_e1(z1, e1, 0.3)
    assert np.array_equal(sw1[z1 == 1], 0.3 / e1[z1 == 1])
    assert np.array_equal(sw1[z1 == 0], 0.7 / (1.0 - e1[z1 == 0]))

"""Weight-construction tests.

Scalar formulas are checked by direct substitution, the vector builders
by the mean-one property of stabilized weights and by the algebraic
identity between the joint four-term form and the product form.
"""

import numpy as np
import pytest

from recurweight.iptw import (
    TreatmentWeights,
    build_treatment_weights,
    stabilized_weight_e1,
    stabilized_weight_e2,
)
from recurweight.simgen import ScenarioConfig, config_for, gen_dataset
from recurweight.statcore import RngStream, SeparationError


def test_sw1_treated():
    assert stabilized_weight_e1(1, 0.5, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_sw1_control():
    assert stabilized_weight_e1(0, 0.2, 0.25) == pytest.approx(0.9375, abs=1e-15)


def test_sw1_rejects_degenerate_propensity():
    with pytest.raises(ValueError):
        stabilized_weight_e1(1, 0.0, 0.25)
    with pytest.raises(ValueError):
        stabilized_weight_e1(1, 1.0, 0.25)
    with pytest.raises(ValueError):
        stabilized_weight_e1(1, 0.5, 0.0)


def test_sw2_matching_term():
    p = np.array([[0.6, 0.15], [0.15, 0.1]])
    assert stabilized_weight_e2(1, 1, 0.5, 0.4, p) == pytest.approx(0.5, abs=1e-15)


def test_sw2_unit_when_balanced():
    p = np.full((2, 2), 0.25)
    assert stabilized_weight_e2(0, 0, 0.5, 0.5, p) == pytest.approx(1.0, abs=1e-15)


def test_sw2_rejects_degenerate():
    p = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        stabilized_weight_e2(1, 1, 0.5, 1.0, p)
    with pytest.raises(ValueError):
        stabilized_weight_e2(1, 1, 0.5, 0.5, np.array([[1.5, 0], [0, -0.5]]))


def test_sw1_mean_one():
    ds = gen_dataset(config_for(1, 0.25, 100_000), RngStream(31))
    tw = build_treatment_weights(ds, 1)
    assert abs(tw.sw1.mean() - 1.0) < 0.01


def test_sw2_mean_one_scenario3():
    ds = gen_dataset(config_for(3, 0.25, 100_000, beta_c=0.5), RngStream(32))
    tw = build_treatment_weights(ds, 3)
    assert abs(tw.sw2.mean() - 1.0) < 0.01


def test_fixed_treatment_weights_coincide():
    for s in (1, 2):
        ds = gen_dataset(config_for(s, 0.25, 10_000), RngStream(33))
        tw = build_treatment_weights(ds, s)
        assert np.array_equal(tw.sw1, tw.sw2)
        assert tw.p_joint[0, 1] == 0.0 and tw.p_joint[1, 0] == 0.0
        assert tw.p_joint[1, 1] == pytest.approx(tw.p_marginal, abs=1e-15)


def test_marginal_prevalence_band():
    ds = gen_dataset(config_for(1, 0.25, 10_000), RngStream(34))
    tw = build_treatment_weights(ds, 1)
    assert 0.235 < tw.p_marginal < 0.265


def test_second_prevalence_at_gamma0_minus_point1():
    cfg = ScenarioConfig(scenario=3, n_subjects=100_000, gamma0=-0.1000)
    ds = gen_dataset(cfg, RngStream(35))
    tw = build_treatment_weights(ds, 3)
    z2_prev = tw.p_joint[0, 1] + tw.p_joint[1, 1]
    assert 0.49 < z2_prev < 0.51


def test_all_treated_raises_separation():
    ds = gen_dataset(config_for(1, 0.25, 200), RngStream(36))
    ds["z1"] = 1
    with pytest.raises(SeparationError):
        build_treatment_weights(ds, 1)


def test_weights_strictly_positive():
    ds = gen_dataset(config_for(3, 0.25, 10_000, beta_c=0.78), RngStream(37))
    tw = build_treatment_weights(ds, 3)
    assert np.all(tw.sw1 > 0)
    assert np.all(tw.sw2 > 0)


def test_sw1_depends_only_on_z_and_propensity():
    ds = gen_dataset(config_for(1, 0.25, 500), RngStream(38))
    ds[1] = ds[0]  # exact duplicate subject
    tw = build_treatment_weights(ds, 1)
    assert tw.sw1[0] == tw.sw1[1]


def test_four_term_equals_product_form():
    # joint form p_{z1 z2} / (e1-term * e2-term) versus
    # sw1 * [P(Z2=z2|Z1=z1) / e2-term], with a consistent joint table
    rng = np.random.default_rng(39)
    n = 1_000
    z1 = rng.integers(0, 2, n)
    z2 = rng.integers(0, 2, n)
    e1 = rng.uniform(0.05, 0.95, n)
    e2 = rng.uniform(0.05, 0.95, n)
    p_joint = np.array([[0.55, 0.15], [0.1, 0.2]])
    p1 = p_joint[1].sum()

    four_term = stabilized_weight_e2(z1, z2, e1, e2, p_joint)
    sw1 = stabilized_weight_e1(z1, e1, p1)
    cond_num = p_joint[z1, z2] / p_joint.sum(axis=1)[z1]
    e2_term = z2 * e2 + (1 - z2) * (1 - e2)
    product_form = sw1 * cond_num / e2_term
    assert np.allclose(four_term, product_form, rtol=1e-12, atol=0)


def test_built_joint_table_consistent_when_uncensored():
    ds = gen_dataset(config_for(3, 0.25, 5_000, beta_c=0.5), RngStream(39))
    tw = build_treatment_weights(ds, 3)
    assert tw.p_joint[1].sum() == pytest.approx(tw.p_marginal, abs=1e-12)
    assert tw.p_joint.sum() == pytest.approx(1.0, abs=1e-12)


def test_censored_fit_uses_observed_rows():
    # second-event model coefficients must come from delta1 = 1 rows:
    # corrupting x2 on censored rows must not change any weight there
    cfg = config_for(3, 0.25, 20_000, beta_c=0.4599, tau=1.0)
    ds = gen_dataset(cfg, RngStream(40))
    tw = build_treatment_weights(ds, 3)
    corrupted = ds.copy()
    censored = corrupted["delta1"] == 0
    assert censored.any()
    corrupted["x2"][censored] = 99.0
    tw2 = build_treatment_weights(corrupted, 3)
    observed = ~censored
    assert np.array_equal(tw.sw2[observed], tw2.sw2[observed])
    assert np.array_equal(tw.p_joint, tw2.p_joint)


def test_treatment_weights_validation():
    ones = np.ones(3)
    good = np.array([[0.5, 0.1], [0.2, 0.2]])
    with pytest.raises(ValueError):
        TreatmentWeights(ones, -ones, 0.5, good)
    with pytest.raises(ValueError):
        TreatmentWeights(ones, ones, 0.5, np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        TreatmentWeights(np.array([1.0, np.inf, 1.0]), ones, 0.5, good)


def _censored_dataset(n, tau, seed, beta_c=0.4599):
    cfg = config_for(3, 0.25, n, beta_c=beta_c, tau=tau)
    return gen_dataset(cfg, RngStream(seed))


def test_censoring_fraction_tau_one():
    ds = _censored_dataset(100_000, 1.0, 44)
    frac = 1.0 - ds["delta1"].mean()
    assert 0.25 < frac < 0.35


def test_censoring_fraction_tau_quarter():
    ds = _censored_dataset(100_000, 0.25, 45)
    frac = 1.0 - ds["delta2"].mean()
    assert 0.85 < frac < 0.95

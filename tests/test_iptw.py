"""Weight-construction tests.

The weight builder is checked by the mean-one property of stabilized
weights, by the algebraic identity between the joint form of sw2 and
the product form, and by the treatment values it accepts. The
formulas themselves are pinned bit for bit by test_weights_identity.
"""

import numpy as np
import pytest

from recurweight.iptw import build_treatment_weights
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream, SeparationError, WeightModelError, fit_logistic


def _float_z(ds):
    """A copy of the cohort with every field float, as read back from a CSV."""
    return ds.astype([(name, float) for name in ds.dtype.names])


@pytest.mark.parametrize("z1", [0.5, 2.0, -1.0, np.nan])
def test_sw1_rejects_non_binary_treatment(z1):
    ds = _float_z(gen_dataset(config_for(1, 0.25, 200), RngStream(29)))
    ds["z1"][7] = z1
    with pytest.raises(ValueError, match="z1 values must be 0 or 1"):
        build_treatment_weights(ds, 1)


@pytest.mark.parametrize("z1,z2", [(0.5, 1.0), (1.0, 2.0), (0.0, 0.5), (2.0, 0.0),
                                   (0.0, -1.0), (1.0, np.nan)])
def test_sw2_rejects_non_binary_treatment(z1, z2):
    ds = _float_z(gen_dataset(config_for(3, 0.25, 200), RngStream(30)))
    ds["z1"][7], ds["z2"][7] = z1, z2
    name = "z1" if z1 not in (0.0, 1.0) else "z2"
    with pytest.raises(ValueError, match=f"{name} values must be 0 or 1"):
        build_treatment_weights(ds, 3)


@pytest.mark.parametrize("tau", [None, 1.0])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_float_treatment_columns_give_the_same_weights(scenario, tau):
    ds = gen_dataset(config_for(scenario, 0.5, 2_000, beta_c=0.4599, tau=tau),
                     RngStream(34))
    want = build_treatment_weights(ds, scenario)
    got = build_treatment_weights(_float_z(ds), scenario)
    assert np.array_equal(got.sw1, want.sw1)
    assert np.array_equal(got.sw2, want.sw2)


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


# z2's treated share in scenario 3, measured at n = 2x10^6 and seed 1. At
# prevalence 0.5 it is not 50%: GAMMA0_BY_PREVALENCE[0.5] = -0.1 gives 50%
# only with z1 at 25% (0.5006 there), and with z1 at 50% the slope on z1
# lifts z2 to 51.75%
Z2_SHARE = {0.25: 0.2502, 0.5: 0.5175}


def test_treated_shares_at_the_commands_prevalences():
    # the configs `simulate` and `generate` run: z1 is treated at the
    # prevalence, z2 at its measured share, each within 4 binomial SEs
    n = 100_000
    for prevalence, z2_share in Z2_SHARE.items():
        ds = gen_dataset(config_for(3, prevalence, n), RngStream(35))
        for name, share in (("z1", prevalence), ("z2", z2_share)):
            se = np.sqrt(share * (1.0 - share) / n)
            assert abs(ds[name].mean() - share) < 4 * se, (prevalence, name)
    # at prevalence 0.5 the gap from 50% is far outside that band
    assert abs(Z2_SHARE[0.5] - 0.5) > 10 * np.sqrt(0.25 / n)


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
    # the built joint form p_{z1 z2} / (f1 f2) versus the product form
    # sw1 * P(Z2=z2 | Z1=z1) / f2, with f2 = P(Z2=z2 | x2, z1) refit here
    ds = gen_dataset(config_for(3, 0.25, 5_000, beta_c=0.4599), RngStream(39))
    tw = build_treatment_weights(ds, 3)
    n = len(ds)
    z1 = ds["z1"].astype(int)
    z2 = ds["z2"].astype(int)
    design = np.column_stack([np.ones(n), ds["x2"], z1])
    e2 = fit_logistic(design, z2).fitted_probabilities
    counts = np.bincount(2 * z1 + z2, minlength=4).reshape(2, 2)
    conditional = counts[z1, z2] / counts.sum(axis=1)[z1]
    f2 = np.where(z2 == 1, e2, 1.0 - e2)
    product_form = tw.sw1 * conditional / f2
    assert np.allclose(tw.sw2, product_form, rtol=1e-12, atol=0)


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


def test_censored_rows_with_saturated_e2_get_zero_weight():
    cfg = config_for(3, 0.25, 20_000, beta_c=0.4599, tau=1.0)
    ds = gen_dataset(cfg, RngStream(40))
    censored = ds["delta1"] == 0
    ds["x2"][censored] = 99.0
    tw = build_treatment_weights(ds, 3)
    assert np.all(tw.sw2[censored] == 0.0)
    assert np.all(tw.sw2[~censored] > 0.0)


@pytest.mark.parametrize("tau", [None, 1.0])
def test_saturated_e2_on_an_observed_row_raises(tau):
    cfg = config_for(3, 0.25, 5_000, beta_c=0.4599, tau=tau)
    ds = gen_dataset(cfg, RngStream(41))
    row = np.flatnonzero((ds["delta1"] == 1) & (ds["z2"] == 1))[0]
    ds["x2"][row] = 99.0
    with pytest.raises(SeparationError, match="saturated at 0 or 1"):
        build_treatment_weights(ds, 3)


def test_too_few_observed_rows_for_the_second_model_raise():
    cfg = config_for(3, 0.25, 30, beta_c=0.4599, tau=0.05)
    ds = gen_dataset(cfg, RngStream(42))
    ds["delta1"] = 0
    ds["delta1"][:2] = 1
    with pytest.raises(WeightModelError, match="fewer rows than coefficients"):
        build_treatment_weights(ds, 3)


"""Censoring-weight tests.

The inverse-of-censoring weights are built in the censoring demo, the
only analysis that uses them, so these tests import the demo module.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
if str(DEMOS) not in sys.path:
    sys.path.insert(0, str(DEMOS))

from censoring_comparison import (  # noqa: E402
    CensoringWeights,
    build_censoring_weights,
)
from recurweight.simgen import config_for, gen_dataset  # noqa: E402
from recurweight.statcore import RngStream  # noqa: E402


def test_censoring_weights_validation():
    with pytest.raises(ValueError):
        CensoringWeights(np.array([1.0, -0.5]), np.ones(2))
    with pytest.raises(ValueError):
        CensoringWeights(np.ones(2), np.array([np.nan, 1.0]))


def _censored_dataset(n, tau, seed, beta_c=0.4599):
    cfg = config_for(3, 0.25, n, beta_c=beta_c, tau=tau)
    return gen_dataset(cfg, RngStream(seed))


def test_censoring_weights_all_observed_short_circuit():
    ds = _censored_dataset(2_000, 1e9, 41)
    cw = build_censoring_weights(ds, 1e9)
    assert np.all(cw.sw1_dag == 1.0)
    assert np.all(cw.sw2_dag == 1.0)


def test_censoring_weights_reject_mismatched_tau():
    ds = _censored_dataset(2_000, 1.0, 42)
    with pytest.raises(ValueError):
        build_censoring_weights(ds, 0.5)


def test_censoring_weights_reject_all_censored():
    ds = _censored_dataset(500, 1.0, 43)
    ds["delta1"] = 0
    ds["delta2"] = 0
    ds["w1"] = 10.0  # keep indicators consistent with tau=1
    with pytest.raises(ValueError):
        build_censoring_weights(ds, 1.0)


def test_censoring_weights_zero_pattern():
    ds = _censored_dataset(20_000, 1.0, 46)
    cw = build_censoring_weights(ds, 1.0)
    assert np.all(cw.sw1_dag[ds["delta1"] == 0] == 0.0)
    assert np.all(cw.sw1_dag[ds["delta1"] == 1] > 0.0)
    assert np.all(cw.sw2_dag[ds["delta2"] == 0] == 0.0)
    assert np.all(cw.sw2_dag[ds["delta2"] == 1] > 0.0)


def test_censoring_weight_first_factor_mean():
    # E[ delta1 * P(delta1=1) / P(delta1=1 | x1, z1) ] = P(delta1=1)
    ds = _censored_dataset(100_000, 1.0, 47)
    cw = build_censoring_weights(ds, 1.0)
    assert abs(cw.sw1_dag.mean() - ds["delta1"].mean()) < 0.01


def test_censoring_weights_fixed_treatment_design():
    # scenarios with x2 = x1 and z2 = z1 must not produce a singular
    # completion model
    cfg = config_for(1, 0.25, 20_000, beta_c=0.4599, tau=1.0)
    ds = gen_dataset(cfg, RngStream(48))
    assert 0 < ds["delta2"].mean() < 1
    cw = build_censoring_weights(ds, 1.0)
    assert np.all(np.isfinite(cw.sw2_dag))


def test_partial_short_circuit_first_factor():
    # delta1 all one but delta2 censored: first ratio must be exact 1
    ds = _censored_dataset(5_000, 2.5, 49)
    ds = ds[ds["delta1"] == 1]  # subsetting keeps indicators consistent
    assert np.any(ds["delta2"] == 0)
    cw = build_censoring_weights(ds, 2.5)
    observed2 = ds["delta2"] == 1
    assert np.all(cw.sw1_dag == 1.0)
    assert np.all(cw.sw2_dag[~observed2] == 0.0)
    assert np.all(cw.sw2_dag[observed2] > 0.0)

"""Algebraic invariants of the weighted Cox estimator, property-tested.

Each invariant property rebuilds a small sample in a way that leaves
the weighted partial likelihood unchanged (or scales it) and compares
the point estimate and the naive standard error of the two fits; one
checks the sandwich against numerical derivatives of the score. Times
come from a coarse grid so that Breslow ties are common. The last
properties check that the fit's sort, which restores sample order
among tied rows by itself, gives exactly what a stable sort gives.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from recurweight import coxfit
from recurweight.coxfit import (
    CoxConvergenceError,
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
)
from recurweight.harness import run_replicate
from recurweight.simgen import Scenario, config_for

from cox_reference import score

TOL = 1e-9

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@st.composite
def rows(draw, min_size=6, max_size=24):
    n = draw(st.integers(min_size, max_size))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    return {
        "time": np.array(column(st.integers(1, 10)), dtype=float),
        "event": np.array(column(st.integers(0, 1)), dtype=float),
        "treatment": np.array(column(st.integers(0, 1)), dtype=float),
        "weight": np.array(column(st.floats(0.25, 4.0))),
    }


def fit(columns):
    return fit_weighted_cox(SurvivalSample(**columns))


def fit_or_reject(columns):
    # samples without an interior maximum are outside every property;
    # far out the likelihood is so flat that the absolute score
    # tolerance, not the maximum, ends the fit, so far-out estimates
    # are rejected as well
    try:
        result = fit(columns)
    except (MonotoneLikelihoodError, CoxConvergenceError):
        assume(False)
    assume(abs(result.log_hr) < 5.0)
    return result


def assert_same_fit(got, want, se_scale=1.0):
    assert got.log_hr == pytest.approx(want.log_hr, rel=TOL, abs=TOL)
    assert got.naive_se * se_scale == pytest.approx(want.naive_se, rel=TOL, abs=TOL)


@PROPERTY
@given(rows(), st.data())
def test_row_order_does_not_matter(columns, data):
    base = fit_or_reject(columns)
    order = np.array(data.draw(st.permutations(range(len(columns["time"])))))
    assert_same_fit(fit({k: v[order] for k, v in columns.items()}), base)


@PROPERTY
@given(rows(), st.floats(0.01, 100.0))
def test_global_weight_scale_moves_only_the_naive_se(columns, scale):
    # the information scales by c, so the naive SE scales by 1/sqrt(c)
    base = fit_or_reject(columns)
    scaled = fit({**columns, "weight": scale * columns["weight"]})
    assert_same_fit(scaled, base, se_scale=np.sqrt(scale))


@PROPERTY
@given(rows(), st.data())
def test_duplicated_row_equals_doubled_weight(columns, data):
    i = data.draw(st.integers(0, len(columns["time"]) - 1))
    doubled = {**columns, "weight": columns["weight"].copy()}
    doubled["weight"][i] *= 2.0
    base = fit_or_reject(doubled)
    duplicated = {k: np.append(v, v[i]) for k, v in columns.items()}
    assert_same_fit(fit(duplicated), base)


@PROPERTY
@given(rows(), st.data())
def test_zero_weight_row_equals_dropping_it(columns, data):
    # zero-weight rows are removed before sorting, so the fits agree
    # to the last bit, the sandwich included
    n = len(columns["time"])
    base = fit_or_reject(columns)
    at = data.draw(st.integers(0, n))
    extra = {
        "time": float(data.draw(st.integers(1, 10))),
        "event": float(data.draw(st.integers(0, 1))),
        "treatment": float(data.draw(st.integers(0, 1))),
        "weight": 0.0,
    }
    padded = fit({k: np.insert(v, at, extra[k]) for k, v in columns.items()})
    assert padded == base


@PROPERTY
@given(rows())
def test_sandwich_residuals_are_weight_derivatives_of_the_score(columns):
    # s_i = w_i dU/dw_i at the fitted beta, so the meat sum_i s_i^2 and
    # the information can both be rebuilt by central differences
    n = len(columns["time"])
    result = fit_or_reject(columns)
    beta = result.log_hr
    sample = SurvivalSample(**columns)
    w = columns["weight"]
    eps = 1e-6
    resid = np.empty(n)
    for i in range(n):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        resid[i] = w[i] * (
            score(beta, SurvivalSample(**{**columns, "weight": up}))
            - score(beta, SurvivalSample(**{**columns, "weight": down}))
        ) / (2 * eps)
    info = -(score(beta + eps, sample) - score(beta - eps, sample)) / (2 * eps)
    root_meat = np.sqrt(np.sum(resid**2))
    # compared as sqrt(meat): where the residuals are all nearly zero,
    # the differencing error (< 1e-7 there) needs an absolute floor
    assert result.robust_se * info == pytest.approx(root_meat, rel=1e-6, abs=1e-6)


def stable_sorted_arrays(sample):
    """The fit's sorted rows built with a stable sort: the reference
    that coxfit._sorted_arrays must match."""
    keep = np.flatnonzero(sample.weight > 0.0)
    perm = np.argsort(sample.time[keep], kind="stable")
    order = keep[perm]
    t = sample.time[order]
    first = None
    if np.any(t[1:] == t[:-1]):
        first = np.searchsorted(t, t, side="left")
    return coxfit._RiskSets(
        perm, t, sample.event[order], sample.treatment[order],
        sample.weight[order], first,
    )


@st.composite
def tied_rows(draw, zero_weights=True):
    # at most 5 distinct times, so most rows tie; censored rows, and
    # zero weights where allowed, are common
    n = draw(st.integers(2, 40))
    values = draw(st.lists(
        st.floats(0.01, 100.0), min_size=1, max_size=5, unique=True,
    ))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    weights = st.floats(0.25, 4.0)
    if zero_weights:
        weights = st.one_of(st.just(0.0), weights)
    return SurvivalSample(
        time=np.array(column(st.sampled_from(values))),
        event=np.array(column(st.integers(0, 1)), dtype=float),
        treatment=np.array(column(st.integers(0, 1)), dtype=float),
        weight=np.array(column(weights)),
    )


def fit_loglik(betas, sample):
    # the likelihood the fit evaluates, through whatever sort
    # coxfit._sorted_arrays is at the time of the call
    arms = coxfit._arm_sums(coxfit._sorted_arrays(sample))
    return np.array([coxfit._loglik_at(b, arms)[0] for b in betas])


def fit_outcome(sample):
    try:
        return fit_weighted_cox(sample)
    except (MonotoneLikelihoodError, CoxConvergenceError) as exc:
        return type(exc)


def assert_sorted_rows_equal_a_stable_sort(sample):
    got, want = coxfit._sorted_arrays(sample), stable_sorted_arrays(sample)
    for name in ("perm", "t", "d", "z", "w"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.first is None) == (want.first is None)
    if want.first is not None:
        assert np.array_equal(got.first, want.first)


@PROPERTY
@given(tied_rows())
def test_sorted_rows_equal_a_stable_sort(sample):
    assert_sorted_rows_equal_a_stable_sort(sample)


@PROPERTY
@given(tied_rows(zero_weights=False))
def test_zero_free_sorted_rows_equal_a_stable_sort(sample):
    # with every weight positive, no row is dropped before the sort
    assert_sorted_rows_equal_a_stable_sort(sample)


@PROPERTY
@given(tied_rows())
def test_fit_equals_a_stable_sort_fit_bit_for_bit(sample):
    betas = np.array([-1.5, 0.0, 0.3, 2.0])
    got = fit_outcome(sample), fit_loglik(betas, sample)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coxfit, "_sorted_arrays", stable_sorted_arrays)
        want = fit_outcome(sample), fit_loglik(betas, sample)
    # CoxFit equality compares log_hr, naive_se and robust_se with ==
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_tied_study_replicate_equals_a_stable_sort_replicate():
    # scenario 3 cut at tau = 0.5 ties every censored row at tau
    cfg = config_for(Scenario.TVTreatmentCovariates, prevalence=0.5,
                     beta_c=0.7832, tau=0.5)
    got = run_replicate(cfg, 2024, 3)
    tied = []

    def reference(sample):
        rs = stable_sorted_arrays(sample)
        tied.append(rs.first is not None)
        return rs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coxfit, "_sorted_arrays", reference)
        want = run_replicate(cfg, 2024, 3)
    assert tied == [True, True]
    assert not got.failed
    assert repr(got) == repr(want)

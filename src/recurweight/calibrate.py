"""Mapping between conditional and marginal treatment effects.

Hazard ratios do not collapse over covariates: the conditional log HR
beta_c put into the generator is not the population-level marginal log
HR an unconfounded analysis recovers. The mapping has no closed form,
so we measure it on a large synthetic population of potential outcomes
(both arms per subject, common draws) and solve for the beta_c whose
induced marginal effect hits a requested target.

One fixed oracle seed per calibration makes the bracketing function a
deterministic, smooth, monotone function of beta_c, so a bracketed
secant (Illinois regula falsi) applies; the Monte Carlo error of the
oracle population is folded into the solver tolerance, which must
dominate it.

beta_c enters a treated gap time only as the factor e^{-beta_c} on the
subject's control time, so one solve draws the population once and
sorts each event's control times once; every oracle evaluation then
rescales them, which leaves both arms presorted.

The module ships the calibrated table for the five standard targets
(marginal HR 1 to 3) so simulation runs do not pay the solve; passing
a flag recomputes it from scratch.
"""

from dataclasses import dataclass

import numpy as np

from .coxfit import SurvivalSample, fit_weighted_cox
from .simgen import Scenario, ScenarioConfig, gen_potential_outcomes
from .statcore import RngStream

DEFAULT_ORACLE_SEED = 12345
# the design whose census defines the marginal truths
ORACLE_SCENARIO = Scenario.TVTreatmentCovariates
DEFAULT_ORACLE_N = 1_000_000
DEFAULT_TOLERANCE = 0.005
_MIN_ORACLE_N = 100_000
_MAX_BISECT_ITER = 60


@dataclass
class CalibrationEntry:
    """One row of the target-to-conditional mapping.

    beta_m1 is the requested first-event marginal log HR, beta_c the
    conditional value that induces it, beta_m2 the second-event
    marginal log HR implied under covariate drift, achieved_beta_m1
    the oracle value actually reached at beta_c.
    """

    beta_m1: float
    beta_c: float
    beta_m2: float
    oracle_n: int
    achieved_beta_m1: float
    tolerance: float

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if abs(self.achieved_beta_m1 - self.beta_m1) > self.tolerance:
            raise ValueError("achieved marginal effect misses the target")
        if self.beta_m1 == 0.0 and (self.beta_c != 0.0 or self.beta_m2 != 0.0):
            raise ValueError("null target must map to null effects")


# published mapping for marginal HR targets 1, 1.5, 2, 2.5, 3 at the
# default drift (x2 = x1 + N(0, 16)); regenerate with
# `recurweight calibrate --targets 1,1.5,2,2.5,3`
CALIBRATION_TABLE = (
    CalibrationEntry(0.0, 0.0, 0.0, DEFAULT_ORACLE_N, 0.0, DEFAULT_TOLERANCE),
    CalibrationEntry(0.4055, 0.4599, 0.2085, DEFAULT_ORACLE_N, 0.4055, DEFAULT_TOLERANCE),
    CalibrationEntry(0.6931, 0.7830, 0.3551, DEFAULT_ORACLE_N, 0.6931, DEFAULT_TOLERANCE),
    CalibrationEntry(0.9163, 1.0313, 0.4686, DEFAULT_ORACLE_N, 0.9163, DEFAULT_TOLERANCE),
    CalibrationEntry(1.0986, 1.2331, 0.5616, DEFAULT_ORACLE_N, 1.0986, DEFAULT_TOLERANCE),
)


def lookup_calibration(target_hr):
    """Published entry for a marginal HR target, or None if off-table."""
    for hr, entry in zip((1.0, 1.5, 2.0, 2.5, 3.0), CALIBRATION_TABLE):
        if abs(target_hr - hr) < 1e-9:
            return entry
    return None


def _census(scenario, oracle_n, seed):
    """One oracle population's potential outcomes.

    Drawn at beta_c = 0; callers use only the control columns, which do
    not depend on beta_c.
    """
    if oracle_n < _MIN_ORACLE_N:
        raise ValueError(f"oracle population must be at least {_MIN_ORACLE_N}")
    cfg = ScenarioConfig(scenario=scenario, n_subjects=oracle_n)
    return gen_potential_outcomes(cfg, RngStream(seed))


def _census_log_hr(control, beta_c):
    """Marginal log HR of the census whose sorted control times are `control`.

    Stacks the treated and control outcomes of every subject and fits
    an unweighted Cox model on the arm indicator. Every comparison of
    a subject with themselves is exact, so no weighting is needed. A
    treated time is the control time times e^{-beta_c}, so both arms
    reach the fit already sorted.
    """
    n = len(control)
    sample = SurvivalSample(
        time=np.concatenate([control * np.exp(-beta_c), control]),
        event=np.ones(2 * n),
        treatment=np.concatenate([np.ones(n), np.zeros(n)]),
        weight=np.ones(2 * n),
    )
    return fit_weighted_cox(sample, robust=False).log_hr


def marginal_hr_oracle(
    beta_c,
    event,
    scenario=ORACLE_SCENARIO,
    oracle_n=DEFAULT_ORACLE_N,
    seed=DEFAULT_ORACLE_SEED,
):
    """Marginal log HR induced by beta_c, from a potential-outcome census.

    Draws its own census; calibrate_beta_c shares one across a solve.
    """
    if event not in (1, 2):
        raise ValueError("event must be 1 or 2")
    po = _census(scenario, oracle_n, seed)
    return _census_log_hr(np.sort(po[f"w{event}_control"]), beta_c)


def _bisect(func, lo, hi, tolerance, max_iter=_MAX_BISECT_ITER):
    """Root of a monotone increasing func, to |func(x)| <= tolerance.

    Bracketed secant (Illinois regula falsi): each step takes the
    secant through the bracket ends and halves the stored value of an
    end that survives twice running, so the bracket closes from both
    sides; a secant point outside the open bracket falls back to the
    midpoint.
    """
    f_lo = func(lo)
    if abs(f_lo) <= tolerance:
        return lo, f_lo
    f_hi = func(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle the root "
            f"(f(lo)={f_lo:.4g}, f(hi)={f_hi:.4g})"
        )
    if abs(f_hi) <= tolerance:
        return hi, f_hi
    moved = 0  # which end moved last: -1 lo, +1 hi
    for _ in range(max_iter):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = func(x)
        if abs(f_x) <= tolerance:
            return x, f_x
        if f_x < 0:
            lo, f_lo = x, f_x
            if moved == -1:
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = x, f_x
            if moved == 1:
                f_lo *= 0.5
            moved = 1
    raise RuntimeError(
        "root search exhausted; tolerance is probably below the oracle's "
        "Monte Carlo error"
    )


def calibrate_beta_c(
    target_beta_m1,
    tolerance=DEFAULT_TOLERANCE,
    oracle_n=DEFAULT_ORACLE_N,
    seed=DEFAULT_ORACLE_SEED,
):
    """Solve for the conditional log HR hitting a marginal target.

    Marginal effects are attenuated relative to conditional ones here,
    so the root lies in [target, 2 target + 0.5]; the oracle at fixed
    seed is monotone increasing in beta_c over that range. The census
    is drawn once and shared by every evaluation of the solve.
    """
    if target_beta_m1 < 0:
        raise ValueError("target must be nonnegative")
    if target_beta_m1 == 0.0:
        return CalibrationEntry(0.0, 0.0, 0.0, oracle_n, 0.0, tolerance)

    po = _census(ORACLE_SCENARIO, oracle_n, seed)
    control1 = np.sort(po["w1_control"])
    control2 = np.sort(po["w2_control"])
    del po

    def gap(beta_c):
        return _census_log_hr(control1, beta_c) - target_beta_m1

    lo, hi = target_beta_m1, 2.0 * target_beta_m1 + 0.5
    beta_c, residual = _bisect(gap, lo, hi, tolerance)
    beta_m2 = _census_log_hr(control2, beta_c)
    return CalibrationEntry(
        beta_m1=target_beta_m1,
        beta_c=beta_c,
        beta_m2=beta_m2,
        oracle_n=oracle_n,
        achieved_beta_m1=target_beta_m1 + residual,
        tolerance=tolerance,
    )

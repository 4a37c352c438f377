"""Mapping between conditional and marginal treatment effects.

Hazard ratios do not collapse over covariates: the conditional log HR
beta_c put into the generator is not the population-level marginal log
HR an unconfounded analysis recovers. The marginal value is the limit
of an unweighted Cox fit on both forced arms of an unbounded
potential-outcome population, half of the rows treated. Under this
misspecified model the fit converges to the root of the limiting
score (Struthers & Kalbfleisch 1986, Biometrika 73:363; Lin & Wei
1989, JASA 84:1074),

    U(beta) = integral of [f1 S0 - e^beta f0 S1] / (S0 + e^beta S1) dt.

S0(t) = E_X exp(-t lambda e^{beta1 X}) is the survival function of a
control gap time and f0 its density; the treated arm is the rescaling
S1(t) = S0(t e^{beta_c}), f1(t) = e^{beta_c} f0(t e^{beta_c}). X is the
covariate on the gap's hazard: N(0, 1) for the first gap and, under
drift, N(0, 1 + drift_sd^2) for the second. lambda, beta1 and drift_sd
are the generator's fixed BASELINE_RATE, BETA1 and DRIFT_SD. The oracle
evaluates U as a Gauss-Hermite sum in X inside a uniform grid in log t
and takes its root with a bracketed secant; a second secant solves for
the beta_c whose first-event marginal effect hits a requested target.
Nothing is drawn, so both roots run to tight tolerances.

The module ships the calibrated table for the five standard targets
(marginal HR 1 to 3) so simulation runs do not pay the solve; passing
a flag recomputes it from scratch.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simgen import BASELINE_RATE, BETA1, DRIFT_SD, Scenario

# perfbench/spans.py wraps these two names as span targets; nothing here
# calls them. They go together with those targets.
from .coxfit import fit_weighted_cox  # noqa: F401
from .simgen import gen_potential_outcomes  # noqa: F401

# the design whose gap times define the marginal truths
ORACLE_SCENARIO = Scenario.TVTreatmentCovariates
# tolerance of the shipped table, whose constants are rounded to 4 dp
DEFAULT_TOLERANCE = 0.005
# tolerance of a fresh solve on the marginal log HR
SOLVE_TOLERANCE = 1e-10
_MAX_BISECT_ITER = 60
# 80 nodes x 2,000 log-time points agree with 200 x 8,000 to 1e-12 on
# every table entry
_HERMITE_NODES = 80
_LOG_TIME_POINTS = 2_000
_LOG_TIME_HALF_WIDTH = 45.0
# exp(x) is exactly 0 in double precision for x <= -745.14. numpy's
# vector exp sends every lane whose result underflows (x < -708.4)
# through a scalar fallback, about 23 ns a lane against 1.4 ns (numpy
# 2.4, AVX-512 Xeon), so lanes at or past the cap are left at 0, not
# evaluated
_EXP_ARG_CAP = 746.0
# |U| at which the limiting score counts as zero; U is in probability
# units with slope -0.4 to -0.5 at the table's beta_c values, so the
# root is good to about 3e-13
_SCORE_TOLERANCE = 1e-13


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
# default drift (x2 = x1 + N(0, 16)), rounded to 4 dp; an exact solve
# (`recurweight calibrate --targets 1,1.5,2,2.5,3`) lands within 5e-4
# of every constant
CALIBRATION_TABLE = (
    CalibrationEntry(0.0, 0.0, 0.0, 0.0, DEFAULT_TOLERANCE),
    CalibrationEntry(0.4055, 0.4599, 0.2085, 0.4055, DEFAULT_TOLERANCE),
    CalibrationEntry(0.6931, 0.7830, 0.3551, 0.6931, DEFAULT_TOLERANCE),
    CalibrationEntry(0.9163, 1.0313, 0.4686, 0.9163, DEFAULT_TOLERANCE),
    CalibrationEntry(1.0986, 1.2331, 0.5616, 1.0986, DEFAULT_TOLERANCE),
)


def lookup_calibration(target_hr):
    """Published entry for a marginal HR target, or None if off-table."""
    for hr, entry in zip((1.0, 1.5, 2.0, 2.5, 3.0), CALIBRATION_TABLE):
        if abs(target_hr - hr) < 1e-9:
            return entry
    return None


# Two kinds of cached arrays: _quadrature and _control_arm hand out
# read-only arrays that every caller shares, and _scratch holds the one
# writable set, private to _survival_terms.


@lru_cache(maxsize=1)
def _quadrature():
    """Normal nodes and weights (summing to 1), log-time grid and its step.

    numpy.polynomial is imported here, on the first oracle call, so
    importing the package does not pay for it. The arrays are
    read-only, since every solve shares them.
    """
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(_HERMITE_NODES)
    log_times, step = np.linspace(
        -_LOG_TIME_HALF_WIDTH, _LOG_TIME_HALF_WIDTH, _LOG_TIME_POINTS,
        retstep=True,
    )
    arrays = nodes, weights / weights.sum(), np.exp(log_times)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, step)


@lru_cache(maxsize=2)
def _scratch(n_rates, n_times):
    """Work arrays of _survival_terms for one (rates, times) shape.

    They are kept between calls, so a process faults in an oracle-sized
    set (2.7 MB) once, not on every call after the allocator has
    trimmed it.
    """
    shape = (n_rates, n_times)
    return np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)


def _survival_terms(times, rates, weights):
    """S(t) and t f(t) of an exponential gap time whose rate is mixed.

    rates[k] carries probability weights[k]; both results are sums
    over the nodes at each time. They equal, bit for bit, the sums of
    exp evaluated on every lane: numpy's exp gives a lane the same bits
    whatever its neighbours are, exp(-u) is 0 past the cap, and a nan
    lane still reaches exp.

    The rate-by-time products, live-lane mask and exp terms are written
    into the scratch arrays of their shape, which every call reuses, so
    the function is not re-entrant. That is safe because the package
    runs in parallel only across processes. Both results are fresh
    arrays.
    """
    u, live, e = _scratch(len(rates), len(times))
    np.multiply(rates[:, None], times, out=u)
    np.greater_equal(u, _EXP_ARG_CAP, out=live)
    np.logical_not(live, out=live)
    e.fill(0.0)
    np.negative(u, out=e, where=live)
    np.exp(e, out=e, where=live)
    u *= e
    return weights @ e, weights @ u


@lru_cache(maxsize=2)
def _control_arm(sd):
    """Node rates, S0 and t f0 of a gap whose covariate is N(0, sd^2).

    None of them depends on beta_c, so a calibration solve computes
    them once per covariate law; the arrays are read-only, since every
    caller shares them.
    """
    nodes, weights, times, _ = _quadrature()
    rates = BASELINE_RATE * np.exp(BETA1 * sd * nodes)
    arm = (rates, *_survival_terms(times, rates, weights))
    for a in arm:
        a.flags.writeable = False
    return arm


@np.errstate(all="ignore")  # a fault surfaces as the checks' ValueError
def marginal_hr_oracle(beta_c, event, scenario=ORACLE_SCENARIO):
    """Marginal log HR that beta_c induces on one event's gap time.

    The root of the limiting Cox score U of the module docstring, at
    the generator's fixed BETA1, BASELINE_RATE and DRIFT_SD.
    On the log-time grid dt = t ds, so U is a sum of
    [t f1 S0 - e^beta t f0 S1] / (S0 + e^beta S1) over the points where
    S0 + S1 > 0 (both underflow at large t). Raises ValueError when no
    grid point carries mass or U is not finite, as happens for a
    non-finite beta_c.
    """
    if event not in (1, 2):
        raise ValueError("event must be 1 or 2")
    sd = 1.0
    if Scenario(scenario) is not Scenario.IndependentGaps and event == 2:
        sd = np.sqrt(1.0 + DRIFT_SD**2)
    _, weights, times, step = _quadrature()
    rates, s0, tf0 = _control_arm(sd)
    s1, tf1 = _survival_terms(times * np.exp(beta_c), rates, weights)
    mass = s0 + s1 > 0
    if not mass.any():
        raise ValueError(f"no log-time grid point carries mass at beta_c={beta_c}")
    s0, tf0, s1, tf1 = s0[mass], tf0[mass], s1[mass], tf1[mass]

    def negative_score(beta):
        eb = np.exp(beta)
        score = step * np.sum((tf1 * s0 - eb * tf0 * s1) / (s0 + eb * s1))
        if not np.isfinite(score):
            raise ValueError(f"limiting Cox score is not finite at beta_c={beta_c}")
        return -score

    # the marginal effect lies between 0 and beta_c; the margin keeps
    # both bracket ends off the root
    lo, hi = min(0.0, beta_c) - 0.5, max(0.0, beta_c) + 0.5
    beta, _ = _bisect(negative_score, lo, hi, _SCORE_TOLERANCE)
    return float(beta)


def _bisect(func, lo, hi, tolerance):
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
    for _ in range(_MAX_BISECT_ITER):
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
        f"root search exhausted after {_MAX_BISECT_ITER} steps; the function is "
        "probably not continuous at its root, or the tolerance is below "
        "its rounding error"
    )


def calibrate_beta_c(target_beta_m1):
    """Solve for the conditional log HR hitting a marginal target.

    Marginal effects are attenuated relative to conditional ones here,
    so the root lies in [target, 2 target + 0.5], over which the oracle
    is monotone increasing in beta_c. Each evaluation goes through the
    module attribute marginal_hr_oracle, so a wrapper installed there
    sees every call.
    """
    if target_beta_m1 < 0:
        raise ValueError("target must be nonnegative")
    if target_beta_m1 == 0.0:
        return CalibrationEntry(0.0, 0.0, 0.0, 0.0, SOLVE_TOLERANCE)

    def gap(beta_c):
        return marginal_hr_oracle(beta_c, 1) - target_beta_m1

    lo, hi = target_beta_m1, 2.0 * target_beta_m1 + 0.5
    beta_c, residual = _bisect(gap, lo, hi, SOLVE_TOLERANCE)
    return CalibrationEntry(
        beta_m1=target_beta_m1,
        beta_c=beta_c,
        beta_m2=marginal_hr_oracle(beta_c, 2),
        achieved_beta_m1=target_beta_m1 + residual,
        tolerance=SOLVE_TOLERANCE,
    )

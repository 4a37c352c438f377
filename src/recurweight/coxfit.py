"""Weighted Cox proportional-hazards fitting for a single binary covariate.

The model is h(t | z) = h0(t) exp(beta z) with per-row case weights
entering both the event terms and the risk-set sums of the partial
likelihood (Breslow convention for ties). Two variances are provided:
the naive inverse observed information, and the sandwich built from
cluster-summed score residuals, which stays valid when weighting makes
rows of one subject correlated. The sandwich is skipped when the
caller needs only the point estimate.

Because z is binary, every risk-set sum factors through two sums that
do not depend on beta (Therneau & Grambsch 2000, Modeling Survival
Data, section 3): with A0 and A1 the weight of the control and of the
treated rows at risk, S0(beta) = A0 + e^beta A1 and S1(beta) = e^beta A1.
A fit takes A0 and A1 once, at the event rows, so each likelihood,
score and information evaluation costs one scalar exp and a pass over
the events. Unweighted arm sums are exact integers, so the likelihood
carries no rounding from cumulative sums that change with beta.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MonotoneLikelihoodError(RuntimeError):
    """Partial likelihood has no interior maximum (no event contrast)."""


class CoxConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge within the iteration cap."""


@dataclass
class SurvivalSample:
    """Rows for one Cox fit.

    time : finite, strictly positive gap times.
    event : 1 for an observed event, 0 for a censored row.
    treatment : binary z, 0 or 1.
    weight : nonnegative case weights (stabilized weights in practice).
    cluster : subject ids; rows sharing an id form one cluster for the
        robust variance. Per-event fits use singleton clusters.
    """

    time: np.ndarray
    event: np.ndarray
    treatment: np.ndarray
    weight: np.ndarray
    cluster: np.ndarray

    def __post_init__(self):
        self.time = np.asarray(self.time, dtype=float)
        self.event = np.asarray(self.event, dtype=float)
        self.treatment = np.asarray(self.treatment, dtype=float)
        self.weight = np.asarray(self.weight, dtype=float)
        self.cluster = np.asarray(self.cluster)
        n = self.time.shape[0]
        for name in ("event", "treatment", "weight", "cluster"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length does not match time")
        if not np.all(np.isfinite(self.time) & (self.time > 0.0)):
            raise ValueError("times must be finite and strictly positive")
        # the factored risk sums of the fit assume binary z
        for name in ("event", "treatment"):
            values = getattr(self, name)
            if not np.all((values == 0.0) | (values == 1.0)):
                raise ValueError(f"{name} values must be 0 or 1")
        if np.any(~np.isfinite(self.weight)) or np.any(self.weight < 0.0):
            raise ValueError("weights must be finite and nonnegative")


@dataclass
class CoxFit:
    log_hr: float
    naive_se: float
    robust_se: float
    n_iter: int
    converged: bool


_MAX_ITER = 50
_MAX_HALVINGS = 10
_SCORE_TOL = 1e-9
_STEP_TOL = 1e-10
_BETA_BOUND = 20.0
# a likelihood drop below this fraction of |loglik| is rounding noise
# in sums over many rows, not a failed ascent
_LOGLIK_RTOL = 1e-10


class _RiskSets(NamedTuple):
    """The positive-weight rows of a sample, sorted by time.

    keep indexes those rows in the sample and perm puts them in time
    order; t, d, z, w are the sorted columns. first[j] is the first
    row tied with row j, so row j's risk set is the suffix from there;
    first is None when no times tie, since it would be the identity.
    """

    keep: np.ndarray
    perm: np.ndarray
    t: np.ndarray
    d: np.ndarray
    z: np.ndarray
    w: np.ndarray
    first: np.ndarray


class _ArmSums(NamedTuple):
    """The beta-free pieces of the risk sums, at the event rows.

    w holds the event rows' weights, a0 and a1 the control and treated
    weight at risk at each of them, and d1 = sum of w z over them.
    rows indexes the event rows among the sorted rows, or is None when
    every row is an event, so the arrays need no gather.
    """

    w: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    d1: float
    rows: np.ndarray


def _sorted_arrays(sample):
    # zero-weight rows contribute nothing to the likelihood, the score,
    # or any residual; dropping them up front also keeps suffix risk
    # sums strictly positive
    keep = np.flatnonzero(sample.weight > 0.0)
    perm = np.argsort(sample.time[keep], kind="stable")
    order = keep[perm]
    t = sample.time[order]
    first = None
    if np.any(t[1:] == t[:-1]):
        first = np.searchsorted(t, t, side="left")
    return _RiskSets(
        keep, perm, t, sample.event[order], sample.treatment[order],
        sample.weight[order], first,
    )


def _arm_sums(rs):
    wz = rs.w * rs.z
    a1 = np.cumsum(wz[::-1])[::-1]
    # w - w z is w (1 - z) exactly for binary z
    a0 = np.cumsum((rs.w - wz)[::-1])[::-1]
    # an event row reads the suffix sums at its first tied row; each
    # gather is skipped where it would be the identity, which keeps
    # copies of 2 x 10^6-row oracle arrays out of the peak memory
    rows, at, w = None, rs.first, rs.w
    if not np.all(rs.d > 0):
        rows = np.flatnonzero(rs.d)
        at = rows if at is None else at[rows]
        w, wz = w[rows], wz[rows]
    if at is not None:
        a0, a1 = a0[at], a1[at]
    return _ArmSums(w, a0, a1, float(np.sum(wz)), rows)


def _risk_sums(beta, arms):
    s1 = np.exp(beta) * arms.a1
    return arms.a0 + s1, s1


def partial_loglik(beta, sample):
    """Weighted log partial likelihood at beta (Breslow ties).

    A scalar beta gives a float. A 1-D array of betas gives one value
    per beta from a single sort of the sample, at the cost of
    len(beta) x (number of events) temporaries.
    """
    b = np.asarray(beta, dtype=float)
    if b.ndim > 1:
        raise ValueError("beta must be a scalar or a 1-D array")
    arms = _arm_sums(_sorted_arrays(sample))
    s0, _ = _risk_sums(b[..., None], arms)
    loglik = b * arms.d1 - np.sum(arms.w * np.log(s0), axis=-1)
    return float(loglik) if b.ndim == 0 else loglik


def _loglik_at(beta, arms):
    """Log partial likelihood at beta, with the risk sums behind it."""
    s0, s1 = _risk_sums(beta, arms)
    return beta * arms.d1 - np.sum(arms.w * np.log(s0)), s0, s1


def fit_weighted_cox(sample, robust=True):
    """Newton-Raphson maximizer of the weighted partial likelihood.

    The fit sorts the sample once and takes the beta-free arm sums
    once (see the module docstring); every evaluation then reads only
    the event rows. Convergence is declared when |score| < 1e-9 or the
    step falls below 1e-10. Step-halving accepts a trial point whose
    likelihood is no lower than the current one less the rounding
    allowance max(1e-12, 1e-10 |loglik|); when 10 halvings find no
    such point, the step is kept only if it passes the convergence test.

    robust=False skips the sandwich variance and reports robust_se as
    nan; log_hr, naive_se and n_iter do not depend on it.

    Raises MonotoneLikelihoodError if either treatment arm has no
    weighted event, or the iterate escapes |beta| > 20. Raises
    CoxConvergenceError at the 50-iteration cap, or when step-halving
    leaves a drop beyond rounding away from convergence.
    """
    rs = _sorted_arrays(sample)
    n_treated = np.count_nonzero(rs.d * rs.z)
    if not 0 < n_treated < np.count_nonzero(rs.d):
        raise MonotoneLikelihoodError("need a weighted event in each arm")
    arms = _arm_sums(rs)
    w = arms.w

    beta = 0.0
    # s0, s1 are the risk sums at beta; each likelihood evaluation
    # returns them, so the accepted step's sums serve the next iterate
    loglik, s0, s1 = _loglik_at(beta, arms)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        m = s1 / s0
        score = arms.d1 - np.sum(w * m)
        # for binary z the second risk moment equals the first
        info = np.sum(w * (m - m * m))
        step = score / info
        # one rounding allowance serves the line search and the drop
        # test; written so that a nan likelihood counts as a drop
        floor = loglik - max(1e-12, _LOGLIK_RTOL * abs(loglik))
        new_loglik, s0, s1 = _loglik_at(beta + step, arms)
        for _ in range(_MAX_HALVINGS):
            if new_loglik >= floor:
                break
            step *= 0.5
            new_loglik, s0, s1 = _loglik_at(beta + step, arms)
        dropped = not new_loglik >= floor
        beta, loglik = beta + step, new_loglik
        if abs(beta) > _BETA_BOUND:
            raise MonotoneLikelihoodError(
                f"estimate escaped |beta| > {_BETA_BOUND}: monotone likelihood"
            )
        if abs(score) < _SCORE_TOL or abs(step) < _STEP_TOL:
            converged = True
            break
        if dropped:
            raise CoxConvergenceError(
                f"step-halving found no ascent at iteration {it} "
                f"(beta={beta:.6g}, score={score:.3g})"
            )
    if not converged:
        raise CoxConvergenceError(f"no convergence in {_MAX_ITER} iterations")

    m = s1 / s0
    info = np.sum(w * (m - m * m))
    if info <= 0.0:
        raise MonotoneLikelihoodError("nonpositive information at the optimum")
    naive_se = 1.0 / np.sqrt(info)
    if robust:
        robust_se = float(np.sqrt(
            robust_variance(sample, beta, _fitted=(rs, arms, s0, s1))
        ))
    else:
        robust_se = float("nan")
    return CoxFit(
        log_hr=float(beta),
        naive_se=float(naive_se),
        robust_se=robust_se,
        n_iter=it,
        converged=converged,
    )


def robust_variance(sample, log_hr, *, _fitted=None):
    """Sandwich variance I^-1 (sum_g s_g^2) I^-1 at the fitted log_hr.

    s_g sums the weighted score residuals of cluster g:

        s_i = w_i [ d_i (z_i - m(t_i)) - e^{beta z_i} (z_i A(t_i) - B(t_i)) ]

    with m = S1/S0, A(t) = sum_{event times u <= t} w d / S0(u) and
    B(t) the same sum of w d m / S0(u). Each s_i equals w_i times the
    derivative of the total score with respect to w_i.

    _fitted is fit_weighted_cox's (sorted rows, arm sums, S0, S1 at
    log_hr), so the fit's sandwich neither re-sorts nor recomputes the
    risk sums.
    """
    beta = float(log_hr)
    if _fitted is None:
        rs = _sorted_arrays(sample)
        arms = _arm_sums(rs)
        s0, s1 = _risk_sums(beta, arms)
    else:
        rs, arms, s0, s1 = _fitted
    m = s1 / s0
    info = np.sum(arms.w * (m - m * m))
    if info <= 0.0:
        raise MonotoneLikelihoodError("singular information in sandwich")
    t, d, z, w = rs.t, rs.d, rs.z, rs.w
    jump = arms.w / s0
    if arms.rows is not None:
        # censored rows add nothing to A, B or the event term
        spread = np.zeros((2, len(t)))
        spread[:, arms.rows] = jump, m
        jump, m = spread
    a = np.cumsum(jump)
    b = np.cumsum(jump * m)
    if rs.first is not None:
        last = np.searchsorted(t, t, side="right") - 1
        a, b = a[last], b[last]
    resid = w * (d * (z - m) - np.exp(beta * z) * (z * a - b))

    # clusters numbered in sorted label order, taken in time order;
    # labelling the kept rows in sample order spares a sort of permuted ids
    _, inverse = np.unique(sample.cluster[rs.keep], return_inverse=True)
    cluster_sums = np.bincount(inverse[rs.perm], weights=resid)
    meat = np.sum(cluster_sums * cluster_sums)
    return float(meat / (info * info))

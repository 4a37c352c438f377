"""Weighted Cox proportional-hazards fitting for a single binary covariate.

The model is h(t | z) = h0(t) exp(beta z) with per-row case weights
entering both the event terms and the risk-set sums of the partial
likelihood (Breslow convention for ties). Two variances are provided:
the naive inverse observed information, and the sandwich built from
cluster-summed score residuals, which stays valid when weighting makes
rows of one subject correlated. The sandwich is skipped when the
caller needs only the point estimate.
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
        # the information formula of the fit assumes binary z
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
    order; t, d, z, w are the sorted columns, and first[j] is the first
    row tied with row j, so row j's risk set is the suffix from there.
    """

    keep: np.ndarray
    perm: np.ndarray
    t: np.ndarray
    d: np.ndarray
    z: np.ndarray
    w: np.ndarray
    first: np.ndarray


def _sorted_arrays(sample):
    # zero-weight rows contribute nothing to the likelihood, the score,
    # or any residual; dropping them up front also keeps suffix risk
    # sums strictly positive
    keep = np.flatnonzero(sample.weight > 0.0)
    perm = np.argsort(sample.time[keep], kind="stable")
    order = keep[perm]
    t = sample.time[order]
    # index of the first row in each tie group; risk sets are suffixes
    first = np.searchsorted(t, t, side="left")
    return _RiskSets(
        keep, perm, t, sample.event[order], sample.treatment[order],
        sample.weight[order], first,
    )


def _suffix_at(x, first):
    # risk-set sums along the last axis; leading axes index betas
    return np.cumsum(x[..., ::-1], axis=-1)[..., ::-1][..., first]


def _risk_sums(beta, z, w, first):
    r = w * np.exp(beta * z)
    return _suffix_at(r, first), _suffix_at(r * z, first)


def partial_loglik(beta, sample):
    """Weighted log partial likelihood at beta (Breslow ties).

    A scalar beta gives a float. A 1-D array of betas gives one value
    per beta from a single sort of the sample, at the cost of
    len(beta) x len(sample) temporaries.
    """
    rs = _sorted_arrays(sample)
    b = np.asarray(beta, dtype=float)
    if b.ndim > 1:
        raise ValueError("beta must be a scalar or a 1-D array")
    bz = b[..., None] * rs.z
    s0 = _suffix_at(rs.w * np.exp(bz), rs.first)
    loglik = np.sum(rs.w * rs.d * (bz - np.log(s0)), axis=-1)
    return float(loglik) if b.ndim == 0 else loglik


def _loglik_at(beta, d, z, w, first):
    """Log partial likelihood at beta, with the risk sums behind it."""
    s0, s1 = _risk_sums(beta, z, w, first)
    return np.sum(w * d * (beta * z - np.log(s0))), s0, s1


def fit_weighted_cox(sample, robust=True):
    """Newton-Raphson maximizer of the weighted partial likelihood.

    Step-halving keeps the likelihood nondecreasing; convergence is
    declared when |score| < 1e-9 or the step falls below 1e-10. When
    10 halvings find no ascent, the step is kept only if it passes that
    convergence test or the drop is within the likelihood's rounding
    noise, 1e-10 |loglik| (rounding near the optimum does this).

    robust=False skips the sandwich variance and reports robust_se as
    nan; log_hr, naive_se and n_iter do not depend on it.

    Raises MonotoneLikelihoodError if either treatment arm has no
    weighted event, or the iterate escapes |beta| > 20. Raises
    CoxConvergenceError at the 50-iteration cap, or when step-halving
    leaves a drop beyond rounding away from convergence.
    """
    rs = _sorted_arrays(sample)
    d, z, w, first = rs.d, rs.z, rs.w, rs.first
    events = (d > 0) & (w > 0)
    if not (np.any(events & (z > 0)) and np.any(events & (z <= 0))):
        raise MonotoneLikelihoodError("need a weighted event in each arm")

    beta = 0.0
    # s0, s1 are the risk sums at beta; each likelihood evaluation
    # returns them, so the accepted step's sums serve the next iterate
    loglik, s0, s1 = _loglik_at(beta, d, z, w, first)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        m = s1 / s0
        score = np.sum(w * d * (z - m))
        # for binary z the second risk moment equals the first
        info = np.sum(w * d * (m - m * m))
        step = score / info
        new_beta = beta + step
        new_loglik, s0, s1 = _loglik_at(new_beta, d, z, w, first)
        for _ in range(_MAX_HALVINGS):
            if new_loglik >= loglik - 1e-12:
                break
            step *= 0.5
            new_beta = beta + step
            new_loglik, s0, s1 = _loglik_at(new_beta, d, z, w, first)
        # written so that a nan likelihood counts as a drop
        dropped = not loglik - new_loglik <= max(1e-12, _LOGLIK_RTOL * abs(loglik))
        beta, loglik = new_beta, new_loglik
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
    info = np.sum(w * d * (m - m * m))
    if info <= 0.0:
        raise MonotoneLikelihoodError("nonpositive information at the optimum")
    naive_se = 1.0 / np.sqrt(info)
    if robust:
        robust_se = float(np.sqrt(robust_variance(sample, beta, _fitted=(rs, s0, s1))))
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

    _fitted is fit_weighted_cox's (sorted rows, S0, S1 at log_hr), so
    the fit's sandwich neither re-sorts nor recomputes the risk sums.
    """
    beta = float(log_hr)
    if _fitted is None:
        rs = _sorted_arrays(sample)
        s0, s1 = _risk_sums(beta, rs.z, rs.w, rs.first)
    else:
        rs, s0, s1 = _fitted
    t, d, z, w = rs.t, rs.d, rs.z, rs.w
    m = s1 / s0
    info = np.sum(w * d * (m - m * m))
    if info <= 0.0:
        raise MonotoneLikelihoodError("singular information in sandwich")
    last = np.searchsorted(t, t, side="right") - 1
    a = np.cumsum(w * d / s0)[last]
    b = np.cumsum(w * d * m / s0)[last]
    resid = w * (d * (z - m) - np.exp(beta * z) * (z * a - b))

    # clusters numbered in sorted label order, taken in time order;
    # labelling the kept rows in sample order spares a sort of permuted ids
    _, inverse = np.unique(sample.cluster[rs.keep], return_inverse=True)
    cluster_sums = np.bincount(inverse[rs.perm], weights=resid)
    meat = np.sum(cluster_sums * cluster_sums)
    return float(meat / (info * info))

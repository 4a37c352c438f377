"""Weighted Cox proportional-hazards fitting for a single binary covariate.

The model is h(t | z) = h0(t) exp(beta z) with per-row case weights
entering both the event terms and the risk-set sums of the partial
likelihood (Breslow convention for ties). Every row is one subject.
Two variances are provided: the naive inverse observed information,
and the robust sandwich built from per-row score residuals (Lin & Wei
1989), which stays valid under case weights, where the naive variance
does not.

Because z is binary, every risk-set sum factors through two sums that
do not depend on beta (Therneau & Grambsch 2000, Modeling Survival
Data, section 3): with A0 and A1 the weight of the control and of the
treated rows at risk, S0(beta) = A0 + e^beta A1 and S1(beta) = e^beta A1.
A fit takes A0 and A1 once, at the event rows, so each likelihood,
score and information evaluation costs one scalar exp and a pass over
the events. Unweighted arm sums are exact integers, so the likelihood
carries no rounding from cumulative sums that change with beta.

The one sort per fit is numpy's default argsort of the times. Where
times tie, a sort of integer keys puts the tied rows back in sample
order, so every sum runs in the order of a stable sort and the results
equal a stable sort's bit for bit; untied samples skip that step, and
samples with no zero weight skip the filter that would drop such rows.
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
    """Rows for one Cox fit, one row per subject.

    time : finite, strictly positive gap times.
    event : 1 for an observed event, 0 for a censored row.
    treatment : binary z, 0 or 1.
    weight : nonnegative case weights (stabilized weights in practice).

    Columns are stored contiguous, so a cohort field is copied once.
    The robust variance treats the rows as independent subjects.
    """

    time: np.ndarray
    event: np.ndarray
    treatment: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("time", "event", "treatment", "weight"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=float))
        n = self.time.shape[0]
        for name in ("event", "treatment", "weight"):
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

    perm puts those rows, taken in sample order, in time order, with
    tied rows kept in sample order, so it equals a stable sort; t, d,
    z, w are the sorted columns. first[j] is the first row tied with
    row j, so row j's risk set is the suffix from there; first is None
    when no times tie, since it would be the identity.
    """

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
    # sums strictly positive. Without any, the rows are used as they are.
    positive = sample.weight > 0.0
    keep = None if positive.all() else np.flatnonzero(positive)
    time = sample.time if keep is None else sample.time[keep]
    perm = np.argsort(time)
    t = time[perm]
    first = None
    if np.any(t[1:] == t[:-1]):
        first = np.searchsorted(t, t, side="left")
        # the default sort leaves tied rows in no set order; the
        # distinct keys first * n + perm sort by tie block, then by
        # sample order, so perm becomes the stable sort's and rows move
        # only within their block (t and first stand); the keys fit
        # int64 for n < 3e9 rows
        n = len(perm)
        perm = np.sort(first * n + perm) % n
    order = perm if keep is None else keep[perm]
    return _RiskSets(
        perm, t, sample.event[order], sample.treatment[order],
        sample.weight[order], first,
    )


def _arm_sums(rs):
    wz = rs.w * rs.z
    a1 = np.cumsum(wz[::-1])[::-1]
    # w - w z is w (1 - z) exactly for binary z
    a0 = np.cumsum((rs.w - wz)[::-1])[::-1]
    # an event row reads the suffix sums at its first tied row; each
    # gather is skipped where it would be the identity: an uncensored,
    # untied n = 10^4 fit takes 21-25% longer with the gathers (2 cores)
    rows, at, w = None, rs.first, rs.w
    if not np.all(rs.d > 0):
        rows = np.flatnonzero(rs.d)
        at = rows if at is None else at[rows]
        w, wz = w[rows], wz[rows]
    if at is not None:
        a0, a1 = a0[at], a1[at]
    return _ArmSums(w, a0, a1, float(np.sum(wz)), rows)


def _has_finite_maximum(rs, arms):
    """Whether the likelihood has a finite maximum, exactly.

    A treated event's term rises in beta only while control weight is
    at risk, and a control event's term falls only while treated weight
    is; without both, the likelihood is monotone. The arm sums only
    shrink over time, so each arm's first event decides.
    """
    z = rs.z if arms.rows is None else rs.z[arms.rows]
    if not len(z):
        return False
    treated, control = np.argmax(z), np.argmin(z)  # first event of each
    return (z[treated] == 1.0 and arms.a0[treated] > 0.0
            and z[control] == 0.0 and arms.a1[control] > 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _loglik_at(beta, arms):
    """Log partial likelihood at beta, with the risk sums behind it.

    A trial step far enough out overflows exp(beta) to inf; the
    likelihood then reads -inf or nan, which step-halving counts as a
    drop, so the overflow is not worth a warning.
    """
    s1 = np.exp(beta) * arms.a1
    s0 = arms.a0 + s1
    return beta * arms.d1 - np.sum(arms.w * np.log(s0)), s0, s1


def fit_weighted_cox(sample):
    """Newton-Raphson maximizer of the weighted partial likelihood.

    The fit sorts the sample once and takes the beta-free arm sums
    once (see the module docstring); every evaluation then reads only
    the event rows. Convergence is declared when |score| < 1e-9 or the
    step falls below 1e-10. Step-halving accepts a trial point whose
    likelihood is no lower than the current one less the rounding
    allowance max(1e-12, 1e-10 |loglik|); when 10 halvings find no
    such point, the step is kept only if it passes the convergence test.

    Returns the estimate with both its naive and its sandwich standard
    error. Rows with zero weight drop out of the fit, which is how a
    caller excludes subjects that are not at risk. Every fit that
    returns has converged; every failure raises.

    Raises MonotoneLikelihoodError when the likelihood has no finite
    maximum (no treated event with control weight at risk, or no
    control event with treated weight at risk), or when the iterate
    escapes |beta| > 20. Raises
    CoxConvergenceError at the 50-iteration cap, or when step-halving
    leaves a drop beyond rounding away from convergence.
    """
    rs = _sorted_arrays(sample)
    arms = _arm_sums(rs)
    if not _has_finite_maximum(rs, arms):
        raise MonotoneLikelihoodError(
            "no finite maximum: need an event in each arm "
            "with the other arm at risk"
        )
    w = arms.w

    beta = 0.0
    # s0, s1 are the risk sums at beta; each likelihood evaluation
    # returns them, so the accepted step's sums serve the next iterate
    loglik, s0, s1 = _loglik_at(beta, arms)
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
            break
        if dropped:
            raise CoxConvergenceError(
                f"step-halving found no ascent at iteration {it} "
                f"(beta={beta:.6g}, score={score:.3g})"
            )
    else:
        raise CoxConvergenceError(f"no convergence in {_MAX_ITER} iterations")

    m = s1 / s0
    info = np.sum(w * (m - m * m))
    if info <= 0.0:
        raise MonotoneLikelihoodError("nonpositive information at the optimum")
    naive_se = 1.0 / np.sqrt(info)
    robust_se = np.sqrt(robust_variance(rs, arms, beta, s0, m, info))
    return CoxFit(
        log_hr=float(beta),
        naive_se=float(naive_se),
        robust_se=float(robust_se),
        n_iter=it,
    )


def robust_variance(rs, arms, beta, s0, m, info):
    """Sandwich variance I^-1 (sum_i s_i^2) I^-1 at the fitted beta.

    fit_weighted_cox's last step: rs and arms are its sorted rows and
    arm sums, s0 and m = S1/S0 the risk sums at beta at the event
    rows, and info the information there. Each row is one subject,
    with the weighted score residual

        s_i = w_i [ d_i (z_i - m(t_i)) - e^{beta z_i} (z_i A(t_i) - B(t_i)) ]

    where A(t) = sum_{event times u <= t} w d / S0(u) and B(t) is the
    same sum of w d m / S0(u). Each s_i equals w_i times the derivative
    of the total score with respect to w_i.
    """
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

    # the meat is summed over subjects in sample order; summing in
    # time order would move robust_se in its last bit
    by_subject = np.empty_like(resid)
    by_subject[rs.perm] = resid
    meat = np.sum(by_subject * by_subject)
    return float(meat / (info * info))

"""Deterministic random number streams and logistic model fitting.

Data generation draws its randomness from here, and the propensity
models take their fitted probabilities from here, so this module pins
down the two reproducibility contracts of the package: a stream is a
numpy Generator seeded from a (seed, stream_id) pair, and identical
pairs always yield identical draws; fitting is a pure function of its
inputs.
"""

from dataclasses import dataclass

import numpy as np


class WeightModelError(RuntimeError):
    """A weight model could not be fit; the replicate cannot be used."""


class SeparationError(WeightModelError):
    """Logistic MLE is divergent (separated data or constant response),
    or a fitted probability saturated at exactly 0 or 1."""


def expit(x):
    """Numerically stable inverse logit, 1 / (1 + exp(-x)).

    Accepts scalars or arrays; saturates to 0 or 1 at extreme inputs,
    where exp(-x) overflows to inf without a warning.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class RngStream(np.random.Generator):
    """One independently seeded PCG64 substream, itself a numpy Generator.

    seed selects the experiment, stream_id the substream within it
    (one per replicate). Distinct stream_ids give statistically
    independent sequences; the same pair replays the same sequence.
    """

    def __init__(self, seed, stream_id=0):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        super().__init__(np.random.PCG64(ss))


def redraw_zeros(stream, u):
    """Redraw u's exact zeros in place, in index order, until none is left.

    A Generator's uniforms lie in [0, 1); an exact zero (probability
    2^-53 per draw) would make a downstream -log(u) infinite.
    """
    while (zero := u == 0.0).any():
        u[zero] = stream.random(int(zero.sum()))
    return u


@dataclass
class LogisticFit:
    """Result of a converged logistic regression fit.

    coefficients has the intercept first, matching the design matrix
    column order. n_iter counts the IRLS steps taken.
    fitted_probabilities are expit(X @ coefficients), strictly inside
    (0, 1).
    """

    coefficients: np.ndarray
    n_iter: int
    fitted_probabilities: np.ndarray


# IRLS defaults: standard GLM tolerances.
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 25
_SEPARATION_BOUND = 30.0


def fit_logistic(design, response):
    """Maximum-likelihood logistic regression via IRLS.

    Parameters
    ----------
    design : (n, p) array with an explicit intercept column.
    response : (n,) binary array.

    Returns
    -------
    LogisticFit. Every fit that returns has converged, and each of its
    fitted probabilities lies strictly inside (0, 1).

    Raises
    ------
    WeightModelError if there are fewer rows than coefficients, if the
    information matrix is singular, or if the coefficient step never
    fell below 1e-8 within 25 iterations.
    SeparationError (a WeightModelError) if the response is constant,
    any coefficient exceeds 30 in absolute value during iteration
    (divergent MLE), or a fitted probability is exactly 0 or 1.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, p = X.shape
    if n < p:
        raise WeightModelError(f"fewer rows than coefficients (n={n}, p={p})")

    ybar = np.mean(y)
    if ybar <= 0.0 or ybar >= 1.0:
        raise SeparationError("constant response: logistic MLE is divergent")

    beta = np.zeros(p)
    XW = np.empty_like(X)  # X * wls[:, None], refilled column by column
    for it in range(1, _IRLS_MAX_ITER + 1):
        prob = expit(X @ beta)
        wls = prob * (1.0 - prob)
        for j in range(p):
            np.multiply(X[:, j], wls, out=XW[:, j])
        info = X.T @ XW
        score = X.T @ (y - prob)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise WeightModelError("singular information matrix") from None
        beta += step
        if np.max(np.abs(beta)) > _SEPARATION_BOUND:
            raise SeparationError(
                f"coefficient magnitude exceeded {_SEPARATION_BOUND}: separated data"
            )
        if np.max(np.abs(step)) < _IRLS_TOL:
            break
    else:
        raise WeightModelError(f"IRLS did not converge in {_IRLS_MAX_ITER} iterations")

    prob = expit(X @ beta)
    # written so that a nan probability counts as saturated too
    if not (prob.min() > 0.0 and prob.max() < 1.0):
        raise SeparationError("a fitted probability saturated at 0 or 1")
    return LogisticFit(coefficients=beta, n_iter=it, fitted_probabilities=prob)

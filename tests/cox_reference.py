"""The weighted Cox partial likelihood and its score, straight from
their definitions.

This is the tests' reference for the likelihood that
`recurweight.coxfit` maximises and for the score its sandwich
differentiates. Each loops over the event rows and sums each against
its whole risk set, sharing no code with the fit, so a
fault in the fit's sort or in its factored risk sums shows up as a
disagreement rather than moving both sides of a check.
"""

import numpy as np


def partial_loglik(beta, sample):
    """Weighted log partial likelihood at beta, Breslow ties:

        sum over event rows i of w_i [beta z_i - log sum_{j: t_j >= t_i} w_j e^{beta z_j}]

    where the inner sum runs over every row still at risk at t_i, tied
    rows included. A scalar beta gives a float; a 1-D array of betas
    gives one value per beta.
    """
    b = np.asarray(beta, dtype=float)
    if b.ndim > 1:
        raise ValueError("beta must be a scalar or a 1-D array")
    t, d, z, w = (np.asarray(column, dtype=float) for column in
                  (sample.time, sample.event, sample.treatment, sample.weight))
    # w_j e^{beta z_j}, one column per row (a row of them per beta)
    risk = w * np.exp(np.multiply.outer(b, z))
    loglik = np.zeros(b.shape)
    for i in range(len(t)):
        # a zero-weight event adds w_i (...) = 0; skipping it also skips
        # the log of a risk set whose weight may be zero
        if d[i] == 0.0 or w[i] == 0.0:
            continue
        s0 = np.sum(risk[..., t >= t[i]], axis=-1)
        loglik += w[i] * (b * z[i] - np.log(s0))
    return float(loglik) if b.ndim == 0 else loglik


def score(beta, sample):
    """The derivative of `partial_loglik` at a scalar beta: the sum over
    event rows i of w_i [z_i - S1 / S0], where S0 and S1 sum w_j e^{beta z_j}
    and w_j z_j e^{beta z_j} over the rows at risk at t_i, ties included."""
    t, d, z, w = (np.asarray(column, dtype=float) for column in
                  (sample.time, sample.event, sample.treatment, sample.weight))
    risk = w * np.exp(beta * z)
    u = 0.0
    for i in range(len(t)):
        if d[i] == 0.0 or w[i] == 0.0:
            continue
        at_risk = t >= t[i]
        u += w[i] * (z[i] - np.sum(risk[at_risk] * z[at_risk]) / np.sum(risk[at_risk]))
    return u

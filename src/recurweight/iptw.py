"""Stabilized treatment weights.

Treatment weights follow the usual stabilization recipe: marginal
assignment probabilities in the numerator, fitted propensities in the
denominator. The first event uses a logistic model of z1 on x1; the
third scenario adds a second model of z2 on (x2, z1) and a joint
numerator table p_ij = P(Z1=i, Z2=j). When treatment never changes
(scenarios 1 and 2) the second-event weight equals the first-event
weight, because the conditional factor P(Z2=z2 | Z1=z1) is 1 in both
numerator and denominator; we return sw1 directly instead of pushing
e2 = e1 through the four-term formula, which would be wrong.

Under administrative censoring the second-event columns (x2, z2) are
only seen for subjects whose first event was observed, so the second
propensity model and the joint table are fit on the delta1 = 1 rows
and predictions extended to everyone. Baseline columns are complete,
so the first model always uses the full sample.
"""

from dataclasses import dataclass

import numpy as np

from .simgen import Scenario
from .statcore import expit, fit_logistic


class WeightModelError(RuntimeError):
    """A weight model failed to converge; the replicate cannot be used."""


@dataclass
class TreatmentWeights:
    sw1: np.ndarray
    sw2: np.ndarray
    p_marginal: float
    p_joint: np.ndarray

    def __post_init__(self):
        self.sw1 = np.asarray(self.sw1, dtype=float)
        self.sw2 = np.asarray(self.sw2, dtype=float)
        self.p_joint = np.asarray(self.p_joint, dtype=float)
        if not (np.all(np.isfinite(self.sw1)) and np.all(np.isfinite(self.sw2))):
            raise ValueError("weights must be finite")
        if np.any(self.sw1 < 0) or np.any(self.sw2 < 0):
            raise ValueError("weights must be nonnegative")
        if self.p_joint.shape != (2, 2) or np.any(self.p_joint < 0):
            raise ValueError("p_joint must be a nonnegative 2x2 table")
        if abs(self.p_joint.sum() - 1.0) > 1e-12:
            raise ValueError("p_joint must sum to 1")


def _check_probability(p, name):
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"{name} must lie strictly in (0, 1)")
    return p


def stabilized_weight_e1(z1, e1, p1):
    """sw1 = P(Z1=z1) / P(Z1=z1 | x1), vectorized over subjects."""
    e1 = _check_probability(e1, "e1")
    _check_probability(p1, "p1")
    z1 = np.asarray(z1, dtype=float)
    return p1 * z1 / e1 + (1.0 - p1) * (1.0 - z1) / (1.0 - e1)


def stabilized_weight_e2(z1, z2, e1, e2, p_joint):
    """sw2 = P(Z1=z1, Z2=z2) / (P(Z1=z1|x1) P(Z2=z2|x2,z1)).

    The four-term expansion picks the joint-table entry matching the
    observed pair and divides by the matching propensity factors.
    """
    e1 = _check_probability(e1, "e1")
    e2 = _check_probability(e2, "e2")
    p_joint = np.asarray(p_joint, dtype=float)
    if p_joint.shape != (2, 2) or np.any(p_joint < 0) or np.any(p_joint > 1):
        raise ValueError("p_joint must be a 2x2 table of probabilities")
    z1 = np.asarray(z1, dtype=int)
    z2 = np.asarray(z2, dtype=int)
    numerator = p_joint[z1, z2]
    denominator = (z1 * e1 + (1 - z1) * (1.0 - e1)) * (
        z2 * e2 + (1 - z2) * (1.0 - e2)
    )
    return numerator / denominator


def _converged_fit(design, response, label):
    fit = fit_logistic(design, response)
    if not fit.converged:
        raise WeightModelError(f"{label} model did not converge")
    return fit


def build_treatment_weights(dataset, scenario):
    """Fit the scenario's propensity models and return per-subject weights.

    Second-event model and joint table use the rows whose first event
    was observed (all rows when nothing is censored); predictions cover
    the full sample.
    """
    scenario = Scenario(scenario)
    n = len(dataset)
    x1 = np.asarray(dataset["x1"], dtype=float)
    z1 = np.asarray(dataset["z1"], dtype=float)

    fit1 = _converged_fit(np.column_stack([np.ones(n), x1]), z1, "first propensity")
    e1 = fit1.fitted_probabilities
    p1 = float(z1.mean())
    sw1 = stabilized_weight_e1(z1, e1, p1)

    if scenario is not Scenario.TVTreatmentCovariates:
        # fixed treatment: conditional second factor is identically 1
        p_joint = np.array([[1.0 - p1, 0.0], [0.0, p1]])
        return TreatmentWeights(sw1, sw1.copy(), p1, p_joint)

    x2 = np.asarray(dataset["x2"], dtype=float)
    z2 = np.asarray(dataset["z2"], dtype=float)
    observed = np.asarray(dataset["delta1"], dtype=bool)
    fit2 = _converged_fit(
        np.column_stack([np.ones(observed.sum()), x2[observed], z1[observed]]),
        z2[observed],
        "second propensity",
    )
    e2 = expit(np.column_stack([np.ones(n), x2, z1]) @ fit2.coefficients)

    z1o = dataset["z1"][observed].astype(int)
    z2o = dataset["z2"][observed].astype(int)
    p_joint = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            p_joint[i, j] = np.mean((z1o == i) & (z2o == j))

    # a censored row with a saturated e2 prediction is unusable but
    # harmless (it never enters a second-event fit); give it weight 0
    # instead of failing the whole build. On observed rows saturation
    # is a genuine positivity failure and still raises.
    valid = (e2 > 0.0) & (e2 < 1.0)
    if not np.all(valid[observed]):
        raise ValueError("e2 must lie strictly in (0, 1)")
    sw2 = np.zeros(n)
    sw2[valid] = stabilized_weight_e2(
        dataset["z1"][valid].astype(int),
        dataset["z2"][valid].astype(int),
        e1[valid],
        e2[valid],
        p_joint,
    )
    return TreatmentWeights(sw1, sw2, p1, p_joint)

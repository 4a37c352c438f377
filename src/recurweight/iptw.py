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
so the first model always uses the full sample. With no first event
censored, the second model's fitted probabilities are the predictions.
"""

from dataclasses import dataclass

import numpy as np

from .simgen import Scenario
from .statcore import expit, fit_logistic


class WeightModelError(RuntimeError):
    """A weight model could not be fit; the replicate cannot be used."""


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


def _check_binary(z, name):
    z = np.asarray(z, dtype=float)
    if not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError(f"{name} values must be 0 or 1")
    return z


def stabilized_weight_e1(z1, e1, p1):
    """sw1 = P(Z1=z1) / P(Z1=z1 | x1), vectorized over subjects."""
    e1 = _check_probability(e1, "e1")
    _check_probability(p1, "p1")
    z1 = _check_binary(z1, "z1")
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
    z1 = _check_binary(z1, "z1")
    z2 = _check_binary(z2, "z2")
    numerator = p_joint[z1.astype(int), z2.astype(int)]
    # each factor is exactly e or 1 - e for z in {0, 1}; float z spares int casts
    denominator = (z1 * e1 + (1.0 - z1) * (1.0 - e1)) * (
        z2 * e2 + (1.0 - z2) * (1.0 - e2)
    )
    return numerator / denominator


def _converged_fit(design, response, label):
    if len(design) < design.shape[1]:
        raise WeightModelError(f"{label} model has fewer rows than coefficients")
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

    z2 = np.asarray(dataset["z2"], dtype=float)
    design = np.column_stack([np.ones(n), dataset["x2"], z1])
    observed = np.asarray(dataset["delta1"], dtype=bool)
    censored = not observed.all()
    rows = observed if censored else slice(None)
    fit2 = _converged_fit(design[rows], z2[rows], "second propensity")
    e2 = expit(design @ fit2.coefficients) if censored else fit2.fitted_probabilities
    # cell 2 z1 + z2 of the joint table, counted over the fit's rows
    cells = 2 * dataset["z1"][rows] + dataset["z2"][rows]
    p_joint = (np.bincount(cells, minlength=4) / len(cells)).reshape(2, 2)
    if not censored:
        sw2 = stabilized_weight_e2(z1, z2, e1, e2, p_joint)
        return TreatmentWeights(sw1, sw2, p1, p_joint)

    # a censored row with a saturated e2 prediction is unusable but
    # harmless (it never enters a second-event fit); give it weight 0
    # instead of failing the whole build. On observed rows saturation
    # is a genuine positivity failure and still raises.
    valid = (e2 > 0.0) & (e2 < 1.0)
    if not np.all(valid[observed]):
        raise ValueError("e2 must lie strictly in (0, 1)")
    sw2 = np.zeros(n)
    sw2[valid] = stabilized_weight_e2(z1[valid], z2[valid], e1[valid], e2[valid], p_joint)
    return TreatmentWeights(sw1, sw2, p1, p_joint)

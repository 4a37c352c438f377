"""Stabilized treatment weights.

Treatment weights follow the usual stabilization recipe: marginal
assignment probabilities in the numerator, fitted propensities in the
denominator. The first event uses a logistic model of z1 on x1; the
third scenario adds a second model of z2 on (x2, z1) and a joint
numerator table p_ij = P(Z1=i, Z2=j). When treatment never changes
(scenarios 1 and 2) the second-event weight equals the first-event
weight, because the conditional factor P(Z2=z2 | Z1=z1) is 1 in both
numerator and denominator; sw2 is sw1 itself rather than e2 = e1
pushed through the four-term formula, which would be wrong.

Under administrative censoring a subject whose first event was
censored is not at risk for the second, and its second-event columns
(x2, z2) are never seen. The second propensity model and the joint
table are fit on the delta1 = 1 rows, and sw2 is 0 on every other row
in all three scenarios, which drops those rows from the second-event
fit. Baseline columns are complete, so the first model always uses the
full sample.

Both models come from `statcore.fit_logistic`, which returns only
converged fits whose propensities lie strictly inside (0, 1) and
raises a `WeightModelError` otherwise; the replicate then fails.
"""

from dataclasses import dataclass

import numpy as np

from .simgen import Scenario
from .statcore import fit_logistic


@dataclass
class TreatmentWeights:
    sw1: np.ndarray
    sw2: np.ndarray

    def __post_init__(self):
        self.sw1 = np.asarray(self.sw1, dtype=float)
        self.sw2 = np.asarray(self.sw2, dtype=float)
        if not (np.all(np.isfinite(self.sw1)) and np.all(np.isfinite(self.sw2))):
            raise ValueError("weights must be finite")
        if np.any(self.sw1 < 0) or np.any(self.sw2 < 0):
            raise ValueError("weights must be nonnegative")


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


def build_treatment_weights(dataset, scenario):
    """Fit the scenario's propensity models and return per-subject weights.

    The second-event model and joint table use the rows whose first
    event was observed (all rows when nothing is censored); sw2 is 0
    on the rows whose first event was censored.
    """
    scenario = Scenario(scenario)
    n = len(dataset)
    x1 = np.asarray(dataset["x1"], dtype=float)
    z1 = np.asarray(dataset["z1"], dtype=float)

    e1 = fit_logistic(np.column_stack([np.ones(n), x1]), z1).fitted_probabilities
    p1 = float(z1.mean())
    sw1 = stabilized_weight_e1(z1, e1, p1)

    if scenario is not Scenario.TVTreatmentCovariates:
        # fixed treatment: conditional second factor is identically 1
        return TreatmentWeights(sw1, sw1 * dataset["delta1"])

    z2 = np.asarray(dataset["z2"], dtype=float)
    design = np.column_stack([np.ones(n), dataset["x2"], z1])
    observed = dataset["delta1"] == 1
    rows = slice(None) if observed.all() else observed
    e2 = fit_logistic(design[rows], z2[rows]).fitted_probabilities
    # cell 2 z1 + z2 of the joint table, counted over the fit's rows
    cells = 2 * dataset["z1"][rows]
    cells += dataset["z2"][rows]
    p_joint = (np.bincount(cells, minlength=4) / len(cells)).reshape(2, 2)
    sw2 = np.zeros(n)
    sw2[rows] = stabilized_weight_e2(z1[rows], z2[rows], e1[rows], e2, p_joint)
    return TreatmentWeights(sw1, sw2)

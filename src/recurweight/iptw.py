"""Stabilized treatment weights.

Treatment weights follow the usual stabilization recipe: marginal
assignment probabilities in the numerator, fitted propensities in the
denominator. The first event uses a logistic model of z1 on x1 and
sw1 = P(Z1=z1) / P(Z1=z1 | x1). The third scenario adds a second model
of z2 on (x2, z1) and a joint numerator table p_ij = P(Z1=i, Z2=j), and
sw2 = p_{z1 z2} / (P(Z1=z1 | x1) P(Z2=z2 | x2, z1)). When treatment
never changes (scenarios 1 and 2) the second-event weight equals the
first-event weight, because the conditional factor P(Z2=z2 | Z1=z1) is
1 in both numerator and denominator; sw2 is sw1 itself rather than
e2 = e1 pushed through the joint formula, which would be wrong.

Under administrative censoring a subject whose first event was
censored is not at risk for the second, and its second-event columns
(x2, z2) are never seen. The second propensity model and the joint
table are fit on the delta1 = 1 rows, and sw2 is 0 on every other row
in all three scenarios, which drops those rows from the second-event
fit. Baseline columns are complete, so the first model always uses the
full sample.

Both models come from `statcore.fit_logistic`, which returns only
converged fits whose propensities lie strictly inside (0, 1) and
raises a `WeightModelError` otherwise; the replicate then fails. So
each weight is finite unless a propensity is subnormal, and
`coxfit.SurvivalSample` refuses a non-finite weight before any fit
reads it.
"""

from dataclasses import dataclass

import numpy as np

from .simgen import Scenario
from .statcore import fit_logistic


@dataclass
class TreatmentWeights:
    sw1: np.ndarray
    sw2: np.ndarray


def _binary(column, name):
    """The treatment column as floats, checked to hold only 0 and 1."""
    z = np.asarray(column, dtype=float)
    if not np.all((z == 0.0) | (z == 1.0)):
        raise ValueError(f"{name} values must be 0 or 1")
    return z


def build_treatment_weights(dataset, scenario):
    """Fit the scenario's propensity models and return per-subject weights.

    The second-event model and joint table use the rows whose first
    event was observed (all rows when nothing is censored); sw2 is 0
    on the rows whose first event was censored.
    """
    scenario = Scenario(scenario)
    varying = scenario is Scenario.TVTreatmentCovariates
    n = len(dataset)
    z1 = _binary(dataset["z1"], "z1")
    if varying:
        observed = dataset["delta1"] == 1
        rows = slice(None) if observed.all() else observed
        z2 = _binary(dataset["z2"][rows], "z2")

    e1 = fit_logistic(np.column_stack([np.ones(n), dataset["x1"]]), z1).fitted_probabilities
    # for z in {0, 1}, P(Z = z) = |1 - z - P(Z = 1)|, exactly: 0 - p is -p
    control1 = 1.0 - z1
    f1 = np.abs(control1 - e1)  # P(Z1 = z1 | x1)
    sw1 = np.abs(control1 - float(z1.mean())) / f1

    if not varying:
        # fixed treatment: conditional second factor is identically 1
        return TreatmentWeights(sw1, sw1 * dataset["delta1"])

    design = np.column_stack([np.ones(len(z2)), dataset["x2"][rows], z1[rows]])
    e2 = fit_logistic(design, z2).fitted_probabilities
    f2 = np.abs((1.0 - z2) - e2)  # P(Z2 = z2 | x2, z1)
    # cell 2 z1 + z2 of the joint table, counted over the fit's rows
    cells = (2.0 * z1[rows] + z2).astype(np.intp)
    p_joint = np.bincount(cells, minlength=4) / len(cells)
    sw2 = np.zeros(n)
    sw2[rows] = p_joint[cells] / (f1[rows] * f2)
    return TreatmentWeights(sw1, sw2)

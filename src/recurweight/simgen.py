"""Synthetic cohort generation for the three simulation scenarios.

Each subject carries a baseline covariate x1, a confounded binary
treatment z1, and two gap times on their own clocks. The scenarios
differ in what happens at the second event:

  1 IndependentGaps: covariate and treatment stay fixed, both gaps
    share the linear predictor beta_c z1 + beta1 x1.
  2 TVCovariates: the covariate drifts, x2 = x1 + v with v normal,
    treatment stays fixed.
  3 TVTreatmentCovariates: the covariate drifts and a second treatment
    z2 is assigned from (x2, z1).

Gap times are inverse-transform exponentials. Administrative censoring
at tau is recorded through indicators only; latent gap values are kept
so that diagnostics can see past the boundary, but analyses must not
use them beyond the indicator.

Draw order is fixed (x1, treatment uniform, u1, u2, drift, second
treatment uniform) so that the first-event columns are identical across
scenarios under the same stream, and so that potential-outcome
generation shares u1, u2 with the factual path.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .statcore import RngStream, draw_normal, draw_uniform, expit


class Scenario(enum.IntEnum):
    IndependentGaps = 1
    TVCovariates = 2
    TVTreatmentCovariates = 3


LN15 = float(np.log(1.5))

# intercepts giving 25% / 50% treatment prevalence for the default slopes
ALPHA0_BY_PREVALENCE = {0.25: -1.1392, 0.5: 0.0}
GAMMA0_BY_PREVALENCE = {0.25: -1.7233, 0.5: -0.1000}


@dataclass
class ScenarioConfig:
    """Full parameterization of one data-generating scenario."""

    scenario: Scenario = Scenario.IndependentGaps
    n_subjects: int = 10_000
    alpha0: float = ALPHA0_BY_PREVALENCE[0.25]
    alpha1: float = LN15
    gamma0: float = GAMMA0_BY_PREVALENCE[0.25]
    gamma1: float = LN15
    gamma2: float = LN15
    beta1: float = LN15
    beta_c: float = 0.0
    baseline_rate: float = 1.0
    drift_sd: float = 4.0
    tau: Optional[float] = None

    def __post_init__(self):
        self.scenario = Scenario(self.scenario)
        if self.baseline_rate <= 0:
            raise ValueError("baseline_rate must be positive")
        if self.drift_sd <= 0:
            raise ValueError("drift_sd must be positive")
        if self.n_subjects < 2:
            raise ValueError("need at least 2 subjects")
        if self.tau is not None and self.tau <= 0:
            raise ValueError("tau must be positive when set")


def config_for(scenario, prevalence=0.25, n_subjects=10_000, beta_c=0.0, tau=None):
    """ScenarioConfig with intercepts matched to a treatment prevalence."""
    if prevalence not in ALPHA0_BY_PREVALENCE:
        raise ValueError(f"prevalence must be one of {sorted(ALPHA0_BY_PREVALENCE)}")
    return ScenarioConfig(
        scenario=Scenario(scenario),
        n_subjects=n_subjects,
        alpha0=ALPHA0_BY_PREVALENCE[prevalence],
        gamma0=GAMMA0_BY_PREVALENCE[prevalence],
        beta_c=beta_c,
        tau=tau,
    )


SUBJECT_DTYPE = np.dtype(
    [
        ("x1", float),
        ("x2", float),
        ("z1", np.uint8),
        ("z2", np.uint8),
        ("w1", float),
        ("w2", float),
        ("delta1", np.uint8),
        ("delta2", np.uint8),
    ]
)

ORACLE_DTYPE = np.dtype(
    [
        ("x1", float),
        ("x2", float),
        ("w1_treated", float),
        ("w1_control", float),
        ("w2_treated", float),
        ("w2_control", float),
    ]
)


def gen_gap_time(u, linear_predictor, rate=1.0):
    """Inverse-transform exponential gap time, -log(u) / (rate e^lp)."""
    return -np.log(u) / (rate * np.exp(linear_predictor))


def _base_draws(config, stream):
    n = config.n_subjects
    x1 = draw_normal(stream, 0.0, 1.0, n)
    z_uniform = draw_uniform(stream, n)
    u1 = draw_uniform(stream, n)
    u2 = draw_uniform(stream, n)
    return x1, z_uniform, u1, u2


def gen_dataset(config, stream):
    """Generate one cohort as a structured array of subject records."""
    c = config
    n = c.n_subjects
    x1, z_uniform, u1, u2 = _base_draws(c, stream)
    z1 = (z_uniform < expit(c.alpha0 + c.alpha1 * x1)).astype(np.uint8)

    if c.scenario is Scenario.IndependentGaps:
        x2 = x1
        z2 = z1
    else:
        v = draw_normal(stream, 0.0, c.drift_sd, n)
        x2 = x1 + v
        if c.scenario is Scenario.TVCovariates:
            z2 = z1
        else:
            z2_uniform = draw_uniform(stream, n)
            z2 = (z2_uniform < expit(c.gamma0 + c.gamma1 * x2 + c.gamma2 * z1)).astype(
                np.uint8
            )

    w1 = gen_gap_time(u1, c.beta_c * z1 + c.beta1 * x1, c.baseline_rate)
    w2 = gen_gap_time(u2, c.beta_c * z2 + c.beta1 * x2, c.baseline_rate)

    ds = np.empty(n, dtype=SUBJECT_DTYPE)
    ds["x1"], ds["x2"] = x1, x2
    ds["z1"], ds["z2"] = z1, z2
    ds["w1"], ds["w2"] = w1, w2
    if c.tau is None:
        ds["delta1"] = 1
        ds["delta2"] = 1
    else:
        ds["delta1"] = w1 <= c.tau
        ds["delta2"] = (w1 + w2) <= c.tau
    return ds


def gen_potential_outcomes(config, stream):
    """Gap times under both forced arms, sharing one uniform per event.

    Forcing an arm sets every treatment to it, so in scenario 3 the
    intervened z drives both the second assignment and the second
    hazard. Scenario 1 keeps x2 = x1; the drift scenarios use
    x2 = x1 + v. Common draws across arms make the per-subject
    contrast monotone in beta_c.
    """
    c = config
    n = c.n_subjects
    x1, _, u1, u2 = _base_draws(c, stream)
    if c.scenario is Scenario.IndependentGaps:
        x2 = x1
    else:
        x2 = x1 + draw_normal(stream, 0.0, c.drift_sd, n)

    out = np.empty(n, dtype=ORACLE_DTYPE)
    out["x1"], out["x2"] = x1, x2
    out["w1_treated"] = gen_gap_time(u1, c.beta_c + c.beta1 * x1, c.baseline_rate)
    out["w1_control"] = gen_gap_time(u1, c.beta1 * x1, c.baseline_rate)
    out["w2_treated"] = gen_gap_time(u2, c.beta_c + c.beta1 * x2, c.baseline_rate)
    out["w2_control"] = gen_gap_time(u2, c.beta1 * x2, c.baseline_rate)
    return out


DATASET_CSV_HEADER = "x1,x2,z1,z2,w1,w2,delta1,delta2"
# rows formatted per write: bounds the Python objects a dump holds at
# once, which for a whole cohort would outweigh the cohort itself
CSV_CHUNK_ROWS = 16_384


def write_dataset_csv(ds, fh):
    """Write a cohort in the interchange layout to an open text handle.

    Floats are written by repr, so the file parses back to the same
    bits; indicators and treatments are written as 0/1.
    """
    fh.write(DATASET_CSV_HEADER + "\n")
    names = DATASET_CSV_HEADER.split(",")
    for start in range(0, len(ds), CSV_CHUNK_ROWS):
        part = ds[start:start + CSV_CHUNK_ROWS]
        fh.writelines(
            f"{x1!r},{x2!r},{z1},{z2},{w1!r},{w2!r},{d1},{d2}\n"
            for x1, x2, z1, z2, w1, w2, d1, d2 in zip(
                *(part[name].tolist() for name in names)
            )
        )

"""Administrative censoring at tau: three analyses of the second event.

Once follow-up stops at a fixed tau, the second gap time is only fully
observed for subjects whose events both fit inside the window, and
those subjects systematically have short first gaps. Three ways to
analyse the second event:

  risk-set     keep every subject still under observation after their
               first event, put them on the total-time scale
               min(w1 + w2, tau), let delta2 mark the events, weight by
               the stabilized treatment weights. This is what the
               simulation harness does.

  complete     keep only subjects with delta2 = 1 and fit the observed
               gap w2 directly. The selection is outcome-dependent, so
               this is biased low, badly.

  complete+icw complete-case again, but multiplied by inverse-of-
               censoring ratio weights fit on the observed covariates.
               The censoring model involves the drifted covariate,
               whose tails are heavy, so a handful of subjects get
               enormous weights and the estimate destabilises.

All three inherit the upward bias that censoring itself induces (the
risk sets get thinner exactly where the drift matters most); the point
of the comparison is which analysis keeps that bias bounded and
tau-monotone without blowing up the variance.

The censoring weights live here, not in the library, because no
analysis the package runs uses them. They mirror the treatment-weight
construction with completion indicators in place of treatments:
empirical completion rates over fitted logistic completion
probabilities, the second factor conditional on the first event being
observed. Rows whose weight is undefined (censored before the relevant
event) get weight zero, which keeps vector shapes uniform and drops
them from any weighted fit.

Run time: about a minute.
"""

from dataclasses import dataclass

import numpy as np

from recurweight.coxfit import (
    CoxConvergenceError,
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
)
from recurweight.iptw import (
    WeightModelError,
    _converged_fit,
    build_treatment_weights,
)
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream, SeparationError, expit

REPS = 40
N = 6_000
SEED = 424
TRUTH = 0.2085  # marginal event-2 log hr for beta_c = 0.4599

FAILURES = (SeparationError, WeightModelError,
            MonotoneLikelihoodError, CoxConvergenceError)


@dataclass
class CensoringWeights:
    """Per-subject censoring weights; zero where the row is unusable.

    sw1_dag is nonzero only on delta1 = 1 rows, sw2_dag only on
    delta2 = 1 rows.
    """

    sw1_dag: np.ndarray
    sw2_dag: np.ndarray

    def __post_init__(self):
        self.sw1_dag = np.asarray(self.sw1_dag, dtype=float)
        self.sw2_dag = np.asarray(self.sw2_dag, dtype=float)
        for w in (self.sw1_dag, self.sw2_dag):
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")


def build_censoring_weights(dataset, tau):
    """Stabilized censoring weights from completion-probability models.

    sw1_dag = delta1 * P(delta1=1) / P(delta1=1 | x1, z1)
    sw2_dag = delta2 * sw1_dag_ratio * P(delta2=1 | delta1=1) / P(delta2=1 | history)

    with the second model fit over delta1 = 1 rows on the full observed
    history (x1, x2, z1, z2). A factor whose indicator never drops is
    replaced by exact ones rather than fit (constant response).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    delta1 = np.asarray(dataset["delta1"], dtype=bool)
    delta2 = np.asarray(dataset["delta2"], dtype=bool)
    expected1 = np.asarray(dataset["w1"] <= tau)
    expected2 = np.asarray(dataset["w1"] + dataset["w2"] <= tau)
    if not (np.array_equal(delta1, expected1) and np.array_equal(delta2, expected2)):
        raise ValueError("censoring indicators do not match tau")
    if not delta1.any():
        raise ValueError("every subject is censored before the first event")

    n = len(dataset)
    if delta2.all():
        ones = np.ones(n)
        return CensoringWeights(ones, ones.copy())

    x1 = np.asarray(dataset["x1"], dtype=float)
    z1 = np.asarray(dataset["z1"], dtype=float)

    if delta1.all():
        ratio1 = np.ones(n)
    else:
        fit1 = _converged_fit(
            np.column_stack([np.ones(n), x1, z1]),
            delta1.astype(float),
            "first censoring",
        )
        ratio1 = delta1.mean() / fit1.fitted_probabilities

    obs = delta1
    d2_obs = delta2[obs].astype(float)
    if delta2[obs].all():
        ratio2 = np.ones(n)
    else:
        x2 = np.asarray(dataset["x2"], dtype=float)
        z2 = np.asarray(dataset["z2"], dtype=float)
        # fixed-treatment scenarios repeat baseline columns; keep the
        # design full rank by skipping exact duplicates
        columns = [np.ones(n), x1]
        if not np.array_equal(x2, x1):
            columns.append(x2)
        columns.append(z1)
        if not np.array_equal(z2, z1):
            columns.append(z2)
        design2 = np.column_stack(columns)
        fit2 = _converged_fit(design2[obs], d2_obs, "second censoring")
        # only delta2 = 1 rows carry this factor; evaluating elsewhere
        # risks saturated predictions on rows that never use it
        ratio2 = np.ones(n)
        ratio2[delta2] = d2_obs.mean() / expit(design2[delta2] @ fit2.coefficients)

    sw1_dag = np.where(delta1, ratio1, 0.0)
    sw2_dag = np.where(delta2, ratio1 * ratio2, 0.0)
    return CensoringWeights(sw1_dag, sw2_dag)


def one_replicate(tau, rep):
    cfg = config_for(3, prevalence=0.25, n_subjects=N, beta_c=0.4599, tau=tau)
    ds = gen_dataset(cfg, RngStream(SEED, rep))
    wts = build_treatment_weights(ds, cfg.scenario)
    cwts = build_censoring_weights(ds, tau)
    subjects = np.arange(N)
    z2 = ds["z2"].astype(float)

    out = {}

    # risk-set: everyone past their first event, total-time scale
    obs = ds["delta1"] == 1
    out["risk-set"] = SurvivalSample(
        time=np.minimum(ds["w1"] + ds["w2"], tau)[obs],
        event=ds["delta2"][obs].astype(float),
        treatment=z2[obs],
        weight=wts.sw2[obs],
        cluster=subjects[obs],
    )

    # complete-case: fully observed second gaps only
    cc = ds["delta2"] == 1
    out["complete"] = SurvivalSample(
        time=ds["w2"][cc],
        event=np.ones(cc.sum()),
        treatment=z2[cc],
        weight=wts.sw2[cc],
        cluster=subjects[cc],
    )

    # complete-case with inverse-of-censoring ratio weights folded in
    # (sw2_dag is zero off the complete cases, and zero-weight rows are
    # dropped by the fitter, so no explicit subsetting needed)
    out["complete+icw"] = SurvivalSample(
        time=ds["w2"],
        event=np.ones(N),
        treatment=z2,
        weight=wts.sw2 * cwts.sw2_dag,
        cluster=subjects,
    )
    return out


def main():
    print(f"event-2 truth: {TRUTH:+.4f}  ({REPS} replicates of n = {N})")
    print()
    for tau in (1.0, 0.25):
        ests = {"risk-set": [], "complete": [], "complete+icw": []}
        max_icw = 0.0
        for rep in range(REPS):
            samples = one_replicate(tau, rep)
            max_icw = max(max_icw, samples["complete+icw"].weight.max())
            for name, sample in samples.items():
                try:
                    ests[name].append(fit_weighted_cox(sample).log_hr)
                except FAILURES:
                    pass
        print(f"tau = {tau}  (largest composed icw weight seen: {max_icw:.0f})")
        for name, vals in ests.items():
            vals = np.asarray(vals)
            bias = (vals.mean() - TRUTH) / TRUTH * 100.0
            print(f"  {name:<13} mean {vals.mean():+.4f}  bias {bias:+7.1f}%  "
                  f"sd {vals.std(ddof=1):.4f}  fits {len(vals)}/{REPS}")
        print()
    print("complete-case sits 40-50% below the truth at both cutoffs. the")
    print("icw repair buys back some location at the long cutoff but at")
    print("double the spread, and at the short cutoff it fixes nothing")
    print("while tripling it. the risk-set analysis keeps a moderate,")
    print("tau-monotone upward bias with stable variance, which is why")
    print("the harness uses it.")


if __name__ == "__main__":
    main()

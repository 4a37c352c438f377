"""One simulated cohort, step by step.

Generates a single confounded cohort (treatment assignment depends on
the current covariate at both events), builds the stabilized weights,
and shows the two things they are supposed to deliver:

  1. covariate balance: the weighted covariate means no longer differ
     between arms, and the weights average to one (stabilization), so
     the pseudo-population is the same size as the sample;
  2. honest uncertainty: after weighting, the model-based standard
     error is far too small, while the sandwich standard error matches
     the spread you would see across repeated samples.
"""

import numpy as np

from recurweight.coxfit import SurvivalSample, fit_weighted_cox
from recurweight.iptw import build_treatment_weights
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream

N = 20_000
SEED = 7


def arm_means(x, z, w=None):
    w = np.ones_like(x) if w is None else w
    treated = np.average(x[z == 1], weights=w[z == 1])
    control = np.average(x[z == 0], weights=w[z == 0])
    return treated, control


def main():
    # scenario 3, 25% treated, conditional log hr 0.4599
    cfg = config_for(3, prevalence=0.25, n_subjects=N, beta_c=0.4599)
    ds = gen_dataset(cfg, RngStream(SEED))
    wts = build_treatment_weights(ds, cfg.scenario)

    # ----------------------------------------------------------------
    # balance before / after weighting
    # ----------------------------------------------------------------
    print(f"n = {N}, treated fraction event 1: {ds['z1'].mean():.3f}, "
          f"event 2: {ds['z2'].mean():.3f}")
    print()
    for label, x, z, sw in (
        ("event 1, x1", ds["x1"], ds["z1"], wts.sw1),
        ("event 2, x2", ds["x2"], ds["z2"], wts.sw2),
    ):
        raw_t, raw_c = arm_means(x, z)
        adj_t, adj_c = arm_means(x, z, sw)
        print(f"{label}: raw arm means {raw_t:+.3f} vs {raw_c:+.3f} "
              f"(gap {raw_t - raw_c:+.3f})")
        print(f"{'':>11} weighted      {adj_t:+.3f} vs {adj_c:+.3f} "
              f"(gap {adj_t - adj_c:+.3f})")
    print()
    print(f"weight means: sw1 {wts.sw1.mean():.4f}, sw2 {wts.sw2.mean():.4f} "
          f"(stabilized, so ~1)")
    print(f"weight maxima: sw1 {wts.sw1.max():.2f}, sw2 {wts.sw2.max():.2f}")
    print()

    # ----------------------------------------------------------------
    # weighted fits: naive vs sandwich standard errors
    # ----------------------------------------------------------------
    fits = {
        1: fit_weighted_cox(SurvivalSample(
            time=ds["w1"], event=np.ones(N), treatment=ds["z1"].astype(float),
            weight=wts.sw1)),
        2: fit_weighted_cox(SurvivalSample(
            time=ds["w2"], event=np.ones(N), treatment=ds["z2"].astype(float),
            weight=wts.sw2)),
    }
    truth = {1: 0.4055, 2: 0.2085}  # marginal log hrs this beta_c was solved for
    for event, fit in fits.items():
        print(f"event {event}: log hr {fit.log_hr:+.4f} (marginal truth "
              f"{truth[event]:+.4f}), naive se {fit.naive_se:.4f}, "
              f"robust se {fit.robust_se:.4f}")
    print()
    print("for the first event the two standard errors nearly agree; for")
    print("the second, where the weights are heavy-tailed, the sandwich se")
    print("is ~3.5x the model-based one, and across repeated samples even")
    print("it is on the low side. the naive se is the one never to report.")
    print("(run bias_sweep.py to see both against the empirical spread.)")


if __name__ == "__main__":
    main()

"""Why the planted treatment coefficient has to be calibrated.

The generator plants a conditional log hazard ratio beta_c inside each
gap-time hazard. The quantity the weighted Cox fit estimates, though,
is the marginal (population-averaged) log hazard ratio, and the
subject-level drift term acts like a frailty: it attenuates the
marginal effect below the conditional one, more so for the second gap
than the first. So "truth" for a bias table is not beta_c. It is the
marginal coefficient a Cox fit on both arms of the potential outcomes
converges to, and beta_c has to be solved backwards from the marginal
target.

This script evaluates the attenuation with the exact oracle (the
limit of that fit, by quadrature), then re-solves one table row from
scratch and compares it to the shipped constants.

Run time: well under a second.
"""

import numpy as np

from recurweight.calibrate import (
    CALIBRATION_TABLE,
    calibrate_beta_c,
    marginal_hr_oracle,
)


def main():
    # ----------------------------------------------------------------
    # attenuation: conditional beta_c vs the marginal coefficient
    # ----------------------------------------------------------------
    print("conditional -> marginal attenuation (exact oracle)")
    print(f"{'beta_c':>8} {'marginal e1':>12} {'marginal e2':>12} "
          f"{'e1/beta_c':>10} {'e2/beta_c':>10}")
    for beta_c in (0.25, 0.4599, 0.7830, 1.2331):
        m1 = marginal_hr_oracle(beta_c, event=1)
        m2 = marginal_hr_oracle(beta_c, event=2)
        print(f"{beta_c:8.4f} {m1:12.4f} {m2:12.4f} "
              f"{m1 / beta_c:10.3f} {m2 / beta_c:10.3f}")
    print()
    print("the first gap keeps roughly 88% of the conditional effect,")
    print("the second gap only about 45%: the drift realised between the")
    print("events washes out most of the contrast there.")
    print()

    # ----------------------------------------------------------------
    # solving one row: target marginal hr 1.5 for the first event
    # ----------------------------------------------------------------
    target = np.log(1.5)
    entry = calibrate_beta_c(target)
    shipped = CALIBRATION_TABLE[1]
    print(f"target marginal log hr (event 1): {target:.4f}")
    print(f"solved beta_c:  {entry.beta_c:.4f}   (shipped constant {shipped.beta_c})")
    print(f"implied event-2 marginal log hr: {entry.beta_m2:.4f}"
          f"   (shipped {shipped.beta_m2})")
    print()
    print("the shipped constants are a Monte Carlo solve rounded to 4 dp;")
    print("the exact solve lands within 5e-4 of every one of them.")


if __name__ == "__main__":
    main()

"""Monte Carlo sweep over effect sizes and treatment prevalence.

A scaled-down version of the full study: scenario 3 (treatment and
covariate both vary across events, assignment confounded by the
current covariate), both prevalence settings, three effect sizes,
60 replicates of n = 10,000 each. Two patterns to look for:

  * bias of the weighted estimator is small but not zero (the bias
    column wobbles by a few percent at 60 replicates). The
    1,000-replicate runs in ROADMAP.md put the second event +3.0 MCSE
    above its truth at prevalence 0.5 and +5.3 MCSE above the
    prevalence-aware truth at 0.25, and the first event at 0.25 +9.7
    MCSE above the reported truth, within 1.3 MCSE of the
    prevalence-aware one;
  * the naive (model-based) standard error is close to honest for the
    first event but collapses to a fraction of the empirical spread
    for the second, where the weights are heavy-tailed. The sandwich
    standard error stays in the right neighbourhood for both.

A short coda shrinks the cohort to n = 2,500, where the second-event
bias is larger. ROADMAP.md item 7's n-scaling table measures it at
prevalence 0.25: +5.8 MCSE at n = 2,500, +5.3 at 10,000 and +4.4 at
40,000 against the prevalence-aware truth, and gone at n = 4x10^6.

Run time: about 2.5 s on 2 cores.
"""

from recurweight.calibrate import lookup_calibration
from recurweight.harness import run_simulation
from recurweight.simgen import config_for

REPS = 60
N = 10_000
SEED = 99


def sweep_cell(prevalence, target_hr, n_subjects):
    truth = lookup_calibration(target_hr)
    cfg = config_for(3, prevalence=prevalence, n_subjects=n_subjects,
                     beta_c=truth.beta_c)
    return run_simulation(cfg, truth, n_reps=REPS, master_seed=SEED)


def print_rows(rows, prevalence, target_hr):
    for event, row in zip((1, 2), rows):
        print(f"{prevalence:5.2f} {target_hr:5.1f} {event:6d} "
              f"{row.true_beta_m:7.4f} {row.mean_beta_hat:9.4f} "
              f"{row.bias_pct:+7.2f} {row.ase:7.4f} "
              f"{row.ese:7.4f} {row.rse:7.4f} {row.ase / row.ese:8.2f}")


def main():
    header = (f"{'prev':>5} {'hr1':>5} {'event':>6} {'truth':>7} "
              f"{'mean est':>9} {'bias%':>7} {'ase':>7} {'ese':>7} "
              f"{'rse':>7} {'ase/ese':>8}")
    print(f"n = {N}, {REPS} replicates per cell")
    print(header)
    print("-" * len(header))
    for prevalence in (0.25, 0.5):
        for target_hr in (1.5, 2.0, 3.0):
            print_rows(sweep_cell(prevalence, target_hr, N),
                       prevalence, target_hr)
    print()
    print("event-1 fits: naive se nearly honest (ase/ese ~0.9). event-2")
    print("fits: ase/ese drops to ~0.2-0.35, so a naive Wald interval")
    print("would be several times too narrow; the sandwich se stays the")
    print("right size. the 25% prevalence cells keep a small residual")
    print("positive bias (heavier weight tails); the 50% cells sit on")
    print("top of the truth.")
    print()

    # ----------------------------------------------------------------
    # coda: why the study runs at n = 10,000
    # ----------------------------------------------------------------
    print(f"same cell (prev 0.25, hr 1.5) at shrinking n:")
    for n in (10_000, 5_000, 2_500):
        _, row2 = sweep_cell(0.25, 1.5, n)
        print(f"  n = {n:>6}: event-2 bias {row2.bias_pct:+6.2f}%  "
              f"(ese {row2.ese:.4f})")
    print()
    print("the second-event weights have a heavy tail, so the estimator")
    print("needs a large cohort before its small-sample bias dies out;")
    print("below n ~ 10,000 the event-2 coefficient drifts upward.")


if __name__ == "__main__":
    main()

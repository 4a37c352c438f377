"""Release gate: end-to-end checks at full scale.

Each test pins one acceptance criterion at the scales the package is
meant for: the full studies (200 replicates of n = 10,000 each; the
censoring test runs one per cutoff), the five-target calibration
command, and the censored fractions at n = 100,000 that justify the
censoring test's two cutoffs. A property of one estimator, weight or
generator step is checked once, in its unit suite. The file takes
seconds rather than milliseconds, dominated by the studies.

Everything here is deterministic: one frozen master seed drives the
Monte Carlo runs, and the calibration oracle is exact.
"""

import csv
import dataclasses
import io
from contextlib import redirect_stdout

import numpy.testing as npt

from recurweight.calibrate import CALIBRATION_TABLE, lookup_calibration
from recurweight.cli import main
from recurweight.harness import run_simulation
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream

SEED = 20250801
REPS = 200
N = 10_000


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def read_rows(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_calibration_reproduces_reference_table(tmp_path):
    # full-scale solve through the command line, checked against the
    # constants shipped in CALIBRATION_TABLE
    out = tmp_path / "table.csv"
    code, _ = run_cli(
        ["calibrate", "--targets", "1,1.5,2,2.5,3",
         "--oracle-n", "1000000", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == len(CALIBRATION_TABLE) == 5
    for row, ref in zip(rows, CALIBRATION_TABLE):
        got_c = float(row["beta_c"])
        got_m2 = float(row["beta_m2"])
        assert abs(got_c - ref.beta_c) <= 0.01, (
            f"beta_c for target hr {row['hr1']}: {got_c} vs {ref.beta_c}"
        )
        assert abs(got_m2 - ref.beta_m2) <= 0.01, (
            f"beta_m2 for target hr {row['hr1']}: {got_m2} vs {ref.beta_m2}"
        )


def test_shared_frailty_bias_negligible():
    # scenario 2, 50% prevalence, conditional hr 2: the stabilized
    # weights must leave essentially no bias in the second gap time
    truth = lookup_calibration(2.0)
    cfg = config_for(2, prevalence=0.5, n_subjects=N, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, REPS, SEED)
    assert abs(row2.bias_pct) <= 1.5, f"event-2 bias {row2.bias_pct:+.3f}%"


def test_se_ratios_in_confounded_regime():
    # scenario 3, 50% prevalence, true event-2 hr 1.4263: the naive SE
    # must badly understate the spread while the robust SE tracks it
    truth = lookup_calibration(2.0)
    cfg = config_for(3, prevalence=0.5, n_subjects=N, beta_c=truth.beta_c)
    _, row2 = run_simulation(cfg, truth, REPS, SEED)
    npt.assert_allclose(row2.true_hr, 1.4263, atol=5e-5)
    assert row2.ase / row2.ese < 0.55, (
        f"ase/ese = {row2.ase / row2.ese:.3f} (ase {row2.ase:.4f}, ese {row2.ese:.4f})"
    )
    assert 0.8 <= row2.rse / row2.ese <= 1.2, (
        f"rse/ese = {row2.rse / row2.ese:.3f} (rse {row2.rse:.4f}, ese {row2.ese:.4f})"
    )


def test_censoring_bias_grows_as_tau_shrinks():
    # scenario 3, 25% prevalence, true event-2 log hr 0.2085: heavy
    # administrative censoring inflates the event-2 estimate, and the
    # inflation is worse at the shorter cutoff
    truth = lookup_calibration(1.5)
    bias = {}
    for tau in (0.25, 1.0):
        cfg = config_for(
            3, prevalence=0.25, n_subjects=N, beta_c=truth.beta_c, tau=tau
        )
        _, row2 = run_simulation(cfg, truth, REPS, SEED)
        assert row2.n_failed == 0
        bias[tau] = row2.bias_pct
    assert 30.0 <= bias[0.25] <= 55.0, f"bias at tau=0.25: {bias[0.25]:+.2f}%"
    assert bias[1.0] < bias[0.25], (
        f"bias at tau=1 ({bias[1.0]:+.2f}%) not below tau=0.25 ({bias[0.25]:+.2f}%)"
    )


def test_censoring_fractions():
    # the two cutoffs were chosen to censor roughly a third of first
    # events (tau=1) and most second events (tau=0.25)
    truth = lookup_calibration(1.5)
    cfg = config_for(3, prevalence=0.25, n_subjects=100_000,
                     beta_c=truth.beta_c, tau=1.0)
    ds = gen_dataset(cfg, RngStream(SEED, 0))
    frac1 = 1.0 - ds["delta1"].mean()
    assert 0.25 < frac1 < 0.35, f"frac(delta1=0) = {frac1:.4f} at tau=1"

    cfg = dataclasses.replace(cfg, tau=0.25)
    ds = gen_dataset(cfg, RngStream(SEED, 0))
    frac2 = 1.0 - ds["delta2"].mean()
    assert 0.85 < frac2 < 0.95, f"frac(delta2=0) = {frac2:.4f} at tau=0.25"


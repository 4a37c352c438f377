"""Calibration tests.

The oracle is exact, so every check runs at full precision in
milliseconds; the census cross-check draws a finite potential-outcome
population and fits it, which is what the exact value is the limit of.
The reference oracle below is the plain form: exp on every lane of the
full rate-by-time matrix and both arms recomputed on every call. The
library takes the time grid in column tiles, skips the tiles and lanes
whose exp is 0, computes the control arm once per covariate law and
makes one tile of work arrays per call; every comparison with the
reference is exact equality, also in child processes on other
OpenBLAS kernel sets and from two threads at once.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recurweight import calibrate, coxfit, simgen
from recurweight.calibrate import (
    CALIBRATION_TABLE,
    CalibrationEntry,
    _bisect,
    calibrate_beta_c,
    lookup_calibration,
    marginal_hr_oracle,
)
from recurweight.coxfit import SurvivalSample, fit_weighted_cox
from recurweight.simgen import (
    BASELINE_RATE,
    BETA1,
    DRIFT_SD,
    Scenario,
    ScenarioConfig,
    gen_potential_outcomes,
)
from recurweight.statcore import RngStream

LN2 = float(np.log(2.0))


def reference_survival_terms(times, rates, weights):
    u = np.outer(rates, times)
    e = np.exp(-np.minimum(u, 750.0))
    return weights @ e, weights @ (u * e)


def reference_rates(event, scenario=calibrate.ORACLE_SCENARIO):
    sd = 1.0
    if Scenario(scenario) is not Scenario.IndependentGaps and event == 2:
        sd = np.sqrt(1.0 + DRIFT_SD**2)
    nodes = calibrate._quadrature()[0]
    return BASELINE_RATE * np.exp(BETA1 * sd * nodes)


@np.errstate(all="ignore")
def reference_oracle(beta_c, event, scenario=calibrate.ORACLE_SCENARIO):
    _, weights, times, step = calibrate._quadrature()
    rates = reference_rates(event, scenario)
    s0, tf0 = reference_survival_terms(times, rates, weights)
    s1, tf1 = reference_survival_terms(times * np.exp(beta_c), rates, weights)
    mass = s0 + s1 > 0
    s0, tf0, s1, tf1 = s0[mass], tf0[mass], s1[mass], tf1[mass]

    def negative_score(beta):
        eb = np.exp(beta)
        return -(step * np.sum((tf1 * s0 - eb * tf0 * s1) / (s0 + eb * s1)))

    lo, hi = min(0.0, beta_c) - 0.5, max(0.0, beta_c) + 0.5
    beta, _ = _bisect(negative_score, lo, hi, calibrate._SCORE_TOLERANCE)
    return float(beta)


def test_bisect_linear_root():
    root, res = _bisect(lambda x: x - 0.3, 0.0, 1.0, 1e-6)
    assert abs(root - 0.3) < 1e-5
    assert abs(res) <= 1e-6


def test_bisect_bracket_failure():
    with pytest.raises(ValueError):
        _bisect(lambda x: x - 5.0, 0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        _bisect(lambda x: x + 5.0, 0.0, 1.0, 1e-6)


def test_bisect_unreachable_tolerance():
    step = lambda x: 1.0 if x > 0 else -1.0
    with pytest.raises(RuntimeError, match="root search exhausted"):
        _bisect(step, -1.0, 1.0, 0.5)


def test_entry_validation():
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 0.5, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.0, 0.1, 0.0, 0.0, 0.005)
    with pytest.raises(ValueError):
        CalibrationEntry(0.4, 0.46, 0.2, 0.4, -1.0)


def test_published_table_shape_and_order():
    assert len(CALIBRATION_TABLE) == 5
    betas_c = [e.beta_c for e in CALIBRATION_TABLE]
    assert betas_c == sorted(betas_c)
    for entry in CALIBRATION_TABLE:
        assert 0.0 <= entry.beta_m1 <= entry.beta_c
        assert 0.0 <= entry.beta_m2 <= entry.beta_m1


def test_lookup():
    assert lookup_calibration(1.5).beta_c == pytest.approx(0.4599)
    assert lookup_calibration(3.0).beta_m2 == pytest.approx(0.5616)
    assert lookup_calibration(1.7) is None


def test_oracle_validation():
    with pytest.raises(ValueError):
        marginal_hr_oracle(0.5, 3)
    with pytest.raises(ValueError):
        marginal_hr_oracle(0.5, 1, scenario=4)
    with pytest.raises(ValueError):
        calibrate_beta_c(-0.1)


@pytest.mark.parametrize("beta_c, message", [
    (float("nan"), "no log-time grid point carries mass"),
    (float("inf"), "score is not finite"),
    (1e3, "score is not finite"),
])
def test_oracle_raises_instead_of_returning_nan(beta_c, message):
    with pytest.raises(ValueError, match=message):
        marginal_hr_oracle(beta_c, 1)


@pytest.mark.parametrize("beta_c, event", [(30.05, 1), (35.5, 1), (50.0, 1), (48.5, 2)])
def test_oracle_refuses_beta_c_beyond_its_domain(beta_c, event):
    # past the bound the grid no longer resolves the root; unchecked,
    # the last three returned 36.0, -0.5 and 49.0, their bracket ends
    with pytest.raises(ValueError, match="outside the oracle's domain"):
        marginal_hr_oracle(beta_c, event)


@pytest.mark.parametrize("event", [1, 2])
def test_oracle_mirrors_its_positive_half_on_the_negative_half(event):
    # with half the cohort treated, swapping the arms maps beta_c to
    # -beta_c; from -2.25 down, grid points with S0 = 0 and an e^beta S1
    # that underflows must add 0 to the score, not 0/0
    for beta_c in -np.arange(1, 121) / 4:
        got = marginal_hr_oracle(beta_c, event)
        assert got == pytest.approx(-marginal_hr_oracle(-beta_c, event), abs=2e-7), beta_c


@pytest.mark.parametrize("scenario", [1, 3])
@pytest.mark.parametrize("event", [1, 2])
@pytest.mark.parametrize("beta_c", [0.0, 0.4599, 0.783, 1.2331, -1.0, 30.0])
def test_oracle_equals_the_plain_form(beta_c, event, scenario):
    got = marginal_hr_oracle(beta_c, event, scenario)
    assert got == reference_oracle(beta_c, event, scenario)


@pytest.mark.parametrize("beta_c", [0.0, 0.783, 30.0, 1e3, float("inf"), float("nan")])
def test_survival_terms_equal_the_plain_form(beta_c):
    # from 1e3 on the treated lanes overflow or are nan, and the nan
    # ones must still reach exp
    _, weights, times, _ = calibrate._quadrature()
    rates = reference_rates(1)
    with np.errstate(all="ignore"):
        treated = times * np.exp(beta_c)
        got = calibrate._survival_terms(treated, rates, weights)
        want = reference_survival_terms(treated, rates, weights)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_survival_terms_equal_the_plain_form_lane_by_lane():
    # one node of weight 1, so each result is a single lane: across the
    # range where exp underflows, at the cap and past it
    u = np.array([0.0, 1.0, 700.0, 708.5, 745.0, 745.13, 745.2, 746.0, 750.0,
                  1e308, np.inf, np.nan])
    one = np.ones(1)
    with np.errstate(all="ignore"):
        got = calibrate._survival_terms(u, one, one)
        want = reference_survival_terms(u, one, one)
    assert want[0][4] > 0.0  # exp(-745) is the smallest subnormal
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_survival_terms_results_survive_later_calls():
    # what one call returns must survive a call at another beta_c and a
    # call on another shape
    _, weights, times, _ = calibrate._quadrature()
    rates = reference_rates(1)
    got = calibrate._survival_terms(times * np.exp(0.4), rates, weights)
    kept = [a.tobytes() for a in got]
    calibrate._survival_terms(times * np.exp(1.2), rates, weights)
    one = np.ones(1)
    calibrate._survival_terms(np.linspace(0.5, 800.0, 12), one, one)
    assert [a.tobytes() for a in got] == kept


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_survival_terms_with_the_cap_crossing_on_a_tile_boundary(order, monkeypatch):
    # the smallest rate reaches the cap exactly at column 512, the start
    # of the third 256-column tile: the tile before the crossing still
    # has a live lane at its edge, and the tiles past it are skipped whole
    _, weights, _, _ = calibrate._quadrature()
    rates = reference_rates(1)
    low, cap, width = rates.min(), calibrate._EXP_ARG_CAP, calibrate._TILE_COLUMNS
    crossing = cap / low
    while low * crossing < cap:
        crossing = np.nextafter(crossing, np.inf)
    while low * np.nextafter(crossing, 0.0) >= cap:
        crossing = np.nextafter(crossing, 0.0)
    below = np.geomspace(1e-3, np.nextafter(crossing, 0.0), 2 * width)
    above = np.geomspace(crossing, 1e3 * crossing, 2 * width)
    below[-1], above[0] = np.nextafter(crossing, 0.0), crossing
    times = np.concatenate([below, above])
    assert low * times[2 * width - 1] < cap <= low * times[2 * width]
    if order == "descending":
        times = times[::-1].copy()
    # one exp call per evaluated tile: the two tiles below the crossing
    exps = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            exps.append(args[0].shape)
            return np.exp(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(calibrate, "np", CountingNumpy())
        got = calibrate._survival_terms(times, rates, weights)
    assert exps == [(len(rates), width)] * 2
    want = reference_survival_terms(times, rates, weights)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_survival_terms_keep_nan_where_a_tile_past_the_cap_overflows():
    # at beta_c 658.2 every lane is past the cap, and the largest rate's
    # products overflow to inf in the last 6 columns: that tile must
    # still reach the product, where inf * 0 leaves t f(t) nan
    _, weights, times, _ = calibrate._quadrature()
    rates = reference_rates(1)
    with np.errstate(all="ignore"):
        treated = times * np.exp(658.2)
        u = np.outer(rates, treated)
        got = calibrate._survival_terms(treated, rates, weights)
        want = reference_survival_terms(treated, rates, weights)
    assert (u >= calibrate._EXP_ARG_CAP).all()
    overflow = np.isinf(u).any(axis=0)
    assert np.flatnonzero(overflow).tolist() == list(range(1994, 2000))
    assert np.isinf(u[rates.argmax()]).sum() == np.isinf(u).sum()
    assert np.isnan(got[1][overflow]).all()
    assert (got[1][~overflow] == 0.0).all() and (got[0] == 0.0).all()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


# compares the tiled survival sums with the full-matrix form, byte for
# byte, for both covariate laws; prints the OpenBLAS kernel set it ran
# on, then one line per mismatch
KERNEL_CHILD = """
import numpy as np
from conftest import openblas_corename
from recurweight import calibrate
print(openblas_corename())
_, weights, times, _ = calibrate._quadrature()
for sd in (1.0, float(np.sqrt(1.0 + calibrate.DRIFT_SD**2))):
    rates = calibrate._control_arm(sd)[0]
    for beta_c in np.linspace(-1.5, 2.5, 17).tolist() + [30.0, 658.2, 1e3]:
        with np.errstate(all="ignore"):
            treated = times * np.exp(beta_c)
            got = calibrate._survival_terms(treated, rates, weights)
            u = np.outer(rates, treated)
            e = np.exp(-np.minimum(u, 750.0))
            want = weights @ e, weights @ (u * e)
        for name, a, b in zip(("s", "tf"), got, want):
            if a.tobytes() != b.tobytes():
                print(f"sd={sd} beta_c={beta_c} {name}")
"""


@pytest.mark.parametrize("core", ["SkylakeX", "Haswell", "Nehalem"])
def test_survival_terms_equal_the_plain_form_on_each_openblas_kernel(core):
    # OpenBLAS rounds the node sums by its kernel set, and a tile has the
    # full product's bits only when its width is a multiple of 16: a
    # child forced onto each kernel set compares the two forms itself
    paths = [Path(calibrate.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    out = subprocess.run([sys.executable, "-c", KERNEL_CHILD], env=env,
                         capture_output=True, text=True, check=True).stdout
    ran_on, *mismatches = out.splitlines()
    assert mismatches == [], f"asked for {core}, ran on {ran_on}"


def test_warm_oracle_calls_fault_in_less_than_one_tile():
    # each call makes its three 80 x 256 work arrays (0.35 MB, 85 pages
    # of 4 KiB) and frees them; the allocator hands the same memory to
    # the next call, so 20 warm calls fault in fewer pages than one
    # tile's worth (0 measured)
    resource = pytest.importorskip("resource")
    tile_bytes = len(reference_rates(1)) * calibrate._TILE_COLUMNS * (8 + 1 + 8)
    tile_pages = -(-tile_bytes // resource.getpagesize())
    marginal_hr_oracle(0.7, 1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        marginal_hr_oracle(0.7, 1)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < tile_pages


def test_shared_arrays_are_read_only():
    # every solve shares the quadrature and the control arm, so a write
    # into one of them would corrupt every later solve
    nodes, weights, times, _ = calibrate._quadrature()
    rates, s0, tf0 = calibrate._control_arm(1.0)
    for a in (nodes, weights, times, rates, s0, tf0):
        with pytest.raises(ValueError, match="read-only"):
            a *= 1.0


def test_shipped_hermite_rule_equals_hermegauss():
    # the rule is a table so that a solve runs no eigensolver; it must
    # stay the rule numpy computes, bit for bit
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(80)
    half_nodes, half_weights = np.array(calibrate._HERMITE_HALF).T
    assert half_nodes.tobytes() == nodes[40:].tobytes()
    assert half_weights.tobytes() == weights[40:].tobytes()
    got_nodes, got_weights, _, _ = calibrate._quadrature()
    assert got_nodes.tobytes() == nodes.tobytes()
    assert got_weights.tobytes() == (weights / weights.sum()).tobytes()


def test_hermite_rule_is_exactly_symmetric():
    nodes, weights, _, _ = calibrate._quadrature()
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("k", range(11))
def test_hermite_rule_reproduces_normal_moments(k):
    # E[X^(2k)] = (2k - 1)!! for X ~ N(0, 1), which an 80-node rule
    # integrates exactly up to degree 159
    nodes, weights, _, _ = calibrate._quadrature()
    moment = np.prod(np.arange(1, 2 * k, 2), dtype=float)
    assert np.sum(weights * nodes ** (2 * k)) == pytest.approx(moment, rel=1e-12)


def test_oracle_null():
    assert abs(marginal_hr_oracle(0.0, 1)) <= 1e-10
    assert abs(marginal_hr_oracle(0.0, 2)) <= 1e-10


def test_oracle_event1_published_points():
    got = marginal_hr_oracle(0.4599, 1)
    assert got == pytest.approx(0.4055, abs=5e-4)
    got = marginal_hr_oracle(0.7830, 1)
    assert got == pytest.approx(0.6931, abs=5e-4)


def test_oracle_event2_published_point():
    got = marginal_hr_oracle(1.2331, 2)
    assert got == pytest.approx(0.5616, abs=5e-4)


def test_oracle_drift_scenarios_agree_exactly():
    # potential outcomes ignore the assignment model, so scenarios 2
    # and 3 share one second-gap covariate law
    a = marginal_hr_oracle(0.78, 2, scenario=2)
    b = marginal_hr_oracle(0.78, 2, scenario=3)
    assert a == b


def test_oracle_no_drift_no_extra_attenuation():
    # scenario 1 reuses x1 for the second event, so both events share
    # one marginal effect
    m1 = marginal_hr_oracle(0.7830, 1, scenario=1)
    m2 = marginal_hr_oracle(0.7830, 2, scenario=1)
    assert m1 == m2


def test_null_target_short_circuit():
    entry = calibrate_beta_c(0.0)
    assert entry.beta_c == 0.0
    assert entry.beta_m2 == 0.0
    assert entry.achieved_beta_m1 == 0.0


def test_calibration_hits_target():
    entry = calibrate_beta_c(LN2)
    assert entry.tolerance == calibrate.SOLVE_TOLERANCE
    assert abs(entry.achieved_beta_m1 - LN2) <= calibrate.SOLVE_TOLERANCE
    assert entry.beta_c == pytest.approx(0.7830, abs=5e-4)
    assert entry.beta_m2 == pytest.approx(0.3551, abs=5e-4)
    assert 0.0 <= entry.beta_m2 <= entry.beta_m1 <= entry.beta_c


def test_exact_solve_reproduces_published_table():
    # the shipped constants are a rounded census solve; the exact
    # solve lands within 5e-4 of every one (4.3e-4 at most, measured)
    for hr, ref in zip((1.0, 1.5, 2.0, 2.5, 3.0), CALIBRATION_TABLE):
        entry = calibrate_beta_c(float(np.log(hr)))
        assert entry.beta_m1 == pytest.approx(ref.beta_m1, abs=5e-4)
        assert entry.beta_c == pytest.approx(ref.beta_c, abs=5e-4), hr
        assert entry.beta_m2 == pytest.approx(ref.beta_m2, abs=5e-4), hr


def test_target_whose_bracket_end_leaves_the_domain_still_solves():
    # log HR 24.75: the unclamped bracket end 2 * 24.75 + 0.5 = 50 lies
    # past the domain, where the oracle returned -0.5, and the solve
    # failed; the root, near beta_c 26.1, lies inside it
    entry = calibrate_beta_c(24.75)
    assert entry.beta_c <= calibrate.MAX_ABS_BETA_C
    assert abs(entry.achieved_beta_m1 - 24.75) <= calibrate.SOLVE_TOLERANCE


@pytest.mark.parametrize("target", [29.0, 31.0])
def test_target_beyond_the_oracle_reach_names_the_reachable_maximum(target):
    # the marginal effect at the domain bound is 28.4864; a target
    # between it and the bound left a bracket that did not straddle the
    # root, and one past the bound still reads as a domain error
    reach = marginal_hr_oracle(calibrate.MAX_ABS_BETA_C, 1)
    assert reach == pytest.approx(28.4864, abs=1e-4)
    with pytest.raises(ValueError, match="outside the oracle's domain") as info:
        calibrate_beta_c(target)
    assert f"at most {reach:.6g}" in str(info.value)
    assert "straddle" not in str(info.value)


def test_target_at_the_oracle_reach_solves_to_the_bound():
    reach = marginal_hr_oracle(calibrate.MAX_ABS_BETA_C, 1)
    entry = calibrate_beta_c(reach)
    assert entry.beta_c == calibrate.MAX_ABS_BETA_C
    assert entry.achieved_beta_m1 == reach


def test_oracle_and_solve_give_the_serial_bits_from_two_threads(two_threads):
    # nothing a call writes outlives it, so two threads at once get the
    # values of serial calls
    calls = [(beta_c, event) for event in (1, 2) for beta_c in np.arange(1, 31) / 10]
    targets = [0.4055, LN2, 1.0986]

    def work(step):
        values = [marginal_hr_oracle(beta_c, event) for beta_c, event in calls[::step]]
        entries = [calibrate_beta_c(target) for target in targets[::step]]
        return values[::step], entries[::step]

    serial = work(1)
    assert two_threads(work) == [serial, serial]


def test_shipped_entries_are_frozen():
    # lookup_calibration hands out the table's own entries, so a write
    # into one would change every later lookup and every run using it
    entry = lookup_calibration(2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.beta_c = 0.9
    assert lookup_calibration(2.0).beta_c == 0.7830


def test_calibration_deterministic():
    a = calibrate_beta_c(0.4055)
    b = calibrate_beta_c(0.4055)
    assert a == b


def test_calibration_monotone_in_target():
    low = calibrate_beta_c(0.4055)
    high = calibrate_beta_c(0.9163)
    assert low.beta_c < high.beta_c


# seed spread (sample SD) of the census log HR at beta_c 0.9 and
# 200,000 subjects, over census seeds 1-10: 2.16e-3 for event 1 and
# 4.56e-4 for event 2; the largest of those 10 deviations from the
# exact value was 1.6 and 2.1 SDs
CENSUS_N = 200_000
CENSUS_SEED_SPREAD = {1: 2.16e-3, 2: 4.56e-4}


@pytest.mark.parametrize("event", [1, 2])
def test_census_oracle_matches_fresh_potential_outcomes(event):
    # the exact value is the limit of an unweighted Cox fit on both
    # forced arms of a growing census; a finite one must land within
    # 4 seed SDs of it
    beta_c, n = 0.9, CENSUS_N
    cfg = ScenarioConfig(Scenario.TVTreatmentCovariates, n_subjects=n, beta_c=beta_c)
    po = gen_potential_outcomes(cfg, RngStream(12345))
    sample = SurvivalSample(
        time=np.concatenate([po[f"w{event}_treated"], po[f"w{event}_control"]]),
        event=np.ones(2 * n),
        treatment=np.concatenate([np.ones(n), np.zeros(n)]),
        weight=np.ones(2 * n),
    )
    census = fit_weighted_cox(sample).log_hr
    exact = marginal_hr_oracle(beta_c, event)
    assert abs(census - exact) <= 4 * CENSUS_SEED_SPREAD[event]


def test_calibration_solve_is_a_few_evaluations(monkeypatch):
    # the solve evaluates through the module attribute, so a wrapper
    # installed there sees every call: f(lo), f(hi), a few secant
    # points, then the event-2 value; it draws no census and fits no
    # Cox model
    oracle_events, fits, draws = [], [], []
    real_oracle = calibrate.marginal_hr_oracle

    def counting_oracle(beta_c, event, *args, **kwargs):
        oracle_events.append(event)
        return real_oracle(beta_c, event, *args, **kwargs)

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit_weighted_cox(*args, **kwargs)

    def counting_census(*args, **kwargs):
        draws.append(args)
        return gen_potential_outcomes(*args, **kwargs)

    monkeypatch.setattr(calibrate, "marginal_hr_oracle", counting_oracle)
    for module in (calibrate, coxfit):
        monkeypatch.setattr(module, "fit_weighted_cox", counting_fit)
    for module in (calibrate, simgen):
        monkeypatch.setattr(module, "gen_potential_outcomes", counting_census)
    entry = calibrate_beta_c(LN2)
    assert abs(entry.achieved_beta_m1 - LN2) <= calibrate.SOLVE_TOLERANCE
    assert fits == [] and draws == []
    # 7 at this target: 6 on event 1, then the event-2 value
    assert 3 <= len(oracle_events) <= 8
    assert oracle_events == [1] * (len(oracle_events) - 1) + [2]


def test_calibration_solve_computes_the_control_arm_once_per_law(monkeypatch):
    # every oracle call evaluates its treated arm; the control arm is
    # evaluated once for event 1 and once for event 2
    calibrate._control_arm.cache_clear()
    grid = calibrate._quadrature()[2]
    arms, oracle_calls = [], []
    real_terms = calibrate._survival_terms
    real_oracle = calibrate.marginal_hr_oracle

    def counting_terms(times, rates, weights):
        arms.append("control" if times is grid else "treated")
        return real_terms(times, rates, weights)

    def counting_oracle(*args, **kwargs):
        oracle_calls.append(args)
        return real_oracle(*args, **kwargs)

    monkeypatch.setattr(calibrate, "_survival_terms", counting_terms)
    monkeypatch.setattr(calibrate, "marginal_hr_oracle", counting_oracle)
    calibrate_beta_c(LN2)
    assert arms.count("treated") == len(oracle_calls) == 7
    assert arms.count("control") == 2
    # keyed on the covariate's sd alone: one entry per law
    assert calibrate._control_arm.cache_info().currsize == 2


def test_secant_beats_bisection_on_a_smooth_root():
    evaluations = []

    def f(x):
        evaluations.append(x)
        return np.expm1(x) - 1.0  # root at log 2, convex

    root, res = _bisect(f, 0.0, 3.0, 1e-10)
    assert abs(res) <= 1e-10
    assert root == pytest.approx(np.log(2.0), abs=1e-9)
    # plain bisection needs about 35 halvings of [0, 3] for this tolerance
    assert len(evaluations) <= 15


def test_secant_returns_upper_end_inside_tolerance():
    assert _bisect(lambda x: x - 1.0, 0.0, 1.0, 1e-9) == (1.0, 0.0)

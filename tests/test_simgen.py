"""Generator tests: distributional checks against known closed forms,
draw-order alignment across scenarios, censoring-indicator logic, and
the generator's pinned bytes, draw order and peak memory."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from recurweight import simgen
from recurweight.simgen import (
    ALPHA0_BY_PREVALENCE,
    ALPHA1,
    BASELINE_RATE,
    BETA1,
    DATASET_CSV_HEADER,
    DRIFT_SD,
    GAMMA0_BY_PREVALENCE,
    GAMMA1,
    GAMMA2,
    SUBJECT_DTYPE,
    Scenario,
    ScenarioConfig,
    config_for,
    gen_blocks,
    gen_dataset,
    gen_gap_time,
    gen_potential_outcomes,
    write_dataset_csv,
)
from recurweight.statcore import RngStream, expit, redraw_zeros


def test_gap_time_unit():
    assert gen_gap_time(math.exp(-1.0), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_gap_time_hazard_doubling():
    assert gen_gap_time(math.exp(-1.0), math.log(2.0)) == pytest.approx(
        0.5, abs=1e-15
    )


def test_gap_time_exponential_mean():
    u = RngStream(404).random(1_000_000)
    times = gen_gap_time(u, 0.0)
    assert 0.997 < times.mean() < 1.003


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_subjects=1)
    # a float or string count would fail later inside np.empty, a
    # TypeError that aborts a study instead of flagging a replicate
    for n in (1e4, 2.5, "10"):
        with pytest.raises(ValueError, match=f"n_subjects must be an integer, got {n!r}"):
            ScenarioConfig(n_subjects=n)
    with pytest.raises(ValueError, match=r"n_subjects must be an integer, got 10000\.0"):
        config_for(1, 0.25, 1e4)
    assert ScenarioConfig(n_subjects=np.int64(30)).n_subjects == 30
    for tau in (-0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau"):
            ScenarioConfig(tau=tau)
    # a non-finite effect would give nan gap times, which fail later and
    # far from their cause
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="beta_c must be finite"):
            ScenarioConfig(beta_c=value)
    # a prevalence without solved intercepts has no treatment model
    assert sorted(ALPHA0_BY_PREVALENCE) == sorted(GAMMA0_BY_PREVALENCE) == [0.25, 0.5]
    for prevalence in sorted(ALPHA0_BY_PREVALENCE):
        assert config_for(1, prevalence).prevalence == prevalence
    for prevalence in (0.3, 0.0, 1.0, float("nan"), "0.5"):
        with pytest.raises(ValueError, match=r"prevalence must be one of \[0\.25, 0\.5\]"):
            config_for(1, prevalence=prevalence)


def test_scenario_coercion():
    assert ScenarioConfig(scenario=3).scenario is Scenario.TVTreatmentCovariates
    with pytest.raises(ValueError):
        ScenarioConfig(scenario=4)


def test_treatment_prevalence_25():
    ds = gen_dataset(config_for(1, 0.25, 100_000), RngStream(11))
    assert 0.24 < ds["z1"].mean() < 0.26


def test_treatment_prevalence_50():
    ds = gen_dataset(config_for(1, 0.5, 100_000), RngStream(12))
    assert 0.49 < ds["z1"].mean() < 0.51


def test_covariate_drift_correlation():
    # corr(x1, x1 + v) = 1/sqrt(1 + 16) ~ 0.2425
    ds = gen_dataset(config_for(3, 0.25, 100_000), RngStream(13))
    r = np.corrcoef(ds["x1"], ds["x2"])[0, 1]
    assert 0.23 < r < 0.255


def test_null_gaps_are_unit_exponential():
    # without an effect a gap's hazard is BASELINE_RATE exp(BETA1 x), so the
    # gap scaled by it is a unit exponential
    cfg = ScenarioConfig(scenario=1, n_subjects=20_000, beta_c=0.0)
    ds = gen_dataset(cfg, RngStream(14))
    for w, x in (("w1", "x1"), ("w2", "x2")):
        p = stats.kstest(ds[w] * BASELINE_RATE * np.exp(BETA1 * ds[x]), "expon").pvalue
        assert p > 0.001, f"{w} KS p={p}"


def test_first_event_identical_across_scenarios():
    draws = []
    for s in (1, 2, 3):
        ds = gen_dataset(config_for(s, 0.25, 5_000, beta_c=0.7), RngStream(15))
        draws.append(ds)
    for other in draws[1:]:
        for col in ("x1", "z1", "w1"):
            assert np.array_equal(draws[0][col], other[col])
    # drift is shared between scenarios 2 and 3; only z2 (and so w2) differs
    assert np.array_equal(draws[1]["x2"], draws[2]["x2"])
    assert np.array_equal(draws[0]["x2"], draws[0]["x1"])
    assert np.array_equal(draws[0]["z2"], draws[0]["z1"])
    assert np.array_equal(draws[1]["z2"], draws[1]["z1"])


def test_scenario3_second_treatment_varies():
    ds = gen_dataset(config_for(3, 0.25, 5_000), RngStream(16))
    assert np.any(ds["z2"] != ds["z1"])


def test_regeneration_is_bit_identical():
    cfg = config_for(3, 0.25, 2_000, beta_c=0.46, tau=1.0)
    a = gen_dataset(cfg, RngStream(17))
    b = gen_dataset(cfg, RngStream(17))
    assert np.array_equal(a, b)


def test_censoring_indicators_match_tau():
    cfg = config_for(3, 0.25, 5_000, beta_c=0.46, tau=0.8)
    ds = gen_dataset(cfg, RngStream(18))
    assert np.array_equal(ds["delta1"], (ds["w1"] <= 0.8).astype(np.uint8))
    assert np.array_equal(
        ds["delta2"], ((ds["w1"] + ds["w2"]) <= 0.8).astype(np.uint8)
    )
    assert np.all(ds["delta2"] <= ds["delta1"])
    assert 0 < ds["delta1"].mean() < 1  # tau actually censors someone


def test_no_tau_means_everything_observed():
    ds = gen_dataset(config_for(2, 0.25, 1_000), RngStream(19))
    assert np.all(ds["delta1"] == 1)
    assert np.all(ds["delta2"] == 1)


def test_larger_tau_never_decreases_indicators():
    small = gen_dataset(config_for(3, 0.25, 5_000, tau=0.25), RngStream(20))
    large = gen_dataset(config_for(3, 0.25, 5_000, tau=1.0), RngStream(20))
    assert np.all(small["delta1"] <= large["delta1"])
    assert np.all(small["delta2"] <= large["delta2"])
    # latent gap values are untouched by tau
    assert np.array_equal(small["w1"], large["w1"])
    assert np.array_equal(small["w2"], large["w2"])


def test_potential_outcomes_null_effect():
    cfg = config_for(3, 0.25, 2_000, beta_c=0.0)
    po = gen_potential_outcomes(cfg, RngStream(21))
    assert np.array_equal(po["w1_treated"], po["w1_control"])
    assert np.array_equal(po["w2_treated"], po["w2_control"])


def test_potential_outcomes_monotone_in_effect():
    cfg = config_for(3, 0.25, 2_000, beta_c=0.8)
    po = gen_potential_outcomes(cfg, RngStream(22))
    assert np.all(po["w1_treated"] < po["w1_control"])
    assert np.all(po["w2_treated"] < po["w2_control"])


@pytest.mark.parametrize("event", [1, 2])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_potential_outcomes_share_the_cohort_draws(scenario, event):
    # same stream: both generators run one draw stage, so the potential
    # outcome of the arm a subject was assigned is its cohort gap time
    cfg = non_default_config(scenario, 3_000)
    ds = gen_dataset(cfg, RngStream(23))
    po = gen_potential_outcomes(cfg, RngStream(23))
    w, z = f"w{event}", f"z{event}"
    factual = np.where(ds[z] == 1, po[f"{w}_treated"], po[f"{w}_control"])
    assert np.array_equal(ds[w], factual)
    for x in ("x1", "x2"):
        assert np.array_equal(po[x], ds[x])


def test_csv_roundtrip(tmp_path, monkeypatch):
    # 50 rows are one past a boundary of 7-row chunks
    monkeypatch.setattr(simgen, "CSV_CHUNK_ROWS", 7)
    cfg = config_for(3, 0.25, 50, beta_c=0.46, tau=1.0)
    ds = gen_dataset(cfg, RngStream(24))
    path = tmp_path / "cohort.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_dataset_csv((ds,), fh)
    lines = path.read_text().splitlines()
    assert lines[0] == DATASET_CSV_HEADER
    # the row-by-row layout the column-wise writer must reproduce
    assert lines[1:] == [
        f"{float(r['x1'])!r},{float(r['x2'])!r},{int(r['z1'])},{int(r['z2'])},"
        f"{float(r['w1'])!r},{float(r['w2'])!r},{int(r['delta1'])},{int(r['delta2'])}"
        for r in ds
    ]
    back = np.genfromtxt(path, delimiter=",", names=True)
    for col in ("x1", "x2", "w1", "w2"):
        assert np.array_equal(back[col], ds[col])
    for col in ("z1", "z2", "delta1", "delta2"):
        assert np.array_equal(back[col].astype(np.uint8), ds[col])


# sha256 of gen_dataset(...).tobytes() for a config away from the defaults
# the writer digests use: 50% prevalence, a nonzero effect and censoring at
# tau = 0.5; one per numpy dispatch target of log and exp (see conftest)
NON_DEFAULT_DIGESTS = {
    1: {
        "X86_V4": "84c4467128d80d4afad4cdccfaa7d432c27d8d2ddef9da74d67a1d6f92243c5a",
        "X86_V3": "a062af358573dccb362eb028243d3be161aeacecfa7ab75fe12a0d53e1a0449a",
    },
    2: {
        "X86_V4": "357bc07e73e0cb37a792e8db215b687745af90672336ec912256b2ac29c6de6f",
        "X86_V3": "e8718cf27d99b9e1b8df012fe1255bcb345a3e3572a0cd12ed2ef25df08fb728",
    },
    3: {
        "X86_V4": "187a3946352ffdcc82bb9f4cfc36170cd5acb3d82b5fd3d7d905ce0f24f7bf43",
        "X86_V3": "8278ace7c79cd22d1e92ecf5cccf4c6714d11b102a39b49d5fb57904251eec58",
    },
}

# the same configs at 40,000 subjects: three blocks of GEN_BLOCK_ROWS rows,
# the last one partial
MULTI_BLOCK_DIGESTS = {
    1: {
        "X86_V4": "3f00eff1bd792980f6670ff73618bbc5e50138b3f9e569ab220ecb8870761615",
        "X86_V3": "58f23e361065e992557eff617eb19ea0d59411e3a6816ccc0966b65dcfb3f434",
    },
    2: {
        "X86_V4": "d74f6cb867729b2be30bb2fe9291f192a57cc2eede2d1921b898937213c4fd61",
        "X86_V3": "0b87a218d06f35e91bf078ec55d6a26dba1134b0c40812b382880af8a70399f0",
    },
    3: {
        "X86_V4": "b884b8d88500b4bdeae9f19c090c3235824ddb40ce755d66427b9cea9a1ef228",
        "X86_V3": "456dee187a90c2ca56ba623c12de124d13c230c6e8ad75a501873a849d3f6b8a",
    },
}

# sha256 of gen_potential_outcomes(...).tobytes() for the 5,000-subject configs;
# the oracle ignores the gammas and tau, so scenarios 2 and 3 agree
POTENTIAL_OUTCOME_DIGESTS = {
    1: {
        "X86_V4": "92cae980aaca0894266e694ba7a9cd40a0ea5d577f11a9ce7931500476a2d4d2",
        "X86_V3": "bb98b20ae20adfef8159f9582495b03ec08e703e33741484fe42f0c88b4edcad",
    },
    2: {
        "X86_V4": "c890b6276f1d48f3297b6508868a5d69bcddc7ff1d790dae9fba2de9f7d273db",
        "X86_V3": "bb5bc82bb04cca0db69df681f07633797e9fd73fa73f9ddf64153537f9beb6b3",
    },
    3: {
        "X86_V4": "c890b6276f1d48f3297b6508868a5d69bcddc7ff1d790dae9fba2de9f7d273db",
        "X86_V3": "bb5bc82bb04cca0db69df681f07633797e9fd73fa73f9ddf64153537f9beb6b3",
    },
}


def non_default_config(scenario, n_subjects=5_000):
    return config_for(scenario, 0.5, n_subjects, beta_c=0.46, tau=0.5)


@pytest.mark.parametrize("scenario", sorted(NON_DEFAULT_DIGESTS))
def test_dataset_bytes_match_the_recorded_digest(scenario, pinned_digest):
    ds = gen_dataset(non_default_config(scenario), RngStream(2029, 7))
    assert hashlib.sha256(ds.tobytes()).hexdigest() == pinned_digest(
        NON_DEFAULT_DIGESTS[scenario])


@pytest.mark.parametrize("scenario", sorted(MULTI_BLOCK_DIGESTS))
def test_multi_block_dataset_bytes_match_the_recorded_digest(scenario, pinned_digest):
    assert 40_000 // simgen.GEN_BLOCK_ROWS == 2
    ds = gen_dataset(non_default_config(scenario, 40_000), RngStream(2029, 7))
    assert hashlib.sha256(ds.tobytes()).hexdigest() == pinned_digest(
        MULTI_BLOCK_DIGESTS[scenario])


@pytest.mark.parametrize("scenario", sorted(POTENTIAL_OUTCOME_DIGESTS))
def test_potential_outcome_bytes_match_the_recorded_digest(scenario, pinned_digest):
    po = gen_potential_outcomes(non_default_config(scenario), RngStream(2029, 7))
    assert hashlib.sha256(po.tobytes()).hexdigest() == pinned_digest(
        POTENTIAL_OUTCOME_DIGESTS[scenario])


# writes the tv-treatment cohort at seed 77 to stdout, after a line naming the
# dispatch target of log and exp
DISPATCH_CHILD = """
import sys
from numpy.lib.introspect import opt_func_info
from recurweight.simgen import config_for, gen_dataset
from recurweight.statcore import RngStream
info = opt_func_info(func_name="^(log|exp)$", signature="float64")
sys.stdout.write(" ".join(sorted({t["current"] for f in info.values() for t in f.values()})))
ds = gen_dataset(config_for(3, 0.25, 3000, 0.783, tau=0.5), RngStream(77))
sys.stdout.flush()
sys.stdout.buffer.write(b"\\n" + ds.tobytes())
"""


def test_cohort_agrees_across_numpy_dispatch_targets():
    # a child with numpy's X86_V4 kernels disabled runs log and exp on
    # X86_V3, whose last bits differ on some gap times: every other field
    # must agree exactly, and the gap times within 2 ulp
    introspect = pytest.importorskip("numpy.lib.introspect")
    info = introspect.opt_func_info(func_name="^(log|exp)$", signature="float64")
    if not all("X86_V4" in t["available"].split() for f in info.values() for t in f.values()):
        pytest.skip("numpy lists no X86_V4 kernels for log and exp")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4",
           "PYTHONPATH": str(Path(simgen.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", DISPATCH_CHILD], env=env,
                         capture_output=True, check=True).stdout
    target, _, raw = out.partition(b"\n")
    assert target == b"X86_V3"
    there = np.frombuffer(raw, dtype=SUBJECT_DTYPE)
    here = gen_dataset(config_for(3, 0.25, 3000, 0.783, tau=0.5), RngStream(77))
    for name in ("x1", "x2", "z1", "z2", "delta1", "delta2"):
        assert np.array_equal(there[name], here[name]), name
    for name in ("w1", "w2"):
        # positive finite doubles: the distance of their bit patterns is in ulp
        ulps = np.abs(there[name].view(np.int64) - here[name].view(np.int64))
        assert ulps.max() <= 2, name


@pytest.mark.parametrize("tau", [None, 0.5])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_dataset_peak_memory_stays_near_the_cohort(scenario, tau):
    # the cohort is 36 bytes per subject; on top of it generation holds one
    # block's temporaries, measured at 32.2-32.6 bytes per block row, and
    # no column-length array: 40 bytes per block row leave a 23% margin
    n = 200_000
    cfg = config_for(scenario, 0.25, n, beta_c=0.7, tau=tau)
    tracemalloc.start()
    try:
        ds = gen_dataset(cfg, RngStream(31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.nbytes == 36 * n
    extra = peak - ds.nbytes
    assert extra <= 40 * simgen.GEN_BLOCK_ROWS, f"{extra / simgen.GEN_BLOCK_ROWS:.1f} B per block row"


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_dataset_bytes_do_not_depend_on_the_block_size(scenario, monkeypatch):
    # 50 rows are one past a boundary of 7-row blocks
    cfg = non_default_config(scenario, 50)
    whole = gen_dataset(cfg, RngStream(45))
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 7)
    assert gen_dataset(cfg, RngStream(45)).tobytes() == whole.tobytes()


class ZeroingGenerator:
    """A stream whose uniforms at the given stream positions come back as
    exact zeros, position p being the p-th value `random` returns across
    all calls; everything else passes through. Placing zeros by
    position, not by call, keeps them where they are however a column is
    split into calls."""

    def __init__(self, stream, positions):
        self.stream = stream
        self.positions = np.asarray(positions, dtype=np.intp)
        self.calls = 0
        self.drawn = 0

    def random(self, size):
        u = self.stream.random(size)
        at = self.positions - self.drawn
        u[at[(at >= 0) & (at < size)]] = 0.0
        self.drawn += size
        self.calls += 1
        return u

    def __getattr__(self, name):
        return getattr(self.stream, name)


def test_draw_uniform_replaces_zeros_from_the_stream_in_order():
    # call 0 draws 10 values with zeros at 2 and 7; the redraw of those two
    # (call 1, positions 10 and 11) comes back with a zero in its second
    # place, so position 7 is drawn a third time (call 2)
    stream = ZeroingGenerator(RngStream(41), [2, 7, 11])
    u = redraw_zeros(stream, stream.random(10))
    assert stream.calls == 3
    assert np.all(u > 0.0)
    fresh = RngStream(41)
    expected = fresh.random(10)
    expected[2] = fresh.random(2)[0]
    expected[7] = fresh.random(1)[0]
    assert np.array_equal(u, expected)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_dataset_draw_order(scenario):
    # zeros in the treatment uniform (positions 0 to n - 1) and in u1
    # (from n + 2, after the two redraws) are redrawn at once, before the
    # next column is drawn
    n = 1_000
    cfg = non_default_config(scenario, n)
    stream = ZeroingGenerator(RngStream(43), [3, 5, n + 2 + 11])
    ds = gen_dataset(cfg, stream)

    fresh = RngStream(43)
    x1 = fresh.normal(0.0, 1.0, n)
    fresh.random(n)
    fresh.random(2)
    u1 = fresh.random(n)
    u1[11] = fresh.random(1)[0]
    u2 = fresh.random(n)
    if scenario != 1:
        v = fresh.normal(0.0, DRIFT_SD, n)
    if scenario == 3:
        fresh.random(n)
    assert stream.bit_generator.state == fresh.bit_generator.state

    # and each draw went to its own column
    assert np.array_equal(ds["x1"], x1)
    assert np.array_equal(ds["x2"], x1 if scenario == 1 else x1 + v)
    for w, x, z, u in (("w1", "x1", "z1", u1), ("w2", "x2", "z2", u2)):
        hazard = BASELINE_RATE * np.exp(cfg.beta_c * ds[z] + BETA1 * ds[x])
        assert np.allclose(np.exp(-ds[w] * hazard), u, rtol=1e-12, atol=0)


def stream_with_zero_at(k):
    """A real stream whose k-th uniform (counting from 0) is exactly 0.0.
    PCG64's XSL-RR output is the rotated xor of its 128-bit state's two
    halves, so a state with equal halves outputs 0, which random() maps
    to 0.0; the stream starts k + 1 steps before that state."""
    stream = RngStream(57)
    state = stream.bit_generator.state
    half = 0x243F_6A88_85A3_08D3
    state["state"]["state"] = (half << 64) | half
    stream.bit_generator.state = state
    stream.bit_generator.advance(2**128 - (k + 1))
    return stream


def column_draws(cfg, stream, zero=None):
    """The draw stage's columns in draw order: x1, the treatment uniform
    t1, u1, u2, then the drift v and the second treatment uniform t2 as
    the scenario has them. Without zero each is one whole-column draw.
    With zero = (column, row), that column is drawn up to the end of the
    row's block, the row's exact zero takes the next draw, and the rest
    of the column follows."""
    n, rows = cfg.n_subjects, simgen.GEN_BLOCK_ROWS

    def uniform(name):
        if zero is None or zero[0] != name:
            return stream.random(n)
        row = zero[1]
        end = min(n, (row // rows + 1) * rows)
        u = stream.random(end)
        assert u[row] == 0.0
        u[row] = stream.random()
        return np.append(u, stream.random(n - end))

    draws = {"x1": stream.normal(0.0, 1.0, n)}
    for name in ("t1", "u1", "u2"):
        draws[name] = uniform(name)
    if cfg.scenario != 1:
        draws["v"] = stream.normal(0.0, DRIFT_SD, n)
    if cfg.scenario == 3:
        draws["t2"] = uniform("t2")
    return draws


def zero_draw_index(cfg, column, row):
    """The k for which stream_with_zero_at(k) draws its zero at `row` of
    the uniform `column`. k starts at the count of values drawn before
    that row; a ziggurat normal now and then takes an extra draw, so
    later k are tried until a whole-column replay puts the zero there."""
    names = list(column_draws(cfg, RngStream(0)))
    first = names.index(column) * cfg.n_subjects + row
    for k in range(first, first + 64):
        draws = column_draws(cfg, stream_with_zero_at(k))
        if np.flatnonzero(draws[column] == 0.0).tolist() == [row]:
            return k
    raise AssertionError(f"no stream puts the zero at {column}[{row}]")


def expected_cohort(cfg, draws):
    """The cohort the formulas give from the draw stage's columns."""
    x1 = draws["x1"]
    x2 = x1 + draws["v"] if "v" in draws else x1
    alpha0 = ALPHA0_BY_PREVALENCE[cfg.prevalence]
    gamma0 = GAMMA0_BY_PREVALENCE[cfg.prevalence]
    z1 = (draws["t1"] < expit(alpha0 + ALPHA1 * x1)).astype(np.uint8)
    z2 = z1
    if "t2" in draws:
        z2 = (draws["t2"] < expit(gamma0 + GAMMA1 * x2 + GAMMA2 * z1)).astype(np.uint8)
    w1 = gen_gap_time(draws["u1"], BETA1 * x1 + cfg.beta_c * z1)
    w2 = gen_gap_time(draws["u2"], BETA1 * x2 + cfg.beta_c * z2)
    return {"x1": x1, "x2": x2, "z1": z1, "z2": z2, "w1": w1, "w2": w2,
            "delta1": w1 <= cfg.tau, "delta2": w1 + w2 <= cfg.tau}


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_dataset_draw_order_across_blocks(scenario, monkeypatch):
    # 200 rows are three 64-row blocks and a partial one. A real stream
    # draws an exact zero in a later block: the treatment uniform's second
    # block (row 70) or u1's third (row 130). The zero takes the value
    # drawn right after its own block, before the column's next block
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 64)
    cfg = non_default_config(scenario, 200)
    for column, row in (("t1", 70), ("u1", 130)):
        k = zero_draw_index(cfg, column, row)
        stream, fresh = stream_with_zero_at(k), stream_with_zero_at(k)
        ds = gen_dataset(cfg, stream)
        expected = expected_cohort(cfg, column_draws(cfg, fresh, zero=(column, row)))
        for name in SUBJECT_DTYPE.names:
            assert np.array_equal(ds[name], expected[name]), (column, name)
        assert np.isfinite(ds["w1"]).all()
        assert stream.bit_generator.state == fresh.bit_generator.state


def streamed_bytes(cfg, stream):
    """The bytes of gen_blocks' blocks, in order, and their lengths."""
    chunks, lengths = [], []
    for block in gen_blocks(cfg, stream):
        chunks.append(block.tobytes())
        lengths.append(len(block))
    return b"".join(chunks), lengths


@pytest.mark.parametrize("tau", [None, 0.5])
@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_streamed_blocks_equal_the_cohort(scenario, tau):
    # 40,000 rows are three blocks, the last one partial; twice
    # GEN_BLOCK_ROWS rows are two full blocks and no partial one; 2 and
    # GEN_BLOCK_ROWS rows are one block each. Each column's blocks are
    # drawn again from the column's start state
    rows = simgen.GEN_BLOCK_ROWS
    for n, expected in ((40_000, [rows, rows, 40_000 - 2 * rows]), (2 * rows, [rows, rows]),
                        (2, [2]), (rows, [rows])):
        cfg = config_for(scenario, 0.5, n, beta_c=0.7, tau=tau)
        whole, stream = RngStream(52), RngStream(52)
        ds = gen_dataset(cfg, whole)
        data, lengths = streamed_bytes(cfg, stream)
        assert lengths == expected
        assert data == ds.tobytes(), n
        assert stream.bit_generator.state == whole.bit_generator.state


class StateCountingPCG64(np.random.PCG64):
    """A PCG64 whose state property counts its reads. A read names the
    plain PCG64, so a plain generator can be set to it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.reads = 0

    @property
    def state(self):
        self.reads += 1
        return {**np.random.PCG64.state.__get__(self), "bit_generator": "PCG64"}


@pytest.mark.parametrize("scenario, columns", [(1, 4), (2, 5), (3, 6)])
def test_only_the_streamed_cohort_reads_stream_states(scenario, columns):
    # gen_dataset and gen_potential_outcomes only draw; gen_blocks reads the
    # stream's state once per column, at the column's start, to replay it
    cfg = config_for(scenario, 0.5, 40_000, beta_c=0.7, tau=0.5)
    whole, outcomes, streamed = (StateCountingPCG64(54) for _ in range(3))
    ds = gen_dataset(cfg, np.random.Generator(whole))
    gen_potential_outcomes(cfg, np.random.Generator(outcomes))
    data, _ = streamed_bytes(cfg, np.random.Generator(streamed))
    assert (whole.reads, outcomes.reads, streamed.reads) == (0, 0, columns)
    assert data == ds.tobytes()
    assert streamed.state == whole.state == outcomes.state


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_streamed_cohort_holds_the_same_memory_at_any_length(scenario, monkeypatch):
    # after the first block, gen_blocks holds one block and a replay
    # generator per column, however many blocks the cohort has
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 64)
    held = []
    for n in (64 * 40, 64 * 4_000):
        cfg = non_default_config(scenario, n)
        tracemalloc.start()
        try:
            blocks = gen_blocks(cfg, RngStream(53))
            next(blocks)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        blocks.close()
    assert abs(held[1] - held[0]) <= 0.1 * held[0], (
        f"{held[0]} B at 64 x 40 rows, {held[1]} B at 64 x 4,000")


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_streamed_blocks_carry_the_zero_redraws(scenario, monkeypatch):
    # 200 rows are three 64-row blocks and a partial one. Each uniform
    # column draws an exact zero from a real stream, on its own stream, in
    # the first block (row 10) or in a later one (row 150). The column is
    # drawn again from its start state by a private generator, which must
    # meet the same zero and redraw it the same way
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 64)
    cfg = non_default_config(scenario, 200)
    uniforms = ["t1", "u1", "u2"] + (["t2"] if scenario == 3 else [])
    for column in uniforms:
        for row in (10, 150):
            k = zero_draw_index(cfg, column, row)
            whole, stream = stream_with_zero_at(k), stream_with_zero_at(k)
            ds = gen_dataset(cfg, whole)
            data, lengths = streamed_bytes(cfg, stream)
            assert lengths == [64, 64, 64, 8]
            assert data == ds.tobytes(), (column, row)
            assert stream.bit_generator.state == whole.bit_generator.state


def test_gap_time_matches_the_plain_form_and_leaves_u():
    u = RngStream(44).random(100)
    lp = np.linspace(-1.0, 1.0, 100)
    expected = -np.log(u) / (BASELINE_RATE * np.exp(lp))
    u_before, lp_before = u.copy(), lp.copy()
    times = gen_gap_time(u, lp)
    assert np.array_equal(times, expected)
    # neither argument is written
    assert np.array_equal(u, u_before)
    assert np.array_equal(lp, lp_before)

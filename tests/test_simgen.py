"""Generator tests: distributional checks against known closed forms,
draw-order alignment across scenarios, censoring-indicator logic, and
the generator's pinned bytes, draw order and peak memory."""

import dataclasses
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
    DATASET_CSV_HEADER,
    GAMMA0_BY_PREVALENCE,
    LN15,
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
    assert gen_gap_time(math.exp(-1.0), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_gap_time_hazard_doubling():
    assert gen_gap_time(math.exp(-1.0), math.log(2.0), 1.0) == pytest.approx(
        0.5, abs=1e-15
    )


def test_gap_time_exponential_mean():
    u = RngStream(404).random(1_000_000)
    times = gen_gap_time(u, 0.0, 1.0)
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
    with pytest.raises(ValueError):
        ScenarioConfig(baseline_rate=0.0)
    for sd in (-1.0, 0.0):
        with pytest.raises(ValueError, match="drift_sd"):
            ScenarioConfig(drift_sd=sd)
    for tau in (-0.5, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau"):
            ScenarioConfig(tau=tau)
    # a non-finite slope, intercept, effect, rate or drift would give nan
    # gap times, which fail later and far from their cause
    floats = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type is float]
    assert len(floats) == 9
    for name in floats:
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ScenarioConfig(**{name: value})
    with pytest.raises(ValueError):
        config_for(1, prevalence=0.3)


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
    cfg = ScenarioConfig(scenario=1, n_subjects=20_000, beta_c=0.0, beta1=0.0)
    ds = gen_dataset(cfg, RngStream(14))
    for col in ("w1", "w2"):
        p = stats.kstest(ds[col], "expon").pvalue
        assert p > 0.001, f"{col} KS p={p}"


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
        write_dataset_csv(ds, fh)
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
# the writer digests use: 50% prevalence, a baseline rate and drift sd
# other than 1 and 4, a nonzero effect and censoring at tau = 0.5; one per
# numpy dispatch target of log and exp (see conftest)
NON_DEFAULT_DIGESTS = {
    1: {
        "X86_V4": "1a56a0e2c6aec638f871b8410db1cefe9bd1aa2a77ddbe9208ba6a1274a94d89",
        "X86_V3": "8169bcb142e8d39a505261a5a7fd38d14da7fd0fb8057c542ce7bccc8ac5e46c",
    },
    2: {
        "X86_V4": "f49f24b73ae51de6a83eaaa25b124a4fc812fd9540d44992c427c0815927eb08",
        "X86_V3": "e5e8cf1956b7b067349ec9a3f92c43031cf342b0fd3ac0e2ff2abfe666b8c624",
    },
    3: {
        "X86_V4": "a7816bfb0afdb01de9f9b1c613ab45e63b1708d8213f3f77a1be381848f26d30",
        "X86_V3": "e6db04d0eec3f412b2848a0c49f7f9356193006cf3840c10a1d54f6c1490dd5e",
    },
}

# the same configs at 40,000 subjects: three blocks of GEN_BLOCK_ROWS rows,
# the last one partial
MULTI_BLOCK_DIGESTS = {
    1: {
        "X86_V4": "323b139836fdc9f709293cd3c34abe4d42adbe0ea358e8f630aa04ec80b3c20b",
        "X86_V3": "e3a7bc4b0563a1f63d110b77b867a5198adcde19e3c20899678dc41702600def",
    },
    2: {
        "X86_V4": "e8a0835158f7de5222aa5338c7eab0c23903b8e760abfcb976f916b36995282b",
        "X86_V3": "106c2e89e5a079a367bc124ddaf5e63a0fa65af0460b2706780a322e8478ac07",
    },
    3: {
        "X86_V4": "fee88296538a790884aa4340ea1da26122d0bf45acbb8a60abc971f8a37c0849",
        "X86_V3": "a7264094c028e47ceb5bd8fe664c5282055ab2e6c413f891494e3c119c27ce03",
    },
}

# sha256 of gen_potential_outcomes(...).tobytes() for the 5,000-subject configs;
# the oracle ignores the gammas and tau, so scenarios 2 and 3 agree
POTENTIAL_OUTCOME_DIGESTS = {
    1: {
        "X86_V4": "c0c613032f10e0f89ce5bab76d0b9f301dbf87023fa76e50b6b42c2fbca119e3",
        "X86_V3": "efff7b3f38bec880d41ca3cfe6ee66d1ef5fbeabcc68915b21e48076cd36e5c5",
    },
    2: {
        "X86_V4": "383b01e8d8d6d00035b21030245e32377b2695e689a5d66ff19892a2f1413bcd",
        "X86_V3": "c9a4f3be3a049efb5bd7f6c06550d57ef2779c4baec9b0043c76be7425649392",
    },
    3: {
        "X86_V4": "383b01e8d8d6d00035b21030245e32377b2695e689a5d66ff19892a2f1413bcd",
        "X86_V3": "c9a4f3be3a049efb5bd7f6c06550d57ef2779c4baec9b0043c76be7425649392",
    },
}


def non_default_config(scenario, n_subjects=5_000):
    return ScenarioConfig(
        scenario=scenario,
        n_subjects=n_subjects,
        alpha0=ALPHA0_BY_PREVALENCE[0.5],
        gamma0=GAMMA0_BY_PREVALENCE[0.5],
        beta_c=0.46,
        baseline_rate=2.5,
        drift_sd=2.0,
        tau=0.5,
    )


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
        v = fresh.normal(0.0, cfg.drift_sd, n)
    if scenario == 3:
        fresh.random(n)
    assert stream.bit_generator.state == fresh.bit_generator.state

    # and each draw went to its own column
    assert np.array_equal(ds["x1"], x1)
    assert np.array_equal(ds["x2"], x1 if scenario == 1 else x1 + v)
    for w, x, z, u in (("w1", "x1", "z1", u1), ("w2", "x2", "z2", u2)):
        hazard = cfg.baseline_rate * np.exp(cfg.beta_c * ds[z] + cfg.beta1 * ds[x])
        assert np.allclose(np.exp(-ds[w] * hazard), u, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_dataset_draw_order_across_blocks(scenario, monkeypatch):
    # 200 rows are three 64-row blocks and a partial one. The zeros sit in
    # the second block of the treatment uniform (positions 0 to n - 1) and
    # of u1; each column's zeros are redrawn after the whole column, in
    # row order, and the first redraw of row 100 (position n + 1) is a
    # zero again, so u1 starts at n + 3
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 64)
    n = 200
    cfg = non_default_config(scenario, n)
    stream = ZeroingGenerator(RngStream(50), [70, 100, n + 1, n + 3 + 130])
    ds = gen_dataset(cfg, stream)

    fresh = RngStream(50)
    x1 = fresh.normal(0.0, 1.0, n)
    t1 = fresh.random(n)
    t1[70] = fresh.random(2)[0]
    t1[100] = fresh.random(1)[0]
    u1 = fresh.random(n)
    u1[130] = fresh.random(1)[0]
    u2 = fresh.random(n)
    x2 = x1 if scenario == 1 else x1 + fresh.normal(0.0, cfg.drift_sd, n)
    z1 = (t1 < expit(cfg.alpha0 + cfg.alpha1 * x1)).astype(np.uint8)
    z2 = z1
    if scenario == 3:
        t2 = fresh.random(n)
        z2 = (t2 < expit(cfg.gamma0 + cfg.gamma1 * x2 + cfg.gamma2 * z1)).astype(np.uint8)
    assert stream.bit_generator.state == fresh.bit_generator.state

    # z1 at a redrawn row is set from the redrawn uniform: 1 at row 70 and
    # 0 at row 100, where the zero itself would set 1 at both
    redrawn = [70, 100]
    assert z1[redrawn].tolist() == [1, 0]
    assert np.array_equal(ds["z1"][redrawn], z1[redrawn])
    w1 = gen_gap_time(u1, cfg.beta1 * x1 + cfg.beta_c * z1, cfg.baseline_rate)
    w2 = gen_gap_time(u2, cfg.beta1 * x2 + cfg.beta_c * z2, cfg.baseline_rate)
    expected = {"x1": x1, "x2": x2, "z1": z1, "z2": z2, "w1": w1, "w2": w2,
                "delta1": w1 <= cfg.tau, "delta2": w1 + w2 <= cfg.tau}
    for name in SUBJECT_DTYPE.names:
        assert np.array_equal(ds[name], expected[name]), name


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
    # 40,000 rows are three blocks, the last one partial: the second and
    # third are drawn again from their recorded stream states
    cfg = config_for(scenario, 0.5, 40_000, beta_c=0.7, tau=tau)
    whole, stream = RngStream(52), RngStream(52)
    ds = gen_dataset(cfg, whole)
    data, lengths = streamed_bytes(cfg, stream)
    assert lengths == [simgen.GEN_BLOCK_ROWS] * 2 + [40_000 - 2 * simgen.GEN_BLOCK_ROWS]
    assert data == ds.tobytes()
    assert stream.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_streamed_blocks_carry_the_zero_redraws(scenario, monkeypatch):
    # 200 rows are three 64-row blocks and a partial one. Zeros sit in the
    # held first block and in later ones: the treatment uniform at rows
    # 10, 70 and 150 (positions 0 to n - 1), whose redraw for row 70
    # (position n + 1) is a zero again; u1 at rows 130 and 199 (from
    # n + 4); u2 at row 64 (from 2n + 6); in scenario 3 the second
    # treatment uniform at row 190 (from 3n + 7). A later block's draws
    # come from a private generator, which makes no zeros, so its rows are
    # right only if the recorded redraws reach them
    monkeypatch.setattr(simgen, "GEN_BLOCK_ROWS", 64)
    n = 200
    cfg = non_default_config(scenario, n)
    positions = [10, 70, 150, n + 1, n + 4 + 130, n + 4 + 199, 2 * n + 6 + 64,
                 3 * n + 7 + 190]
    whole = ZeroingGenerator(RngStream(53), positions)
    stream = ZeroingGenerator(RngStream(53), positions)
    ds = gen_dataset(cfg, whole)
    data, lengths = streamed_bytes(cfg, stream)
    assert lengths == [64, 64, 64, 8]
    assert data == ds.tobytes()
    assert stream.drawn == whole.drawn
    assert stream.bit_generator.state == whole.bit_generator.state


def test_gap_time_matches_the_plain_form_and_leaves_u():
    u = RngStream(44).random(100)
    lp = np.linspace(-1.0, 1.0, 100)
    expected = -np.log(u) / (2.5 * np.exp(lp))
    u_before, lp_before = u.copy(), lp.copy()
    times = gen_gap_time(u, lp, 2.5)
    assert np.array_equal(times, expected)
    # neither argument is written
    assert np.array_equal(u, u_before)
    assert np.array_equal(lp, lp_before)

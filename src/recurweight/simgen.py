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
    """Inverse-transform exponential gap time, -log(u) / (rate e^lp).

    Accepts scalars or arrays. A float array linear_predictor is
    overwritten with the hazard e^lp * rate, and the log, negation and
    division run in the one array returned, so the call holds two float
    columns at its peak (the hazard and the times) while u is read where
    it lies, e.g. in a cohort field; u itself is never written. The
    times have the bits of the plain form.
    """
    hazard = np.asarray(linear_predictor, dtype=float)
    np.exp(hazard, out=hazard)
    hazard *= rate
    time = np.empty(np.broadcast_shapes(np.shape(u), hazard.shape))
    np.log(u, out=time)
    np.negative(time, out=time)
    time /= hazard
    return time[()]


def _base_draws(config, stream):
    n = config.n_subjects
    x1 = draw_normal(stream, 0.0, 1.0, n)
    z_uniform = draw_uniform(stream, n)
    u1 = draw_uniform(stream, n)
    u2 = draw_uniform(stream, n)
    return x1, z_uniform, u1, u2


# rows per block of gen_dataset's derived columns: a block of records and
# its temporaries stay in cache while the block's columns are computed
GEN_BLOCK_ROWS = 16_384


def _row_blocks(n):
    return (slice(start, start + GEN_BLOCK_ROWS) for start in range(0, n, GEN_BLOCK_ROWS))


def _linear_predictor(slope, x, intercept=None, coef=None, z=None):
    """slope x, then + intercept, then + coef z, summed in one float buffer."""
    lp = slope * x
    if intercept is not None:
        lp += intercept
    if z is not None:
        lp += coef * z
    return lp


def _assign_treatment(ds, name, stream, linear_predictor):
    """Draw n uniforms U and write [U < expit(lp)] into the uint8 field
    `name`, block by block; linear_predictor(block) builds a block's lp."""
    uniform = draw_uniform(stream, len(ds))
    for rows in _row_blocks(len(ds)):
        block = ds[rows]
        np.less(uniform[rows], expit(linear_predictor(block)), out=block[name])


def gen_dataset(config, stream):
    """Generate one cohort as a structured array of subject records.

    The array is allocated first and each draw is written into it as
    soon as it is made, in draw order: x1 (also into x2); the treatment
    uniform, consumed at once into z1; u1 and u2, held in the w1 and w2
    fields; the drift, added into x2; the second treatment uniform,
    consumed into z2. Then the gap times overwrite u1 and u2. Treatments,
    gap times and censoring indicators are computed in blocks of
    GEN_BLOCK_ROWS rows, each linear predictor in one float buffer. So
    the peak memory is the cohort plus one drawn float column and its
    zero mask: 45 bytes per subject, 36 of them the cohort. Each element
    takes the operations of the whole-column formulas in their order,
    e.g. w1 = -log(u1) / (rate exp(beta1 x1 + beta_c z1)), so the bytes
    do not depend on the block size.
    """
    c = config
    n = c.n_subjects
    ds = np.empty(n, dtype=SUBJECT_DTYPE)
    ds["x1"] = ds["x2"] = draw_normal(stream, 0.0, 1.0, n)
    _assign_treatment(ds, "z1", stream, lambda b: _linear_predictor(c.alpha1, b["x1"], c.alpha0))
    ds["w1"] = draw_uniform(stream, n)
    ds["w2"] = draw_uniform(stream, n)
    if c.scenario is not Scenario.IndependentGaps:
        ds["x2"] += draw_normal(stream, 0.0, c.drift_sd, n)
    if c.scenario is Scenario.TVTreatmentCovariates:
        _assign_treatment(ds, "z2", stream, lambda b: _linear_predictor(
            c.gamma1, b["x2"], c.gamma0, c.gamma2, b["z1"]))
    else:
        ds["z2"] = ds["z1"]

    for rows in _row_blocks(n):
        b = ds[rows]
        for w, x, z in (("w1", "x1", "z1"), ("w2", "x2", "z2")):
            lp = _linear_predictor(c.beta1, b[x], coef=c.beta_c, z=b[z])
            b[w] = gen_gap_time(b[w], lp, c.baseline_rate)
        if c.tau is None:
            b["delta1"] = 1
            b["delta2"] = 1
        else:
            b["delta1"] = b["w1"] <= c.tau
            b["delta2"] = (b["w1"] + b["w2"]) <= c.tau
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
# rows formatted per write: bounds the per-chunk byte matrices (172 slots
# x rows, 0.7 MB with the selection mask) and the kernel's arrays; 2,048
# rows run as fast as 4,096, which left both matrices resident and raised
# a repeated 10^6-row dump's peak memory by 0.4 MB
CSV_CHUNK_ROWS = 2_048

# 10^k is exact in binary for k <= 22, so v 10^k is exact as hi + lo
_POW10 = np.array([float(10**k) for k in range(21)])
_INT_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
# X = v 10^k is exact, f = X - floor(X) is within 2^-53 of the truth and a
# distance d < 2^4 within 2^-48, while the half-ulp H is exact; a decision
# closer than this to a tie or to the interval's edge goes to repr
_GUARD = 1e-6


def _split(a):
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _shortest_digits(v):
    """Python's shortest round-trip digits of |v|, for repr's positional range.

    Returns (digits, e10, ndigits, certified): |v| prints as the first
    ndigits of the 17-digit integer `digits`, with e10 = floor(log10 |v|).
    Only entries with `certified` set are valid; the rest (zero,
    subnormal, non-finite, outside [1e-4, 1e16), a power-of-two
    significand with its asymmetric interval, or a decision inside the
    guard band) need repr. The p-digit decimal nearest to X = |v| 10^k
    lies in the rounding interval [X - H, X + H] iff some p-digit decimal
    does (Steele & White 1990); the interval is symmetric, so the passing
    p are all p >= the shortest, and p = 17 always passes.
    """
    a = np.abs(v)
    frac, exp2 = np.frexp(a)
    certified = (a >= 1e-4) & (a < 1e16) & (frac != 0.5)
    np.copyto(a, 1.0, where=~certified)
    np.copyto(exp2, 1, where=~certified)  # frexp(1.0) = (0.5, 1)
    e10 = np.log10(a)
    # k = 16 - e10 is in [0, 20]; a misjudged e10 fails the range test below
    e10 = np.floor(e10, out=e10).astype(np.int64)
    k = 16 - e10
    # Dekker's TwoProduct: hi + lo == a 10^k exactly, without an FMA
    hi = a * _POW10[k]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64)
    whole += floor_lo.astype(np.int64)
    f = np.subtract(lo, floor_lo, out=lo)
    half_ulp = np.ldexp(_POW10[k], exp2 - 54)
    # the p-digit candidate below X is inside iff rem + f < H, the one
    # above iff q - rem < H + f, for rem = whole mod q: integer tests
    # against the largest passing rem (below) and q - rem (above)
    below = np.ceil(half_ulp - f) - 1.0
    above = np.ceil(half_ulp + f) - 1.0
    # a misjudged e10 (log10 rounding near a power of ten) leaves X outside
    # [10^16, 10^17); a fraction near 0, 1/2 or 1 is a possible tie, and H - f
    # or H + f near a whole number a candidate on the interval's edge
    certified &= (whole >= _INT_POW10[16]) & (whole < _INT_POW10[17])
    off_half = np.abs(f - 0.5)
    certified &= (off_half > _GUARD) & (off_half < 0.5 - _GUARD)
    for bound, x in ((below, half_ulp - f), (above, half_ulp + f)):
        gap = bound - x  # in [-1, 0), -1 or 0 where x is a whole number
        certified &= (gap > _GUARD - 1.0) & (gap < -_GUARD)
    below, above = below.astype(np.int64), above.astype(np.int64)
    # the passing p run from 17 down to the shortest; about 57% of random
    # values pass p = 16 and 6% p = 15, so the loop follows the survivors
    ndigits = np.full(a.shape, 17, dtype=np.int64)
    live = np.flatnonzero(certified)
    for p in range(16, 0, -1):
        q = _INT_POW10[17 - p]
        x = whole[live]
        rem = x - x // q * q
        live = live[np.where(rem >= q // 2, q - rem <= above[live], rem <= below[live])]
        if not live.size:
            break
        ndigits[live] = p
    # round X to the shortest: up iff rem + f > q / 2 (ties were sent to repr)
    q = _INT_POW10[17 - ndigits]
    rem = whole % q
    digits = whole - rem + q * (2 * rem + (f > 0.5) >= q)
    certified &= digits < _INT_POW10[17]
    return digits, e10, ndigits, certified


# per float field: sign, "0", 17 digits, ".", 3 zeros, the same 17 digits
_FLOAT_SLOTS = 40
_FIELD_SLOTS = {name: _FLOAT_SLOTS if SUBJECT_DTYPE[name] == float else 1
                for name in DATASET_CSV_HEADER.split(",")}
_PLACE = np.arange(17, dtype=np.int8)[:, None]


def _fill_float(buf, mask, v):
    """Fill one float field's 40 slot rows and their selection mask.

    Below 1 the field reads sign, "0", ".", -e10 - 1 zeros and the digits
    from the second copy; from 1 up it reads sign, the first e10 + 1
    digits, ".", then the rest from the second copy, or one zero for a
    whole number. A value the kernel cannot certify is written by repr.
    """
    digits, e10, ndigits, certified = _shortest_digits(v)
    e10, ndigits = e10.astype(np.int8), ndigits.astype(np.int8)
    buf[0] = ord("-")
    np.signbit(v, out=mask[0])
    buf[1] = ord("0")
    np.less(e10, 0, out=mask[1])
    top = digits // _INT_POW10[8]
    for half, first_slot, count in ((top, 2, 9), (digits - top * _INT_POW10[8], 11, 8)):
        half = half.astype(np.uint32)
        for slot in range(first_slot + count - 1, first_slot - 1, -1):
            rest = half // 10
            np.subtract(half, rest * 10, out=buf[slot], casting="unsafe")
            half = rest
    buf[2:19] += ord("0")
    np.greater_equal(e10, _PLACE, out=mask[2:19])
    buf[19] = ord(".")
    mask[19] = True
    buf[20:23] = ord("0")
    zeros = np.where(e10 < 0, -1 - e10, ndigits <= e10 + 1)
    np.greater(zeros, _PLACE[:3], out=mask[20:23])
    buf[23:40] = buf[2:19]
    np.logical_and(np.maximum(e10 + 1, 0) <= _PLACE, _PLACE < ndigits, out=mask[23:40])
    for row in np.flatnonzero(~certified):
        text = repr(float(v[row])).encode()
        buf[:len(text), row] = np.frombuffer(text, dtype=np.uint8)
        mask[:, row] = np.arange(_FLOAT_SLOTS) < len(text)


def write_dataset_csv(ds, fh):
    """Write a cohort in the interchange layout to an open text handle.

    Floats are written as repr writes them (shortest round-trip digits,
    positional in [1e-4, 1e16)), so the file parses back to the same
    bits; indicators and treatments are written as 0/1. A numpy kernel
    computes the digits; a value it cannot certify is written by repr.
    Each chunk fills one slots x rows byte matrix and a selection mask,
    then compacts them in row order into one write.
    """
    fh.write(DATASET_CSV_HEADER + "\n")
    n_slots = sum(_FIELD_SLOTS.values()) + len(_FIELD_SLOTS)
    rows = min(len(ds), CSV_CHUNK_ROWS)
    buf = np.empty((n_slots, rows), dtype=np.uint8)
    mask = np.empty((n_slots, rows), dtype=bool)
    for start in range(0, len(ds), CSV_CHUNK_ROWS):
        part = ds[start:start + CSV_CHUNK_ROWS]
        b, m = buf[:, :len(part)], mask[:, :len(part)]
        slot = 0
        for i, (name, width) in enumerate(_FIELD_SLOTS.items()):
            if width == 1:
                np.add(part[name], ord("0"), out=b[slot], casting="unsafe")
                m[slot] = True
            else:
                _fill_float(b[slot:slot + width], m[slot:slot + width], part[name])
            slot += width
            b[slot] = ord("\n" if i == len(_FIELD_SLOTS) - 1 else ",")
            m[slot] = True
            slot += 1
        fh.write(str(b.T[m.T], "ascii"))

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
scenarios under the same stream. One draw stage makes these draws for
both the cohort and the potential outcomes, so the two share x1, x2,
u1 and u2 by construction. Each column is drawn in blocks, and a
uniform's exact zeros are redrawn right after their block, so a block's
values never wait on later draws. A column's blocks are consecutive
draws from the stream, so gen_blocks records the stream state at each
column's start and replays the column from it, block by block; no
other code reads a stream state.
"""

import enum
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .statcore import expit, redraw_zeros


class Scenario(enum.IntEnum):
    IndependentGaps = 1
    TVCovariates = 2
    TVTreatmentCovariates = 3


# the paper's fixed design: every propensity and hazard slope is ln 1.5, the
# covariate drifts by N(0, DRIFT_SD^2) and the baseline hazard is 1; the
# generator and the marginal-HR oracle read these same values
ALPHA1 = GAMMA1 = GAMMA2 = BETA1 = float(np.log(1.5))
DRIFT_SD = 4.0
BASELINE_RATE = 1.0

# intercepts of the first and second treatment models, by prevalence. z1 is
# 25% / 50% treated. z2 is 25% treated at 0.25, but at 0.5 it is 51.75%
# (scenario 3, n = 2x10^6): -0.1 gives 50% only with z1 at 25%
ALPHA0_BY_PREVALENCE = {0.25: -1.1392, 0.5: 0.0}
GAMMA0_BY_PREVALENCE = {0.25: -1.7233, 0.5: -0.1000}


@dataclass(frozen=True)
class ScenarioConfig:
    """What a study varies across its cells; the rest of the design is the
    module constants above. prevalence picks the treatment intercepts."""

    scenario: Scenario = Scenario.IndependentGaps
    prevalence: float = 0.25
    n_subjects: int = 10_000
    beta_c: float = 0.0
    tau: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        if self.prevalence not in ALPHA0_BY_PREVALENCE:
            raise ValueError(f"prevalence must be one of {sorted(ALPHA0_BY_PREVALENCE)}")
        if not np.isfinite(self.beta_c):
            raise ValueError(f"beta_c must be finite, got {self.beta_c}")
        try:
            operator.index(self.n_subjects)
        except TypeError:
            raise ValueError(f"n_subjects must be an integer, got {self.n_subjects!r}") from None
        if self.n_subjects < 2:
            raise ValueError("need at least 2 subjects")
        if self.tau is not None and not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite when set")


# the benchmark and the demos build their configs by this name
config_for = ScenarioConfig


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


def gen_gap_time(u, linear_predictor):
    """Inverse-transform exponential gap time, -log(u) / (BASELINE_RATE e^lp).

    Accepts scalars or arrays and writes neither argument, so u may be
    read where it lies, e.g. in a cohort field.
    """
    return -np.log(u) / (np.exp(linear_predictor) * BASELINE_RATE)


# rows per block of the draw stage, of the derived columns and of the cohort
# blocks gen_blocks yields: a block and its temporaries stay in cache, and no
# column-length one is made
GEN_BLOCK_ROWS = 16_384


def _drawn(records, draws):
    return draws


def _block_draws(stream, size, sd):
    if sd is not None:
        return stream.normal(0.0, sd, size)
    u = stream.random(size)  # exact zeros are redrawn right after the block
    return u if u.all() else redraw_zeros(stream, u)


def _columns(config):
    """The draw stage's columns in the module's draw order, each as (field
    or fields, value(records, draws), sd): the draws are normal(0, sd) or,
    without sd, uniform on (0, 1), and value(records, draws) is what the
    field takes. x1 also goes into x2; the treatment uniforms are consumed
    at once into z1 and z2; the drift is added into x2. Nothing here
    depends on beta_c."""
    c = config
    alpha0 = ALPHA0_BY_PREVALENCE[c.prevalence]
    gamma0 = GAMMA0_BY_PREVALENCE[c.prevalence]
    columns = [(["x1", "x2"], _drawn, 1.0),
               ("z1", lambda b, u: u < expit(alpha0 + ALPHA1 * b["x1"]), None),
               ("w1", _drawn, None),
               ("w2", _drawn, None)]
    if c.scenario is not Scenario.IndependentGaps:
        columns.append(("x2", lambda b, v: b["x2"] + v, DRIFT_SD))
    if c.scenario is Scenario.TVTreatmentCovariates:
        columns.append(("z2", lambda b, u: u < expit(gamma0 + GAMMA1 * b["x2"]
                                                     + GAMMA2 * b["z1"]), None))
    return columns


def _draw(config, stream, ds):
    """The draw stage both generators share: it draws every column of the
    cohort ds, block by block, and writes each block as it goes. The w
    fields hold u1 and u2, and z2 (unless assigned), the gap times and the
    delta fields are not yet set. A uniform block's exact zeros are
    redrawn right after that block (_block_draws), so each u lies in
    (0, 1). Consecutive blocks continue the stream, so without an exact
    zero the values are those of one whole-column draw at any block size;
    a zero takes the draw after its own block, not after the column.
    """
    for name, value, sd in _columns(config):
        for start in range(0, len(ds), GEN_BLOCK_ROWS):
            b = ds[start:start + GEN_BLOCK_ROWS]
            b[name] = value(b, _block_draws(stream, len(b), sd))


def _derive(config, b):
    """Complete a drawn block in place: z2 = z1 without a second assignment,
    the gap times over u1 and u2, then the censoring indicators. Each
    element takes the whole-column formulas' operations in their order,
    e.g. w1 = -log(u1) / (exp(beta1 x1 + beta_c z1) rate), so the bytes do
    not depend on the block size."""
    c = config
    if c.scenario is not Scenario.TVTreatmentCovariates:
        b["z2"] = b["z1"]
    for w, x, z in (("w1", "x1", "z1"), ("w2", "x2", "z2")):
        b[w] = gen_gap_time(b[w], BETA1 * b[x] + c.beta_c * b[z])
    if c.tau is None:
        b["delta1"] = b["delta2"] = 1
    else:
        b["delta1"] = b["w1"] <= c.tau
        b["delta2"] = (b["w1"] + b["w2"]) <= c.tau
    return b


def gen_dataset(config, stream):
    """Generate one cohort as a structured array of subject records.

    The draw stage (_draw) fills the whole cohort, so nothing is drawn
    twice; then each block is completed in place (_derive). Generation
    peaks at the cohort, 36 bytes per subject, plus one block's
    temporaries, about 33 bytes per block row (0.53 MB).
    """
    ds = np.empty(config.n_subjects, dtype=SUBJECT_DTYPE)
    _draw(config, stream, ds)
    for start in range(0, len(ds), GEN_BLOCK_ROWS):
        _derive(config, ds[start:start + GEN_BLOCK_ROWS])
    return ds


def gen_blocks(config, stream):
    """Yield the cohort gen_dataset(config, stream) returns as consecutive
    blocks of GEN_BLOCK_ROWS rows (the last may be shorter), holding one
    block, not the cohort.

    The first next() passes over every column in draw order: a private
    PCG64 generator per column is set to the stream's state at the
    column's start, and the stream is advanced through the column's
    blocks, zero redraws included, so it is left where gen_dataset leaves
    it. Each column's generator then draws its blocks again in turn, so
    every byte matches gen_dataset's.
    Every block is the same reused buffer: a caller that keeps a block past
    the next one must copy it.
    """
    c = config
    block = np.empty(min(c.n_subjects, GEN_BLOCK_ROWS), dtype=SUBJECT_DTYPE)
    columns, replays = _columns(c), []
    for _name, _value, sd in columns:
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = stream.bit_generator.state
        replays.append(replay)
        for start in range(0, c.n_subjects, GEN_BLOCK_ROWS):
            _block_draws(stream, min(GEN_BLOCK_ROWS, c.n_subjects - start), sd)
    for start in range(0, c.n_subjects, GEN_BLOCK_ROWS):
        b = block[:min(GEN_BLOCK_ROWS, c.n_subjects - start)]
        for (name, value, sd), replay in zip(columns, replays):
            b[name] = value(b, _block_draws(replay, len(b), sd))
        yield _derive(c, b)


def gen_potential_outcomes(config, stream):
    """Gap times under both forced arms, sharing one uniform per event.

    The draws come from the draw stage gen_dataset uses, so under the
    same stream each subject's assigned arm reproduces its cohort gap
    times exactly. Forcing an arm sets every treatment to it, so in
    scenario 3 the intervened z drives both the second assignment and
    the second hazard. Scenario 1 keeps x2 = x1; the drift scenarios use
    x2 = x1 + v. Common draws across arms make the per-subject contrast
    monotone in beta_c. The whole draw stage runs, so in scenario 3 the
    second treatment uniform is consumed too and the stream is left
    where gen_dataset leaves it.
    """
    c = config
    ds = np.empty(c.n_subjects, dtype=SUBJECT_DTYPE)
    _draw(c, stream, ds)
    out = np.empty(c.n_subjects, dtype=ORACLE_DTYPE)
    out["x1"], out["x2"] = ds["x1"], ds["x2"]
    for w, x in (("w1", "x1"), ("w2", "x2")):
        lp = BETA1 * ds[x]
        out[f"{w}_treated"] = gen_gap_time(ds[w], lp + c.beta_c)
        out[f"{w}_control"] = gen_gap_time(ds[w], lp)
    return out


DATASET_CSV_HEADER = ",".join(SUBJECT_DTYPE.names)
# rows formatted per write: bounds the per-chunk byte matrices (120 slots
# x rows, 0.5 MB with the selection mask) and the kernel's arrays over the
# chunk's 4 x rows float values; 4,096 rows wrote a 10^6-row cohort about
# 5% faster with twice that memory, 1,024 rows about 7% slower
CSV_CHUNK_ROWS = 2_048

# 10^k is exact in binary for k <= 22, so v 10^k is exact as hi + lo
_POW10 = np.array([float(10**k) for k in range(21)])
_INT_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_VELTKAMP = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
# X = v 10^k is exact, f = X - floor(X) is within 2^-53 of the truth and a
# distance d < 2^4 within 2^-48, while the half-ulp H is exact; a decision
# closer than this to a tie or to the interval's edge goes to repr
_GUARD = 1e-6
# the kernel formats |v| below 10^4, whose integer part fits the float
# block's 4 integer slots; 10^6-row cohorts of all three scenarios peak
# near 4,400, and about 0.4% of their w2 values are 100 or more
_CUTOFF = 1e4


def _split(a, lo=None):
    """Veltkamp's split a = hi + lo, exact, hi with 26 significant bits."""
    hi = _VELTKAMP * a
    hi -= hi - a
    return hi, np.subtract(a, hi, out=lo)


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(v):
    """X = |v| 10^k, k = 16 - e10, as an int64 `whole` and a fraction f.

    Returns (whole, f, e10, below, above, certified): below and above are
    the largest whole distances to a candidate under and over X that stay
    inside the rounding interval [X - H, X + H], H half an ulp of |v|
    scaled; only entries with `certified` set are valid (see
    _shortest_digits). The steps run in place where they can, and the
    temporaries go when the call returns, so the kernel holds about
    eleven arrays of v's length at its peak.
    """
    a = np.abs(v)
    scratch, exp2 = np.frexp(a)
    certified = (a >= 1e-4) & (a < _CUTOFF) & (scratch != 0.5)
    np.copyto(a, 1.0, where=~certified)
    np.copyto(exp2, 1, where=~certified)  # frexp(1.0) = (0.5, 1)
    # k is in [12, 20]; a misjudged e10 fails the range test below
    e10 = np.floor(np.log10(a, out=scratch), out=scratch).astype(np.int8)
    k = np.subtract(16, e10, dtype=np.intp)
    scale = _POW10[k]
    hi = a * scale
    exp2 -= 54
    half_ulp = np.ldexp(scale, exp2, out=scale)
    # Dekker's TwoProduct: hi + lo == a 10^k exactly, without an FMA
    a_hi, a_lo = _split(a, lo=a)
    p_hi, p_lo = np.take(_POW10_HI, k, out=scratch), _POW10_LO[k]
    lo = a_hi * p_hi
    lo -= hi
    lo += np.multiply(a_hi, p_lo, out=a_hi)
    lo += np.multiply(a_lo, p_hi, out=p_hi)
    lo += np.multiply(a_lo, p_lo, out=p_lo)
    floor_lo = np.floor(lo, out=a_hi)
    whole = hi.astype(np.int64)
    whole += floor_lo.astype(np.int64)
    f = np.subtract(lo, floor_lo, out=lo)
    # a misjudged e10 (log10 rounding near a power of ten) leaves X outside
    # [10^16, 10^17); a fraction near 0, 1/2 or 1 is a possible tie
    certified &= (whole >= _INT_POW10[16]) & (whole < _INT_POW10[17])
    off_half = np.abs(np.subtract(f, 0.5, out=a_hi), out=a_hi)
    certified &= (off_half > _GUARD) & (off_half < 0.5 - _GUARD)
    # the p-digit candidate below X is inside iff rem + f < H, the one
    # above iff q - rem < H + f, for rem = whole mod q: integer tests
    # against the largest passing rem (below) and q - rem (above); H - f or
    # H + f near a whole number puts a candidate on the interval's edge
    bounds = []
    for x in (np.subtract(half_ulp, f, out=hi), np.add(half_ulp, f, out=scratch)):
        bound = np.ceil(x, out=p_lo)
        bound -= 1.0
        gap = np.subtract(bound, x, out=x)  # in [-1, 0), -1 or 0 where x is whole
        certified &= (gap > _GUARD - 1.0) & (gap < -_GUARD)
        bounds.append(bound.astype(np.int8))  # H < 2^4 where certified
    return whole, f, e10, *bounds, certified


def _shortest_digits(v):
    """Python's shortest round-trip digits of |v|, for |v| in [1e-4, 1e4).

    Returns (digits, e10, ndigits, certified) for a 1-D v: |v| prints as
    the first ndigits of the 17-digit integer `digits`, with e10 =
    floor(log10 |v|). Only entries with `certified` set are valid; the
    rest (zero, subnormal, non-finite, outside [1e-4, 1e4), a power-of-two
    significand with its asymmetric interval, or a decision inside the
    guard band) need repr. The p-digit decimal nearest to X = |v| 10^k
    lies in the rounding interval [X - H, X + H] iff some p-digit decimal
    does (Steele & White 1990); the interval is symmetric, so the passing
    p are all p >= the shortest, and p = 17 always passes.
    """
    whole, f, e10, below, above, certified = _scaled(v)
    # p passes iff the candidate below X or the one above is inside; the
    # passing p run from 17 down to the shortest, and about 57% of random
    # values pass p = 16 and 6% p = 15, so the loop follows the survivors
    ndigits = np.full(whole.shape, 17, dtype=np.int8)
    live = np.flatnonzero(certified)
    for p in range(16, 0, -1):
        q = _INT_POW10[17 - p]
        rem = whole[live]
        quot = rem // q
        quot *= q
        rem -= quot
        inside = rem <= below[live]
        inside |= np.subtract(q, rem, out=quot) <= above[live]
        live = live[np.flatnonzero(inside)]
        if not live.size:
            break
        ndigits[live] = p
    # round X to the shortest: up iff rem + f > q / 2 (ties were sent to repr)
    q = _INT_POW10[17 - ndigits]
    rem = np.remainder(whole, q)
    digits = np.subtract(whole, rem, out=whole)
    rem *= 2
    rem += f > 0.5
    q *= rem >= q
    digits += q
    certified &= digits < _INT_POW10[17]
    return digits, e10, ndigits, certified


# A row is two halves of one shape, x1 x2 z1 z2 and w1 w2 delta1 delta2:
# two float fields, then two flags, each field followed by its separator.
# A float field is 27 slots: sign, "0", 4 integer digits, ".", 3 zeros,
# 17 digits; the longest repr, 24 characters, fits. A flag is 1 slot, so
# a half is 60 slots.
_HALVES = (SUBJECT_DTYPE.names[:4], SUBJECT_DTYPE.names[4:])
_FLOAT_SLOTS = 27
_FLOATS_END = 2 * (_FLOAT_SLOTS + 1)
_PLACE = np.arange(17, dtype=np.int8)[:, None]
_ZERO_PLACE = -2 - _PLACE[:3]


def _fill_float(buf, mask, v):
    """Fill float fields' 27 slot rows and their selection masks.

    buf and mask are (..., 27, rows) and v the (..., rows) values, the
    leading axes indexing the fields. Below 1 a field reads sign, "0", ".",
    -e10 - 1 zeros and the digits; from 1 up it reads sign, the first
    e10 + 1 digits (copied into the integer slots), ".", then the rest of
    the digits, or one zero for a whole number. A value the kernel cannot
    certify is written by repr.
    """
    shape = v.shape[:-1] + (1, v.shape[-1])
    digits, e10, ndigits, certified = (x.reshape(shape) for x in _shortest_digits(v.ravel()))
    buf[..., 0, :] = ord("-")
    np.signbit(v, out=mask[..., 0, :])
    buf[..., 1, :] = ord("0")
    np.less(e10, 0, out=mask[..., 1:2, :])
    # the 17 digits as uint32 halves of 9 and 8 digits, peeled from the
    # right together: step i writes digits 8 - i and 16 - i, 8 slots apart
    halves = np.empty(v.shape[:-1] + (2, v.shape[-1]), dtype=np.uint32)
    np.divmod(digits, _INT_POW10[8], out=(halves[..., :1, :], halves[..., 1:, :]),
              casting="unsafe")
    rest = np.empty_like(halves)
    for i in range(8):
        np.floor_divide(halves, 10, out=rest)
        np.subtract(halves, rest * 10, out=buf[..., 18 - i:27 - i:8, :], casting="unsafe")
        halves, rest = rest, halves
    buf[..., 10:11, :] = halves[..., :1, :]
    buf[..., 10:, :] += ord("0")
    buf[..., 2:6, :] = buf[..., 10:14, :]
    np.greater_equal(e10, _PLACE[:4], out=mask[..., 2:6, :])
    buf[..., 6, :] = ord(".")
    mask[..., 6, :] = True
    buf[..., 7:10, :] = ord("0")
    # -e10 - 1 zeros below 1, so e10 <= -2, -3, -4; one for a whole number
    np.less_equal(e10, _ZERO_PLACE, out=mask[..., 7:10, :])
    mask[..., 7:8, :] |= ndigits <= e10 + 1
    # the digits after the integer part, up to the shortest's length
    np.less(_PLACE, ndigits, out=mask[..., 10:, :])
    mask[..., 10:14, :] &= ~mask[..., 2:6, :]
    uncertain = np.nonzero(~certified.reshape(v.shape))
    texts = [repr(x).encode() for x in v[uncertain].tolist()]
    at = (*uncertain[:-1], slice(None), uncertain[-1])
    buf[at] = np.array(texts, dtype=f"S{_FLOAT_SLOTS}").view(np.uint8).reshape(-1, _FLOAT_SLOTS)
    mask[at] = np.arange(_FLOAT_SLOTS) < np.array([len(t) for t in texts])[:, None]


def write_dataset_csv(blocks, fh):
    """Write a cohort in the interchange layout to an open text handle.

    The cohort comes as an iterable of blocks, structured arrays of subject
    records (as gen_blocks yields, or (ds,) for a whole cohort), written one
    after another. Floats are written as repr writes them (shortest
    round-trip digits, positional in [1e-4, 1e16)), so the file parses back
    to the same bits; indicators and treatments are written as 0/1. Each
    chunk of CSV_CHUNK_ROWS rows of a block copies its four float columns
    into one buffer, one numpy kernel call computes their digits and one
    fill writes them through a reshaped view of the chunk's 2 halves x 60
    slots x rows byte matrix and selection mask; a value the kernel cannot
    certify (zero, outside [1e-4, 1e4), a near tie) is written by repr. The
    separators are written once, and each chunk is compacted in row order
    into one write.
    """
    fh.write(DATASET_CSV_HEADER + "\n")
    rows = CSV_CHUNK_ROWS
    buf = np.empty((2, _FLOATS_END + 4, rows), dtype=np.uint8)
    mask = np.ones_like(buf, dtype=bool)
    # the separators after the float fields, then after the flags
    buf[:, _FLOAT_SLOTS:_FLOATS_END:_FLOAT_SLOTS + 1] = ord(",")
    buf[:, _FLOATS_END + 1::2] = ord(",")
    buf[-1, -1] = ord("\n")
    fields, field_mask = (a[:, :_FLOATS_END].reshape(2, 2, -1, rows)[:, :, :_FLOAT_SLOTS]
                          for a in (buf, mask))
    flags = buf[:, _FLOATS_END::2]
    slots, slot_mask = buf.reshape(-1, rows), mask.reshape(-1, rows)
    values = np.empty(4 * rows)
    for block in blocks:
        for start in range(0, len(block), rows):
            part = block[start:start + rows]
            n = len(part)
            v = values[:4 * n].reshape(2, 2, n)
            for names, pair, pair_flags in zip(_HALVES, v, flags):
                for field, name in zip(pair, names[:2]):
                    field[:] = part[name]
                for flag, name in zip(pair_flags, names[2:]):
                    np.add(part[name], ord("0"), out=flag[:n], casting="unsafe")
            _fill_float(fields[..., :n], field_mask[..., :n], v)
            fh.write(str(slots[:, :n].T[slot_mask[:, :n].T], "ascii"))

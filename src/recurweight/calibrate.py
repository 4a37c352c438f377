"""Mapping between conditional and marginal treatment effects.

Hazard ratios do not collapse over covariates: the conditional log HR
beta_c put into the generator is not the population-level marginal log
HR an unconfounded analysis recovers. The marginal value is the limit
of an unweighted Cox fit on both forced arms of an unbounded
potential-outcome population, half of the rows treated. Under this
misspecified model the fit converges to the root of the limiting
score (Struthers & Kalbfleisch 1986, Biometrika 73:363; Lin & Wei
1989, JASA 84:1074),

    U(beta) = integral of [f1 S0 - e^beta f0 S1] / (S0 + e^beta S1) dt.

S0(t) = E_X exp(-t lambda e^{beta1 X}) is the survival function of a
control gap time and f0 its density; the treated arm is the rescaling
S1(t) = S0(t e^{beta_c}), f1(t) = e^{beta_c} f0(t e^{beta_c}). X is the
covariate on the gap's hazard: N(0, 1) for the first gap and, under
drift, N(0, 1 + drift_sd^2) for the second. lambda, beta1 and drift_sd
are the generator's fixed BASELINE_RATE, BETA1 and DRIFT_SD. The oracle
evaluates U as a Gauss-Hermite sum in X inside a uniform grid in log t
and takes its root with a bracketed secant; a second secant solves for
the beta_c whose first-event marginal effect hits a requested target.
The 80-node Gauss-Hermite rule ships as a table equal, bit for bit, to
the 80-point Gauss rule of numpy.polynomial.hermite_e, so a solve runs
no eigensolver.
Nothing is drawn, so both roots run to tight tolerances. The only
arrays kept between calls are the read-only rule, grid and control
arm; nothing a call writes outlives it, so threads may solve at once.

The module ships the calibrated table for the five standard targets
(marginal HR 1 to 3) so simulation runs do not pay the solve; passing
a flag recomputes it from scratch.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simgen import BASELINE_RATE, BETA1, DRIFT_SD, Scenario

# perfbench/spans.py wraps these two names as span targets; nothing here
# calls them. They go together with those targets.
from .coxfit import fit_weighted_cox  # noqa: F401
from .simgen import gen_potential_outcomes  # noqa: F401

# the design whose gap times define the marginal truths
ORACLE_SCENARIO = Scenario.TVTreatmentCovariates
# tolerance of the shipped table, whose constants are rounded to 4 dp
DEFAULT_TOLERANCE = 0.005
# tolerance of a fresh solve on the marginal log HR
SOLVE_TOLERANCE = 1e-10
_MAX_BISECT_ITER = 60
# 80 nodes x 2,000 log-time points agree with 200 x 8,000 to 1e-12 on
# every table entry
_LOG_TIME_POINTS = 2_000
_LOG_TIME_HALF_WIDTH = 45.0
# exp(x) is exactly 0 in double precision for x <= -745.14. numpy's
# vector exp sends every lane whose result underflows (x < -708.4)
# through a scalar fallback, about 23 ns a lane against 1.4 ns (numpy
# 2.4, AVX-512 Xeon), so lanes at or past the cap are left at 0, not
# evaluated
_EXP_ARG_CAP = 746.0
# columns of the log-time grid per tile of _survival_terms; it must be
# a multiple of 16 (the function's docstring says why)
_TILE_COLUMNS = 256
# the oracle's domain, |beta_c| <= 30: up to 30 both events agree with
# a 200-node, 8,000-point grid over +-90 to 2e-7 and event 1 rises at
# every 0.05 step; event 1 drifts 2e-6 from it by 31.95, falls between
# 32.6 and 32.65, and from 35.25 returns its bracket end
MAX_ABS_BETA_C = 30.0
# |U| at which the limiting score counts as zero; U is in probability
# units with slope -0.4 to -0.5 at the table's beta_c values, so the
# root is good to about 3e-13
_SCORE_TOLERANCE = 1e-13
# The 80-node Gauss-Hermite rule for the weight exp(-x^2 / 2): its 40
# positive nodes, ascending, and their weights, the repr of the upper
# half of the 80-point Gauss rule of numpy.polynomial.hermite_e under
# numpy 2.4.6. numpy solves an 80 x 80 eigenproblem through LAPACK for
# it and then makes the rule exactly symmetric, so the lower half is
# this one mirrored; shipped as a table, the rule costs a solve no
# eigensolver
_HERMITE_HALF = (
    (0.17507520287868977, 0.34483597144698247),
    (0.5252923028962614, 0.3051518554414838),
    (0.8757098165407152, 0.2389143673497496),
    (1.2264624605193566, 0.16543574028239674),
    (1.5776866299193864, 0.10125874846185895),
    (1.9295211039618916, 0.05474222698003797),
    (2.2821077873743927, 0.026114515721998566),
    (2.635592499364343, 0.010980009825915339),
    (2.990125823654362, 0.004063314918672402),
    (3.3458640349965227, 0.001321324744465556),
    (3.7029701201253284, 0.0003768566414342569),
    (4.061614914383135, 9.40698267757164e-05),
    (4.421978379455282, 2.0501067981280252e-05),
    (4.784251053052639, 3.890112074424507e-06),
    (5.14863570834112, 6.407144842054688e-07),
    (5.515349269940765, 9.127989041893801e-08),
    (5.884625045093542, 1.1204705569157963e-08),
    (6.256715344097385, 1.179886284230912e-09),
    (6.6318945846959005, 1.0606205617309286e-10),
    (7.01046300276626, 8.093939799160362e-12),
    (7.3927511292266574, 5.21116459097709e-13),
    (7.779125244824911, 2.810778919929695e-14),
    (8.169994096743753, 1.2599880637144734e-15),
    (8.565817263535896, 4.651577529556795e-17),
    (8.967115703076805, 1.3995805517539382e-18),
    (9.374485236493317, 3.3910582381832755e-20),
    (9.788614049650553, 6.524433363250139e-22),
    (10.210305800835217, 9.806326291897894e-24),
    (10.640510727646248, 1.1292760033744725e-25),
    (11.080368463136367, 9.734678307119606e-28),
    (11.53126850768007, 6.106315846351425e-30),
    (11.994938265319716, 2.6912351297758044e-32),
    (12.47357593411926, 7.972194482448301e-35),
    (12.970060141888174, 1.4983800481305582e-37),
    (13.488299320645114, 1.6535093863160894e-40),
    (14.033856524353233, 9.605950892956441e-44),
    (14.61517738833839, 2.4949636338920195e-47),
    (15.2463485845499, 2.2162939678575877e-51),
    (15.954724894673237, 4.0477402591584685e-56),
    (16.811977874859206, 4.180096531302438e-62),
)


@dataclass(frozen=True)
class CalibrationEntry:
    """One row of the target-to-conditional mapping.

    beta_m1 is the requested first-event marginal log HR, beta_c the
    conditional value that induces it, beta_m2 the second-event
    marginal log HR implied under covariate drift, achieved_beta_m1
    the oracle value actually reached at beta_c. Frozen, since
    lookup_calibration hands out the shipped table's own entries.
    """

    beta_m1: float
    beta_c: float
    beta_m2: float
    achieved_beta_m1: float
    tolerance: float

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if abs(self.achieved_beta_m1 - self.beta_m1) > self.tolerance:
            raise ValueError("achieved marginal effect misses the target")
        if self.beta_m1 == 0.0 and (self.beta_c != 0.0 or self.beta_m2 != 0.0):
            raise ValueError("null target must map to null effects")


# published mapping for marginal HR targets 1, 1.5, 2, 2.5, 3 at the
# default drift (x2 = x1 + N(0, 16)), rounded to 4 dp; an exact solve
# (`recurweight calibrate --targets 1,1.5,2,2.5,3`) lands within 5e-4
# of every constant
CALIBRATION_TABLE = (
    CalibrationEntry(0.0, 0.0, 0.0, 0.0, DEFAULT_TOLERANCE),
    CalibrationEntry(0.4055, 0.4599, 0.2085, 0.4055, DEFAULT_TOLERANCE),
    CalibrationEntry(0.6931, 0.7830, 0.3551, 0.6931, DEFAULT_TOLERANCE),
    CalibrationEntry(0.9163, 1.0313, 0.4686, 0.9163, DEFAULT_TOLERANCE),
    CalibrationEntry(1.0986, 1.2331, 0.5616, 1.0986, DEFAULT_TOLERANCE),
)


def lookup_calibration(target_hr):
    """Published entry for a marginal HR target, or None if off-table."""
    for hr, entry in zip((1.0, 1.5, 2.0, 2.5, 3.0), CALIBRATION_TABLE):
        if abs(target_hr - hr) < 1e-9:
            return entry
    return None


@lru_cache(maxsize=1)
def _quadrature():
    """Normal nodes and weights (summing to 1), log-time grid and its step.

    The nodes and weights are _HERMITE_HALF mirrored about 0, as
    numpy mirrors its own, so they equal numpy's 80-point rule bit for
    bit. The arrays are read-only, since every solve shares them.
    """
    half_nodes, half_weights = np.array(_HERMITE_HALF).T
    nodes = np.concatenate((-half_nodes[::-1], half_nodes))
    weights = np.concatenate((half_weights[::-1], half_weights))
    log_times, step = np.linspace(
        -_LOG_TIME_HALF_WIDTH, _LOG_TIME_HALF_WIDTH, _LOG_TIME_POINTS,
        retstep=True,
    )
    arrays = nodes, weights / weights.sum(), np.exp(log_times)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, step)


def _survival_terms(times, rates, weights):
    """S(t) and t f(t) of an exponential gap time whose rate is mixed.

    rates[k] > 0 carries probability weights[k]; both results are sums
    over the nodes at each time. They equal, bit for bit, the sums of
    exp evaluated on every lane of the full rate-by-time matrix:
    numpy's exp gives a lane the same bits whatever its neighbours are,
    exp(-u) is 0 past the cap, and a nan lane still reaches exp.

    The times are taken _TILE_COLUMNS at a time, and the node sums
    `weights @ e` go through OpenBLAS's gemv, whose bits for a column
    depend on where that column sits in the product. Tiles that start
    and end on multiples of 16 columns gave every column the bits of
    the full-width product under OpenBLAS's SkylakeX, Haswell and
    Nehalem kernels; 250-wide tiles did not. So the width must stay a
    multiple of 16. The last tile ends where the full product does.

    A tile whose every lane is at or past the cap adds +0.0 to both
    sums and is skipped. The skip also needs the tile's largest
    product finite, so inf and nan lanes still go through exp and the
    product (inf * 0 is nan). Nothing assumes the times are sorted.

    Each call makes its own three (len(rates), _TILE_COLUMNS) work
    arrays, 0.35 MB at 80 nodes: narrow enough to stay in L2 through
    the nine passes over a tile, where a full-width set (2.7 MB for
    80 x 2,000) would stream through memory. Nothing written outlives
    the call, so threads may call it at once.
    """
    s, tf = np.zeros(len(times)), np.zeros(len(times))
    shape = (len(rates), _TILE_COLUMNS)
    u_tile, live_tile, e_tile = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)
    low, high = rates.min(), rates.max()
    for lo in range(0, len(times), _TILE_COLUMNS):
        t = times[lo:lo + _TILE_COLUMNS]
        if low * t.min() >= _EXP_ARG_CAP and np.isfinite(high * t.max()):
            continue
        u, live, e = (a[:, :len(t)] for a in (u_tile, live_tile, e_tile))
        np.multiply(rates[:, None], t, out=u)
        np.greater_equal(u, _EXP_ARG_CAP, out=live)
        np.logical_not(live, out=live)
        e.fill(0.0)
        np.negative(u, out=e, where=live)
        np.exp(e, out=e, where=live)
        u *= e
        np.matmul(weights, e, out=s[lo:lo + len(t)])
        np.matmul(weights, u, out=tf[lo:lo + len(t)])
    return s, tf


@lru_cache(maxsize=2)
def _control_arm(sd):
    """Node rates, S0 and t f0 of a gap whose covariate is N(0, sd^2).

    None of them depends on beta_c, so a calibration solve computes
    them once per covariate law; the arrays are read-only, since every
    caller shares them.
    """
    nodes, weights, times, _ = _quadrature()
    rates = BASELINE_RATE * np.exp(BETA1 * sd * nodes)
    arm = (rates, *_survival_terms(times, rates, weights))
    for a in arm:
        a.flags.writeable = False
    return arm


@np.errstate(all="ignore")  # a fault surfaces as the checks' ValueError
def marginal_hr_oracle(beta_c, event, scenario=ORACLE_SCENARIO):
    """Marginal log HR that beta_c induces on one event's gap time.

    The root of the limiting Cox score U of the module docstring, at
    the generator's fixed BETA1, BASELINE_RATE and DRIFT_SD.
    On the log-time grid dt = t ds, so U is a sum of
    [t f1 S0 - e^beta t f0 S1] / (S0 + e^beta S1) over the points where
    S0 + S1 > 0 (both underflow at large t); a point whose denominator
    underflows adds 0. Raises ValueError when no grid point carries mass
    or U is not finite, as happens for a non-finite beta_c, and when
    |beta_c| > MAX_ABS_BETA_C.
    """
    if event not in (1, 2):
        raise ValueError("event must be 1 or 2")
    sd = 1.0
    if Scenario(scenario) is not Scenario.IndependentGaps and event == 2:
        sd = np.sqrt(1.0 + DRIFT_SD**2)
    _, weights, times, step = _quadrature()
    rates, s0, tf0 = _control_arm(sd)
    s1, tf1 = _survival_terms(times * np.exp(beta_c), rates, weights)
    mass = s0 + s1 > 0
    if not mass.any():
        raise ValueError(f"no log-time grid point carries mass at beta_c={beta_c}")
    s0, tf0, s1, tf1 = s0[mass], tf0[mass], s1[mass], tf1[mass]

    def negative_score(beta):
        eb = np.exp(beta)
        denominator = s0 + eb * s1
        terms = (tf1 * s0 - eb * tf0 * s1) / denominator
        # where S0 = 0 and e^beta S1 underflows, the term, -t f0, is 0 too
        terms[denominator == 0] = 0.0
        score = step * np.sum(terms)
        if not np.isfinite(score):
            raise ValueError(f"limiting Cox score is not finite at beta_c={beta_c}")
        return -score

    # the marginal effect lies between 0 and beta_c; the margin keeps
    # both bracket ends off the root
    lo, hi = min(0.0, beta_c) - 0.5, max(0.0, beta_c) + 0.5
    beta, _ = _bisect(negative_score, lo, hi, _SCORE_TOLERANCE)
    # checked after the root, so that a beta_c whose score the grid
    # cannot even evaluate still says so
    if abs(beta_c) > MAX_ABS_BETA_C:
        raise ValueError(
            f"beta_c={beta_c} is outside the oracle's domain "
            f"|beta_c| <= {MAX_ABS_BETA_C}, which its grid resolves"
        )
    return float(beta)


def _bisect(func, lo, hi, tolerance):
    """Root of a monotone increasing func, to |func(x)| <= tolerance.

    Bracketed secant (Illinois regula falsi): each step takes the
    secant through the bracket ends and halves the stored value of an
    end that survives twice running, so the bracket closes from both
    sides; a secant point outside the open bracket falls back to the
    midpoint.
    """
    f_lo = func(lo)
    if abs(f_lo) <= tolerance:
        return lo, f_lo
    f_hi = func(hi)
    if f_lo > 0 or f_hi < 0:
        raise ValueError(
            f"bracket [{lo}, {hi}] does not straddle the root "
            f"(f(lo)={f_lo:.4g}, f(hi)={f_hi:.4g})"
        )
    if abs(f_hi) <= tolerance:
        return hi, f_hi
    moved = 0  # which end moved last: -1 lo, +1 hi
    for _ in range(_MAX_BISECT_ITER):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f_x = func(x)
        if abs(f_x) <= tolerance:
            return x, f_x
        if f_x < 0:
            lo, f_lo = x, f_x
            if moved == -1:
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = x, f_x
            if moved == 1:
                f_lo *= 0.5
            moved = 1
    raise RuntimeError(
        f"root search exhausted after {_MAX_BISECT_ITER} steps; the function is "
        "probably not continuous at its root, or the tolerance is below "
        "its rounding error"
    )


def calibrate_beta_c(target_beta_m1):
    """Solve for the conditional log HR hitting a marginal target.

    Marginal effects are attenuated relative to conditional ones here,
    so the root lies in [target, 2 target + 0.5], over which the oracle
    is monotone increasing in beta_c; the bracket is cut at the oracle's
    domain bound MAX_ABS_BETA_C. A cut bracket is checked first: a
    target above the marginal effect at the bound raises ValueError
    naming that effect, the most the domain reaches. Each evaluation
    goes through the module attribute marginal_hr_oracle, so a wrapper
    installed there sees every call.
    """
    if target_beta_m1 < 0:
        raise ValueError("target must be nonnegative")
    if target_beta_m1 == 0.0:
        return CalibrationEntry(0.0, 0.0, 0.0, 0.0, SOLVE_TOLERANCE)

    def gap(beta_c):
        return marginal_hr_oracle(beta_c, 1) - target_beta_m1

    lo, hi = target_beta_m1, 2.0 * target_beta_m1 + 0.5
    if hi > MAX_ABS_BETA_C:
        hi = MAX_ABS_BETA_C
        reach = marginal_hr_oracle(hi, 1)
        if target_beta_m1 > reach:
            raise ValueError(
                f"target {target_beta_m1} needs a beta_c outside the oracle's "
                f"domain |beta_c| <= {MAX_ABS_BETA_C}, within which the marginal "
                f"log HR reaches at most {reach:.6g}"
            )
    beta_c, residual = _bisect(gap, lo, hi, SOLVE_TOLERANCE)
    return CalibrationEntry(
        beta_m1=target_beta_m1,
        beta_c=beta_c,
        beta_m2=marginal_hr_oracle(beta_c, 2),
        achieved_beta_m1=target_beta_m1 + residual,
        tolerance=SOLVE_TOLERANCE,
    )

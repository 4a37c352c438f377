"""Monte Carlo replication engine.

One replicate is generate -> fit weight models -> weighted Cox per
event. Replicates are seeded from disjoint substreams of one master
seed, so any execution order (serial or process pool) produces the
same numbers; aggregation walks results in replicate order.

Censored runs analyze risk sets rather than complete cases: every
subject whose previous event was observed enters the fit, carrying
the event indicator for the current event, with follow-up truncated
at the boundary tau. The second-event fit runs on the total-time
scale, min(w1 + w2, tau); a subject whose first event was censored
is not at risk for it and carries second-event weight 0, which drops
it from that fit. Inverse-censoring weights are deliberately not
part of this pipeline: the completion models sit on a heavy-tailed
covariate, and their weights are unstable enough to dominate the fit
(see the censoring demo for the comparison).

Pool workers keep the heap their last replicate freed, where glibc is
present, so the next replicate does not fault it in again; a serial
run (RECURWEIGHT_THREADS=1) leaves the caller's allocator alone.
"""

import ctypes
import math
import os
from dataclasses import dataclass, field, replace
from multiprocessing import Pool, cpu_count

import numpy as np

from .calibrate import CalibrationEntry
from .coxfit import (
    CoxConvergenceError,
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
)
from .iptw import WeightModelError, build_treatment_weights
from .simgen import Scenario, gen_dataset
from .statcore import RngStream, SeparationError

THREAD_ENV_VAR = "RECURWEIGHT_THREADS"
MAX_FAILURE_FRACTION = 0.05

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# A 10^4-subject replicate frees 2-3 MB at its end. Under the default
# trim threshold a worker hands that back to the OS and faults it in
# again on the next replicate. 256 MiB keeps a worker's heap across any
# study. Setting either threshold turns off glibc's dynamic mmap
# threshold, so the mmap one is set too: a spawned worker would stay at
# 128 KiB and map every cohort and design matrix fresh. 32 MiB is the
# largest mmap threshold glibc accepts on 64-bit.
KEEP_HEAP_TRIM_BYTES = 256 << 20
KEEP_HEAP_MMAP_BYTES = 32 << 20

_REPLICATE_FAILURES = (
    SeparationError,
    WeightModelError,
    MonotoneLikelihoodError,
    CoxConvergenceError,
    np.linalg.LinAlgError,
)


@dataclass
class ReplicateResult:
    """One replicate's estimates, each a tuple indexed by event - 1."""

    beta_hat: tuple
    naive_se: tuple
    robust_se: tuple
    diagnostics: dict = field(default_factory=dict)
    failed: bool = False


@dataclass
class SummaryRow:
    true_beta_m: float
    true_hr: float
    mean_beta_hat: float
    mean_hr: float
    bias_pct: float
    ase: float
    ese: float
    rse: float
    n_reps: int
    n_failed: int
    # percentage bias is undefined against a null truth; such rows
    # carry the absolute bias of the log HR instead, and say so
    bias_is_absolute: bool = False
    ese_centered: float = float("nan")


def _fit(time, event, treatment, weight):
    return fit_weighted_cox(SurvivalSample(time, event, treatment, weight))


def run_replicate(config, master_seed, replicate_index=0):
    """One full generate/weight/fit pass; failures are flagged, not raised."""
    try:
        return _run_replicate_inner(config, master_seed, replicate_index)
    except _REPLICATE_FAILURES as exc:
        nans = (float("nan"), float("nan"))
        return ReplicateResult(
            nans, nans, nans,
            diagnostics={"failure": f"{type(exc).__name__}: {exc}"},
            failed=True,
        )


def _run_replicate_inner(config, master_seed, replicate_index):
    ds = gen_dataset(config, RngStream(master_seed, replicate_index))
    tw = build_treatment_weights(ds, config.scenario)
    kept = np.count_nonzero(ds["delta1"])

    diagnostics = {
        "prevalence_z1": float(ds["z1"].mean()),
        "prevalence_z2": float(ds["z2"].mean()),
        "sw1_mean": float(tw.sw1.mean()),
        "sw1_max": float(tw.sw1.max()),
        # over the rows the second-event fit keeps: sw2 is 0 elsewhere
        "sw2_mean": float(tw.sw2.sum() / kept) if kept else float("nan"),
        "sw2_max": float(tw.sw2.max()),
    }

    if config.tau is None:
        time1, time2 = ds["w1"], ds["w2"]
    else:
        diagnostics["censored_frac_event1"] = float(1.0 - ds["delta1"].mean())
        diagnostics["censored_frac_event2"] = float(1.0 - ds["delta2"].mean())
        diagnostics["censored_analysis"] = "risk-set"
        diagnostics["weight_models"] = "observed-rows"
        time1 = np.minimum(ds["w1"], config.tau)
        time2 = np.minimum(ds["w1"] + ds["w2"], config.tau)
    fit1 = _fit(time1, ds["delta1"], ds["z1"], tw.sw1)
    fit2 = _fit(time2, ds["delta2"], ds["z2"], tw.sw2)

    return ReplicateResult(
        beta_hat=(fit1.log_hr, fit2.log_hr),
        naive_se=(fit1.naive_se, fit2.naive_se),
        robust_se=(fit1.robust_se, fit2.robust_se),
        diagnostics=diagnostics,
    )


def summarize(results, truth, event):
    """Aggregate one event's estimates against the calibrated truth.

    Empirical spread is measured around the true value, so it absorbs
    bias; a mean-centered companion is also reported since the two
    diverge exactly when the estimator is biased.
    """
    results = list(results)
    if not results:
        raise ValueError("no replicate results to summarize")
    ok = [r for r in results if not r.failed]
    if not ok:
        raise ValueError("all replicates failed")
    if event not in (1, 2):
        raise ValueError("event must be 1 or 2")
    k = event - 1
    beta_m = (truth.beta_m1, truth.beta_m2)[k]
    estimates = np.asarray([r.beta_hat[k] for r in ok])
    naive = [r.naive_se[k] for r in ok]
    robust = [r.robust_se[k] for r in ok]

    r = len(estimates)
    mean_beta = float(estimates.mean())
    if beta_m == 0.0:
        bias_pct, absolute = mean_beta, True
    else:
        bias_pct, absolute = (mean_beta - beta_m) / beta_m * 100.0, False
    if r > 1:
        ese = float(np.sqrt(np.sum((estimates - beta_m) ** 2) / (r - 1)))
        ese_centered = float(np.sqrt(np.sum((estimates - mean_beta) ** 2) / (r - 1)))
    else:
        ese = ese_centered = float("nan")

    return SummaryRow(
        true_beta_m=beta_m,
        true_hr=float(np.exp(beta_m)),
        mean_beta_hat=mean_beta,
        mean_hr=float(np.exp(mean_beta)),
        bias_pct=float(bias_pct),
        ase=float(np.mean(naive)),
        ese=ese,
        rse=float(np.mean(robust)),
        n_reps=len(results),
        n_failed=len(results) - r,
        bias_is_absolute=absolute,
        ese_centered=ese_centered,
    )


def _available_cpus():
    """CPUs this process may run on, which respects affinity masks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return cpu_count()


def _worker_count(n_reps):
    cap = os.environ.get(THREAD_ENV_VAR)
    if cap is None:
        limit = _available_cpus()
    else:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ValueError(
                f"{THREAD_ENV_VAR} must be an integer, got {cap!r}"
            ) from None
    return max(1, min(limit, n_reps))


def _keep_heap():
    """Pool initializer: the worker reuses freed heap instead of trimming it.

    Does nothing where the C library has no glibc `mallopt`. On Windows,
    `CDLL(None)` raises TypeError rather than OSError.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, KEEP_HEAP_TRIM_BYTES)
    mallopt(_M_MMAP_THRESHOLD, KEEP_HEAP_MMAP_BYTES)


def run_simulation(config, truth, n_reps, master_seed):
    """Run n_reps replicates and summarize both events.

    The event-2 truth is the drift-attenuated marginal effect except
    in the fixed-covariate design, where both events share beta_m1.
    Aborts when more than 5% of replicates fail.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    workers = _worker_count(n_reps)
    args = [(config, master_seed, i) for i in range(n_reps)]
    if workers == 1:
        results = [run_replicate(*a) for a in args]
    else:
        # chunks of 8, smaller where that would leave a worker idle
        chunksize = min(8, math.ceil(n_reps / workers))
        with Pool(workers, initializer=_keep_heap) as pool:
            results = pool.starmap(run_replicate, args, chunksize=chunksize)

    n_failed = sum(r.failed for r in results)
    if n_failed > MAX_FAILURE_FRACTION * n_reps:
        raise RuntimeError(
            f"{n_failed} of {n_reps} replicates failed; "
            "results would be unreliable"
        )

    if config.scenario is Scenario.IndependentGaps:
        truth = replace(truth, beta_m2=truth.beta_m1)
    return tuple(summarize(results, truth, event) for event in (1, 2))

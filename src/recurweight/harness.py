"""Monte Carlo replication engine.

One replicate is generate -> fit weight models -> weighted Cox per
event. Replicates are seeded from disjoint substreams of one master
seed, so any execution order (serial or process pool) produces the
same numbers; aggregation walks results in replicate order.

Each replicate yields one `REPLICATE_DTYPE` row of seven float pairs,
indexed by event - 1: the estimate `log_hr`, its `naive_se` and
`robust_se`, the treated shares of z1 and z2 (`prevalence`),
`censored_frac`, and the weights' `sw_mean` and `sw_max`, where sw2's
mean is over the rows its fit keeps. A value the replicate did not
reach is nan: all that follows a failure, and `censored_frac` when the
run is uncensored. A study runs its replicates in chunks, in process
on one worker and in a pool otherwise; each chunk returns as one such
array and its failure texts.

Censored runs analyze risk sets rather than complete cases: every
subject whose previous event was observed enters the fit, carrying
the event indicator for the current event, with follow-up truncated
at the boundary tau. The second-event fit runs on the total-time
scale, min(w1 + w2, tau); a subject whose first event was censored
is not at risk for it and carries second-event weight 0, which drops
it from that fit. Without tau, event 2 is fit on the gap time w2, so
setting tau changes the time scale as well as the censoring: a tau
beyond every event time still moves the event-2 estimate (scenario 1,
prevalence 0.25, HR 1.5: a mean of 0.4102 uncensored and 0.5465 with
such a tau, against a truth of 0.4055). Inverse-censoring weights are
deliberately not part of this pipeline: the completion models sit on a
heavy-tailed covariate, and their weights are unstable enough to
dominate the fit (see the censoring demo for the comparison).

Pool workers keep the heap their last replicate freed, where glibc is
present, so the next replicate does not fault it in again; a serial
run (RECURWEIGHT_THREADS=1) leaves the caller's allocator alone.
"""

import ctypes
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from multiprocessing import Pool, cpu_count

import numpy as np

from .coxfit import (
    CoxConvergenceError,
    MonotoneLikelihoodError,
    SurvivalSample,
    fit_weighted_cox,
)
from .iptw import build_treatment_weights
from .simgen import Scenario, gen_dataset
from .statcore import RngStream, WeightModelError

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
    WeightModelError,
    MonotoneLikelihoodError,
    CoxConvergenceError,
)

REPLICATE_DTYPE = np.dtype([(name, np.float64, (2,)) for name in (
    "log_hr", "naive_se", "robust_se", "prevalence", "censored_frac",
    "sw_mean", "sw_max")])


@dataclass
class ReplicateResult:
    """One replicate's `REPLICATE_DTYPE` row and, if it failed, why."""

    row: np.void
    failure: str | None = None

    @property
    def failed(self):
        return self.failure is not None


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
    # a scalar view of a 0-d array: one writable record, like a row of the
    # array _run_chunk stacks, which is what crosses the pool
    row = np.full((), np.nan, REPLICATE_DTYPE)[()]
    try:
        ds = gen_dataset(config, RngStream(master_seed, replicate_index))
        row["prevalence"] = ds["z1"].mean(), ds["z2"].mean()
        if config.tau is not None:
            row["censored_frac"] = 1.0 - ds["delta1"].mean(), 1.0 - ds["delta2"].mean()
        tw = build_treatment_weights(ds, config.scenario)
        row["sw_mean"][0] = tw.sw1.mean()
        row["sw_max"] = tw.sw1.max(), tw.sw2.max()
        kept = np.count_nonzero(ds["delta1"])
        if kept:
            row["sw_mean"][1] = tw.sw2.sum() / kept

        if config.tau is None:
            time1, time2 = ds["w1"], ds["w2"]
        else:
            time1 = np.minimum(ds["w1"], config.tau)
            time2 = np.minimum(ds["w1"] + ds["w2"], config.tau)
        fits = (_fit(time1, ds["delta1"], ds["z1"], tw.sw1),
                _fit(time2, ds["delta2"], ds["z2"], tw.sw2))
    except _REPLICATE_FAILURES as exc:
        return ReplicateResult(row, f"{type(exc).__name__}: {exc}")
    for name in ("log_hr", "naive_se", "robust_se"):
        row[name] = [getattr(fit, name) for fit in fits]
    return ReplicateResult(row)


def _run_chunk(config, master_seed, indices):
    """One study task: the replicates `indices` as one REPLICATE_DTYPE array
    and their failure texts, so a pool's chunk pickles the dtype once."""
    results = [run_replicate(config, master_seed, i) for i in indices]
    return np.stack([r.row for r in results]), [r.failure for r in results]


def summarize(results, truth, event):
    """Aggregate one event's estimates against the calibrated truth.

    Empirical spread is measured around the true value, so it absorbs
    bias; a mean-centered companion is also reported since the two
    diverge exactly when the estimator is biased.
    """
    results = list(results)
    if not results:
        raise ValueError("no replicate results to summarize")
    ok = [r.row for r in results if not r.failed]
    if not ok:
        raise ValueError("all replicates failed")
    if event not in (1, 2):
        raise ValueError("event must be 1 or 2")
    k = event - 1
    beta_m = (truth.beta_m1, truth.beta_m2)[k]
    ok = np.stack(ok)
    estimates = ok["log_hr"][:, k]

    r = len(ok)
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
        ase=float(ok["naive_se"][:, k].mean()),
        ese=ese,
        rse=float(ok["robust_se"][:, k].mean()),
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
    The truth must be the one for config's beta_c. Aborts when more than
    5% of replicates fail.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if truth.beta_c != config.beta_c:
        raise ValueError(f"truth is for beta_c {truth.beta_c!r}, but the data are "
                         f"generated with beta_c {config.beta_c!r}")
    workers = _worker_count(n_reps)
    # chunks of 8, smaller where that would leave a worker idle; each
    # chunk is one task, handed out in order
    size = min(8, math.ceil(n_reps / workers))
    chunks = [(config, master_seed, range(n_reps)[start:start + size])
              for start in range(0, n_reps, size)]
    if workers == 1:
        parts = [_run_chunk(*chunk) for chunk in chunks]
    else:
        with Pool(workers, initializer=_keep_heap) as pool:
            parts = pool.starmap(_run_chunk, chunks, chunksize=1)
    results = [ReplicateResult(row, failure)
               for rows, failures in parts for row, failure in zip(rows, failures)]

    # failure counts per exception type, most frequent first, ties by name
    failures = Counter(sorted(r.failure.partition(":")[0] for r in results if r.failed))
    n_failed = failures.total()
    if n_failed > MAX_FAILURE_FRACTION * n_reps:
        causes = ", ".join(f"{name}: {count}" for name, count in failures.most_common())
        raise RuntimeError(f"{n_failed} of {n_reps} replicates failed ({causes}); "
                           "results would be unreliable")

    if config.scenario is Scenario.IndependentGaps:
        truth = replace(truth, beta_m2=truth.beta_m1)
    return tuple(summarize(results, truth, event) for event in (1, 2))

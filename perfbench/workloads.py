"""The benchmark's workloads: inputs, timed passes, output checks, metrics.

Every timed pass goes through the program's public entry points,
looked up as module attributes at call time: `cli.main` for the
commands a user runs and `harness.run_replicate` for the serial
replicate loop. Checks run outside the timed sections. A failed check
or a failed replicate counts against `attempted` in the result.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, replace
from multiprocessing import Pool
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import numpy as np
import scipy

from recurweight import calibrate, cli, harness, simgen
from recurweight.statcore import RngStream

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
THREAD_ENV_VAR = "RECURWEIGHT_THREADS"
# the harness sizes its pool from cpu_count(), which ignores affinity
# and cgroup limits; the benchmark pins the worker count itself
MAX_WORKERS = 2
SETUP_PROBES = 5
DUMP_NAME = "cohort.csv"
# a Cox fit holds five input columns per row (time, event, treatment,
# weight, cluster), 8 bytes each
COX_BYTES_PER_ROW = 5 * 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    options: tuple
    size: int          # --n, or --oracle-n for calibrate
    default_seed: int
    reps: int = 0      # replicates per simulate study
    check_size: int = 0  # size of the small reference-seed output checked every run
    check_reps: int = 0

    def argv(self, seed, size=None, reps=None):
        size_flag = "--oracle-n" if self.command == "calibrate" else "--n"
        argv = [self.command, *self.options, size_flag, str(size or self.size),
                "--seed", str(seed)]
        if self.command == "simulate":
            argv += ["--reps", str(reps or self.reps)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-tv", "simulate",
                 ("--scenario", "tv-treatment", "--prevalence", "0.5", "--target-hr", "2"),
                 10_000, 1234, reps=200, check_size=2_000, check_reps=8),
        Workload("sim-indep", "simulate",
                 ("--scenario", "independent", "--prevalence", "0.25", "--target-hr", "2"),
                 10_000, 1234, reps=200, check_size=2_000, check_reps=8),
        Workload("calibrate-hr2", "calibrate", ("--targets", "2", "--format", "json"),
                 1_000_000, 12345),
        Workload("generate-1m", "generate",
                 ("--scenario", "tv-treatment", "--target-hr", "2", "--out", DUMP_NAME),
                 1_000_000, 1234, check_size=1_000),
    )
}


class Gate:
    """Collects named output checks."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        entry = {"check": name, "ok": bool(ok)}
        if not ok:
            entry["detail"] = str(detail)[:2000]
        self.results.append(entry)

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results)


def set_threads(workers):
    os.environ[THREAD_ENV_VAR] = str(workers)


def run_cli(argv):
    """One `cli.main` call with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def command_output(w, code, text):
    """A command's output: captured text, or the digest of the dump file."""
    if w.command == "generate":
        ok = code == 0 and os.path.exists(DUMP_NAME)
        return (sha256_file(DUMP_NAME), os.path.getsize(DUMP_NAME)) if ok else (None, 0)
    return text


def timed_commands(w, argv, seconds):
    """Repeat one command until the timed total reaches `seconds`.

    Returns each call's wall time, exit code and output; collecting
    outputs is not timed.
    """
    times, runs = [], []
    while sum(times) < seconds:
        start = perf_counter()
        code, text = run_cli(argv)
        times.append(perf_counter() - start)
        runs.append((code, command_output(w, code, text)))
    return times, runs


def serial_pass(config, seed, reps):
    """`harness.run_replicate` over replicate indices 0..reps-1 on one worker."""
    results, seconds = [], []
    for i in range(reps):
        start = perf_counter()
        results.append(harness.run_replicate(config, seed, i))
        seconds.append(perf_counter() - start)
    return results, seconds


def study_inputs(argv):
    """The config and truth `cli.main` builds for a simulate command."""
    manifest = cli.parse_args(argv)
    truth = calibrate.lookup_calibration(manifest.target_hrs[0])
    config = simgen.config_for(
        manifest.scenario, prevalence=manifest.prevalence,
        n_subjects=manifest.n_subjects, beta_c=truth.beta_c, tau=manifest.tau,
    )
    return config, truth


def _f4(value):
    return f"{value:.4f}"


def summary_columns(results, config, truth):
    """The estimate columns of the summary CSV, rebuilt from replicate results."""
    if config.scenario is simgen.Scenario.IndependentGaps:
        truth = replace(truth, beta_m2=truth.beta_m1)
    rows = []
    for event in (1, 2):
        s = harness.summarize(results, truth, event)
        rows.append({
            "true_log_hr": _f4(s.true_beta_m), "true_hr": _f4(s.true_hr),
            "est_log_hr": _f4(s.mean_beta_hat), "est_hr": _f4(s.mean_hr),
            "bias_pct": _f4(s.bias_pct), "ase": _f4(s.ase), "ese": _f4(s.ese),
            "rse": _f4(s.rse), "reps": str(s.n_reps), "failed": str(s.n_failed),
        })
    return rows


def csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def reference_check(w, gate):
    """Byte-identical output at the reference seed, at a small size, every run."""
    ref = REFERENCE[w.name]
    if "small_digest" not in ref:
        return
    set_threads(1)
    code, text = run_cli(w.argv(w.default_seed, w.check_size, w.check_reps))
    output = command_output(w, code, text)
    digest = output[0] if w.command == "generate" else sha256_text(output)
    gate.check("small reference output matches the seed-commit digest",
               code == 0 and digest == ref["small_digest"], digest)


def peak_rss_mb():
    """Largest resident set of this process or any child it has waited for, in 10^6 B."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def setup_seconds(workers):
    """Median start-up time over fresh interpreters (see setup_probe.py)."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workers)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return median(times)


def pool_overhead_seconds(workers, repeats=3):
    """Start a pool of the harness's size, answer one task per worker, shut down."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with Pool(workers) as pool:
            pool.map(abs, range(workers), chunksize=1)
        times.append(perf_counter() - start)
    return median(times)


def _system_int(argv):
    """The integer a system command prints, or None where it is unavailable."""
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_info(workers):
    return {
        "nproc": _system_int(["nproc"]),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": _system_int(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _system_int(["getconf", "LEVEL3_CACHE_SIZE"]),
    }


def computed_working_set(w):
    """Bytes the workload's biggest arrays take, computed from sizes, not measured."""
    if w.command == "calibrate":
        return {"census_bytes": w.size * simgen.ORACLE_DTYPE.itemsize,
                "largest_cox_fit_bytes": 2 * w.size * COX_BYTES_PER_ROW}
    cohort = w.size * simgen.SUBJECT_DTYPE.itemsize
    if w.command == "generate":
        return {"cohort_bytes": cohort}
    stacked = "independent" in w.options
    return {"cohort_bytes": cohort,
            "largest_cox_fit_bytes": (2 if stacked else 1) * w.size * COX_BYTES_PER_ROW}


def workers_for_run():
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))


class Run:
    """State of one benchmark run: the workload, its gate and its counts."""

    def __init__(self, w, seed, seconds, workers):
        self.w, self.seed, self.seconds, self.workers = w, seed, seconds, workers
        self.argv = w.argv(seed)
        self.gate = Gate()
        self.ops = 0           # replicates, solves or dumps attempted
        self.failed_ops = 0
        self.info = {}
        self.runs = []         # (exit code, output) per command
        self.serial, self.serial_s = [], []
        self.rows_out = self.bytes_out = 0

    def untraced(self):
        """The timed end-to-end pass; returns per-command times."""
        set_threads(self.workers if self.w.command == "simulate" else 1)
        times, runs = timed_commands(self.w, self.argv, self.seconds)
        self.runs = runs
        if self.w.command == "simulate":
            self.config, self.truth = study_inputs(self.argv)
            set_threads(1)
            self.serial, self.serial_s = serial_pass(self.config, self.seed, self.w.reps)
        self.peak_rss_mb = peak_rss_mb()
        self.info["command_s"] = times
        return times

    def check(self):
        w, gate = self.w, self.gate
        reference = REFERENCE[w.name]
        at_reference = self.seed == w.default_seed
        for code, output in self.runs:
            gate.check("command exits 0", code == 0, code)
        outputs = [output for _, output in self.runs]
        gate.check("every repeat of the command gives the same output",
                   all(o == outputs[0] for o in outputs))
        if w.command == "simulate":
            self.ops += len(self.runs) * w.reps + len(self.serial)
            self.failed_ops += sum(r.failed for r in self.serial)
            try:
                expected = summary_columns(self.serial, self.config, self.truth)
            except ValueError as exc:  # every serial replicate failed
                expected = [{"error": str(exc)}]
            for text in outputs:
                rows = csv_rows(text)
                self.failed_ops += int(rows[0]["failed"]) if rows else w.reps
                got = [{k: row.get(k) for k in expected[0]} for row in rows]
                gate.check("parallel cli rows equal the summarised serial pass",
                           got == expected, f"{got} != {expected}")
            if at_reference:
                gate.check("output matches the seed-commit digest",
                           sha256_text(outputs[0]) == reference["digest"])
        elif w.command == "calibrate":
            self.ops += len(self.runs)
            for text in outputs:
                self._check_calibration(text, reference)
        else:
            self.ops += len(self.runs)
            if at_reference:
                gate.check("dump matches the seed-commit digest",
                           outputs[0][0] == reference["digest"], outputs[0][0])
            if os.path.exists(DUMP_NAME):
                self._check_round_trip()
            else:
                gate.check("dump parses back to gen_dataset exactly", False, "no dump")
        reference_check(w, gate)

    def _check_calibration(self, text, ref):
        try:
            row = json.loads(text)["rows"][0]
            values = {k: float(row[k]) for k in ("beta_c", "beta_m2", "achieved_beta_m1")}
        except (ValueError, KeyError, IndexError, TypeError):
            self.gate.check("calibration output parses", False, text[:200])
            return
        for key in ("beta_c", "beta_m2"):
            self.gate.check(f"{key} within {ref['bound']} of the table",
                            abs(values[key] - ref[key]) <= ref["bound"], values[key])
        achieved = values["achieved_beta_m1"]
        self.gate.check("achieved beta_m1 within the entry's tolerance",
                        abs(achieved - ref["beta_m1"]) <= ref["tolerance"], achieved)

    def _check_round_trip(self):
        """Parse the dump back; it must equal gen_dataset at the same seed exactly."""
        n_meta, header = 0, ""
        with open(DUMP_NAME, encoding="utf-8") as fh:
            for line in fh:
                n_meta += 1
                if not line.startswith("#"):
                    header = line.strip()
                    break
        data = np.loadtxt(DUMP_NAME, delimiter=",", skiprows=n_meta, ndmin=2)
        self.rows_out = data.shape[0]
        self.bytes_out = os.path.getsize(DUMP_NAME)
        manifest = cli.parse_args(self.argv)
        entry = calibrate.lookup_calibration(manifest.target_hrs[0])
        config = simgen.config_for(manifest.scenario, prevalence=manifest.prevalence,
                                   n_subjects=manifest.n_subjects, beta_c=entry.beta_c)
        expected = simgen.gen_dataset(config, RngStream(self.seed))
        columns = header.split(",")
        ok = columns == list(expected.dtype.names) and data.shape[0] == len(expected)
        ok = ok and all(np.array_equal(data[:, j], expected[name].astype(float))
                        for j, name in enumerate(columns))
        self.gate.check("dump parses back to gen_dataset exactly", ok, header)

    def totals(self):
        """(attempted, failed): operations plus checks, failed operations plus checks."""
        return self.ops + len(self.gate.results), self.failed_ops + self.gate.failed

    def result(self, metrics):
        attempted, failed = self.totals()
        return {
            "correct": self.gate.failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def end_to_end(w, seed, seconds):
    workers = workers_for_run()
    run = Run(w, seed, seconds, workers)
    setup_s = setup_seconds(workers if w.command == "simulate" else 0)
    times = run.untraced()
    run.check()
    metrics = {
        "setup_s": (setup_s, "s"),
        "command_s": (median(times), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    return run, metrics


def traced(w, seed, seconds, trace_path):
    """Untraced pass, then the same serial work under spans on one worker."""
    import spans

    workers = workers_for_run()
    run = Run(w, seed, seconds, workers)
    times = run.untraced()
    run.check()
    unit = {"simulate": "harness.run_replicate",
            "calibrate": "calibrate.calibrate_beta_c",
            "generate": "cli.main"}[w.command]
    tracer = spans.Tracer(unit)
    set_threads(1)
    with tracer:
        if w.command == "simulate":
            results, traced_s = serial_pass(run.config, seed, w.reps)
            same = repr(results) == repr(run.serial)
            overhead_s = sum(traced_s) - sum(run.serial_s)
            base_s = sum(run.serial_s)
        else:
            start = perf_counter()
            code, text = run_cli(run.argv)
            overhead_s = perf_counter() - start - median(times)
            base_s = median(times)
            same = run.runs[0] == (code, command_output(w, code, text))
    run.gate.check("traced estimates equal untraced", same)
    for name in tracer.missing:
        print(f"trace: missing span target {name}", file=sys.stderr)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "seed": seed, **tracer.to_json()}, fh)

    metrics = spans.layer_metrics(tracer)
    simulate = w.command == "simulate"
    reps_per_s = w.reps / median(times) if simulate else 0.0
    serial_mean_s = sum(run.serial_s) / len(run.serial_s) if simulate else 0.0
    latencies_ms = sorted(1e3 * s for s in run.serial_s) if simulate else []
    attempted, failed = run.totals()
    metrics.update({
        "reps_per_s": (reps_per_s, "1/s"),
        "replicate_ms_p50": (median(latencies_ms) if latencies_ms else 0.0, "ms"),
        "replicate_ms_p95": (quantiles(latencies_ms, n=20)[18] if latencies_ms else 0.0, "ms"),
        "replicate_samples": (len(latencies_ms), "count"),
        "calibrate_s": (median(times) if w.command == "calibrate" else 0.0, "s"),
        "rows_per_s": (run.rows_out / median(times) if w.command == "generate" else 0.0, "1/s"),
        "cli.rows_out": (run.rows_out, "count"),
        "cli.bytes_out": (run.bytes_out, "B"),
        "harness.parallel_efficiency": (
            reps_per_s * serial_mean_s / workers if simulate else 0.0, "ratio"),
        "harness.pool_overhead_s": (
            pool_overhead_seconds(workers) if simulate else 0.0, "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (overhead_s / base_s, "ratio"),
    })
    return run, metrics


def run_workload(w, seed, seconds, trace, trace_path):
    if trace:
        run, metrics = traced(w, seed, seconds, trace_path)
    else:
        run, metrics = end_to_end(w, seed, seconds)
    run.info.update({
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "argv": run.argv, "machine": machine_info(run.workers),
        "computed_working_set": computed_working_set(w),
        "checks": run.gate.results,
    })
    return run.info, run.result(metrics)

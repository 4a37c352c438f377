"""Span tracing for the traced benchmark run, installed from outside the program.

Each layer is timed by replacing one of its public functions with a
wrapper at the module attribute where the caller looks it up, e.g.
`harness.fit_weighted_cox` (what `harness._fit` calls), not
`coxfit.fit_weighted_cox`. A wrapper records one span: name, start,
end, parent span, the id shared by every span of one unit of work (a
replicate, a solve or a dump), and a few counts taken from the call.

A target that no longer exists, after a refactor say, is recorded as
missing and skipped; tracing never fails the run. The end-to-end runs
never import this module.
"""

import functools
import importlib
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter


def _cox_counts(args, result):
    return {"rows": len(args[0].time), "iters": result.n_iter}


def _logistic_counts(args, result):
    return {"iters": result.n_iter}


# (module, attribute the caller looks up, span name, counts taken from the call)
TARGETS = (
    ("recurweight.cli", "main", "cli.main", None),
    ("recurweight.cli", "gen_dataset", "simgen.gen_dataset", None),
    ("recurweight.cli", "calibrate_beta_c", "calibrate.calibrate_beta_c", None),
    ("recurweight.calibrate", "marginal_hr_oracle", "calibrate.marginal_hr_oracle", None),
    ("recurweight.calibrate", "gen_potential_outcomes", "simgen.gen_potential_outcomes", None),
    ("recurweight.calibrate", "fit_weighted_cox", "coxfit.fit_weighted_cox", _cox_counts),
    ("recurweight.harness", "run_replicate", "harness.run_replicate", None),
    ("recurweight.harness", "gen_dataset", "simgen.gen_dataset", None),
    ("recurweight.harness", "build_treatment_weights", "iptw.build_treatment_weights", None),
    ("recurweight.harness", "fit_weighted_cox", "coxfit.fit_weighted_cox", _cox_counts),
    ("recurweight.iptw", "fit_logistic", "statcore.fit_logistic", _logistic_counts),
    ("recurweight.coxfit", "robust_variance", "coxfit.robust_variance", None),
)


@dataclass
class Span:
    span_id: int
    parent_id: int
    trace_id: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Installs the wrappers, keeps spans in memory, restores on uninstall.

    unit_name is the span that starts a new trace id: one replicate,
    solve or dump. Every other span inherits its parent's trace id.
    """

    def __init__(self, unit_name, targets=TARGETS):
        self.unit_name = unit_name
        self.targets = targets
        self.spans = []
        self.missing = []
        self._stack = []
        self._installed = []

    def install(self):
        for module_name, attr, name, counts in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name, counts))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, func, name, counts):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = len(self.spans)
            if parent is None or name == self.unit_name:
                trace_id = span_id
            else:
                trace_id = parent.trace_id
            span = Span(span_id, -1 if parent is None else parent.span_id,
                        trace_id, name, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    span.counts = counts(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the counts, not the run
            return result

        return traced

    def to_json(self):
        return {
            "unit": self.unit_name,
            "missing": self.missing,
            "spans": [vars(s) for s in self.spans],
        }


def _p50_ms(values):
    return 1e3 * median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer):
    """Per-layer figures from the spans; a layer never reached reads 0.

    Self time is a span's duration minus its child spans' durations.
    The traced run is single-threaded, so children never overlap and
    their sum is the time they cover.
    """
    spans = tracer.spans
    by_name = {}
    child_time = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent_id >= 0:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def self_times(name):
        return [s.duration - child_time.get(s.span_id, 0.0) for s in by_name.get(name, ())]

    def counts(name, key):
        return [s.counts[key] for s in by_name.get(name, ()) if key in s.counts]

    def within(span, ancestor_name):
        while span.parent_id >= 0:
            span = spans[span.parent_id]
            if span.name == ancestor_name:
                return True
        return False

    units = max(1, len(by_name.get(tracer.unit_name, ())))
    fit_s = sum(durations("coxfit.fit_weighted_cox"))
    sandwich_s = sum(durations("coxfit.robust_variance"))
    oracle_s = sum(durations("calibrate.marginal_hr_oracle"))
    discarded_s = sum(
        s.duration for s in by_name.get("coxfit.robust_variance", ())
        if within(s, "calibrate.marginal_hr_oracle")
    )
    rows = counts("coxfit.fit_weighted_cox", "rows")
    return {
        "simgen.gen_dataset.ms_p50": (_p50_ms(durations("simgen.gen_dataset")), "ms"),
        "simgen.gen_potential_outcomes.ms_p50": (
            _p50_ms(durations("simgen.gen_potential_outcomes")), "ms"),
        "statcore.fit_logistic.calls_per_rep": (
            len(by_name.get("statcore.fit_logistic", ())) / units, "count"),
        "statcore.fit_logistic.ms_p50": (_p50_ms(durations("statcore.fit_logistic")), "ms"),
        "statcore.fit_logistic.irls_iters": (
            _mean(counts("statcore.fit_logistic", "iters")), "count"),
        "iptw.build_treatment_weights.self_ms_p50": (
            _p50_ms(self_times("iptw.build_treatment_weights")), "ms"),
        "coxfit.fit_weighted_cox.calls_per_rep": (
            len(by_name.get("coxfit.fit_weighted_cox", ())) / units, "count"),
        "coxfit.fit_weighted_cox.rows_per_call": (_mean(rows), "count"),
        "coxfit.fit_weighted_cox.newton_iters": (
            _mean(counts("coxfit.fit_weighted_cox", "iters")), "count"),
        "coxfit.fit_weighted_cox.self_ms_p50": (
            _p50_ms(self_times("coxfit.fit_weighted_cox")), "ms"),
        "coxfit.robust_variance.ms_p50": (_p50_ms(durations("coxfit.robust_variance")), "ms"),
        "coxfit.robust_variance.share": (sandwich_s / fit_s if fit_s else 0.0, "ratio"),
        "harness.run_replicate.self_ms_p50": (
            _p50_ms(self_times("harness.run_replicate")), "ms"),
        "calibrate.oracle_calls": (
            len(by_name.get("calibrate.marginal_hr_oracle", ()))
            / max(1, len(by_name.get("calibrate.calibrate_beta_c", ()))), "count"),
        "calibrate.marginal_hr_oracle.ms_p50": (
            _p50_ms(durations("calibrate.marginal_hr_oracle")), "ms"),
        "calibrate.marginal_hr_oracle.self_ms_p50": (
            _p50_ms(self_times("calibrate.marginal_hr_oracle")), "ms"),
        "calibrate.discarded_share": (discarded_s / oracle_s if oracle_s else 0.0, "ratio"),
        "cli.main.self_s": (median(self_times("cli.main")) if "cli.main" in by_name else 0.0,
                            "s"),
        "trace.missing_spans": (len(tracer.missing), "count"),
    }

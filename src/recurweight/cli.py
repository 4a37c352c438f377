"""Command-line front end.

Three subcommands: `calibrate` solves the marginal-to-conditional
mapping fresh and emits the five-column table, `simulate` runs the
Monte Carlo study for a list of marginal HR targets (published
calibration entries are used when a target is on the standard grid,
unless --recalibrate forces a fresh solve), and `generate` dumps one
raw cohort for cross-checking against other software.

Every emitted file carries the full run manifest as comment lines (or
a metadata object in JSON), and nothing volatile like timestamps, so
re-running a file's recorded command reproduces it byte for byte.

Summary CSV rows are one per (target, event), event 1 before event 2;
the event number itself is not a column, to keep the pinned 15-column
schema. Rows with a null true effect report absolute log-HR bias in
the bias_pct column, marked in md and JSON, noted in CSV comments.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import InitVar, asdict, dataclass, fields, replace

import numpy as np

from . import __version__, simgen
from .calibrate import ORACLE_SCENARIO, calibrate_beta_c, lookup_calibration
from .harness import run_simulation
from .simgen import ScenarioConfig, gen_blocks, write_dataset_csv
# perfbench/spans.py wraps this name as a span target; generate streams
# gen_blocks and never calls it. It goes together with that target.
from .simgen import gen_dataset  # noqa: F401
from .statcore import RngStream

SCENARIO_BY_NAME = {"independent": 1, "tv-covariates": 2, "tv-treatment": 3}

SUMMARY_COLUMNS = (
    "scenario",
    "prevalence",
    "tau",
    "true_log_hr",
    "true_hr",
    "est_log_hr",
    "est_hr",
    "bias_pct",
    "ase",
    "ese",
    "rse",
    "n",
    "reps",
    "seed",
    "failed",
)

CALIBRATION_COLUMNS = ("beta_m1", "hr1", "beta_c", "beta_m2", "hr2")

DEFAULT_MASTER_SEED = 1234
# the oracle is exact and takes no size; simulate and generate manifests
# still record the value of the ignored --oracle-n, this by default
DEFAULT_ORACLE_N = 1_000_000
_IGNORED = "ignored: the marginal-HR oracle is exact"


@dataclass
class RunManifest:
    """Everything needed to reproduce one invocation.

    Fields print in this order: config, the run's ScenarioConfig, with
    its intercepts and simgen's fixed design. The command runs config with
    each target's beta_c and fills in beta_c_values once the truth is known.
    """

    command: str
    config: InitVar[ScenarioConfig]
    scenario: int = None
    n_subjects: int = None
    alpha0: float = None
    alpha1: float = simgen.ALPHA1
    gamma0: float = None
    gamma1: float = simgen.GAMMA1
    gamma2: float = simgen.GAMMA2
    beta1: float = simgen.BETA1
    baseline_rate: float = simgen.BASELINE_RATE
    drift_sd: float = simgen.DRIFT_SD
    tau: float = None
    prevalence: float = None
    target_hrs: tuple = None
    n_reps: int = None
    master_seed: int = None
    output_format: str = None
    output_path: str = None
    recalibrate: bool = None
    oracle_n: int = None
    beta_c_values: tuple = ()

    def __post_init__(self, config):
        self.config = config
        for f in fields(config):
            if f.name != "beta_c":  # one per target: beta_c_values
                setattr(self, f.name, getattr(config, f.name))
        # a plain int: on Python 3.10, str() of an IntEnum member is its name
        self.scenario = int(config.scenario)
        self.alpha0 = simgen.ALPHA0_BY_PREVALENCE[config.prevalence]
        self.gamma0 = simgen.GAMMA0_BY_PREVALENCE[config.prevalence]


# the manifest fields a calibration solve reads; the others are study inputs
_CALIBRATE_FIELDS = (
    "command", "scenario", "beta1", "baseline_rate", "drift_sd", "target_hrs",
    "output_format", "output_path", "beta_c_values",
)


def _parse_targets(text, parser):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        parser.error(f"cannot parse target list {text!r}")
    if any(v < 1.0 for v in values):
        parser.error("target hazard ratios must be >= 1")
    if not np.all(np.isfinite(values)):
        parser.error("target hazard ratios must be finite")
    return values


def _positive(kind, name):
    def convert(text):
        value = kind(text)
        if not 0 < value < np.inf:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{name} must be positive and finite")
        return value

    return convert


def _add_common(sub, target_hr):
    sub.add_argument(
        "--scenario", choices=sorted(SCENARIO_BY_NAME), default=None
    )
    sub.add_argument("--n", type=int, default=10_000)
    sub.add_argument(
        "--prevalence", type=float, choices=[0.25, 0.5], default=0.25
    )
    sub.add_argument("--target-hr", default=target_hr)
    sub.add_argument("--tau", type=float, default=None)
    sub.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    sub.add_argument("--out", default=None)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="recurweight",
        description="Weighted-Cox simulation engine for two-gap-time data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cal = commands.add_parser("calibrate", help="solve the effect mapping")
    cal.add_argument("--targets", default="1,1.5,2,2.5,3")
    cal.add_argument("--oracle-n", type=_positive(int, "--oracle-n"),
                     default=None, help=_IGNORED)
    cal.add_argument("--seed", type=int, default=None, help=_IGNORED)
    cal.add_argument("--format", choices=["csv", "md", "json"], default="csv")
    cal.add_argument("--out", default=None)

    sim = commands.add_parser("simulate", help="run the Monte Carlo study")
    _add_common(sim, target_hr="1.5,2,2.5,3")
    sim.add_argument("--reps", type=_positive(int, "--reps"), default=1_000)
    sim.add_argument("--format", choices=["csv", "md", "json"], default="csv")
    sim.add_argument("--recalibrate", action="store_true")
    sim.add_argument("--oracle-n", type=_positive(int, "--oracle-n"),
                     default=DEFAULT_ORACLE_N, help=_IGNORED)

    gen = commands.add_parser("generate", help="dump one raw cohort as CSV")
    _add_common(gen, target_hr="1.5")
    gen.set_defaults(reps=0, format="csv", recalibrate=False,
                     oracle_n=DEFAULT_ORACLE_N)

    args = parser.parse_args(argv)
    # checks after parsing print the subcommand's usage, as argparse's own do
    usage = commands.choices[args.command]

    if args.command == "calibrate":
        return RunManifest(
            command="calibrate",
            config=ScenarioConfig(scenario=ORACLE_SCENARIO),
            target_hrs=_parse_targets(args.targets, usage),
            output_format=args.format,
            output_path=args.out,
        )

    # the config is the one check of --n and --tau
    try:
        config = ScenarioConfig(SCENARIO_BY_NAME[args.scenario or "independent"],
                                prevalence=args.prevalence, n_subjects=args.n,
                                tau=args.tau)
    except ValueError as exc:
        usage.error(str(exc))
    if args.seed < 0:
        usage.error("--seed must be non-negative")
    if args.tau is not None and args.scenario is None:
        usage.error("--tau requires an explicit --scenario")
    targets = _parse_targets(args.target_hr, usage)
    if args.command == "generate" and len(targets) != 1:
        usage.error("generate takes exactly one --target-hr value")
    return RunManifest(
        command=args.command,
        config=config,
        target_hrs=targets,
        n_reps=args.reps,
        master_seed=args.seed,
        output_format=args.format,
        output_path=args.out,
        recalibrate=args.recalibrate,
        oracle_n=args.oracle_n,
    )


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _manifest_items(manifest):
    items = asdict(manifest)
    if manifest.command == "calibrate":
        return {key: items[key] for key in _CALIBRATE_FIELDS}
    return items


def _manifest_lines(manifest, comment):
    lines = [f"{comment} recurweight {__version__} {manifest.command}"]
    for key, value in _manifest_items(manifest).items():
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        lines.append(f"{comment} {key}: {value}")
    return lines


@contextmanager
def _output(path):
    """Text handle for one emitted file: stdout when path is None."""
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _render(rows, output_format, path, manifest, columns, md_header, md_cells,
            notes=(), footnote=None):
    """Write rows as CSV (the given columns), markdown or JSON (every key).

    CSV puts the notes under the manifest as `#` lines; markdown puts
    the footnote under the table; JSON prints non-finite floats as null.
    """
    if output_format == "csv":
        lines = _manifest_lines(manifest, "#")
        lines.extend(f"# {note}" for note in notes)
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(row[c]) for c in columns) for row in rows)
    elif output_format == "md":
        lines = _manifest_lines(manifest, ">")
        lines.append("")
        table = [md_header, ["---"] * len(md_header), *map(md_cells, rows)]
        lines.extend("| " + " | ".join(cells) + " |" for cells in table)
        if footnote is not None:
            lines.extend(["", footnote])
    elif output_format == "json":
        payload = {
            "package": f"recurweight {__version__}",
            "manifest": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in _manifest_items(manifest).items()
            },
            "rows": [
                {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
                 for k, v in row.items()}
                for row in rows
            ],
        }
        lines = [json.dumps(payload, indent=2)]
    else:
        raise ValueError(f"unknown format {output_format!r}")
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_md_cells(r):
    if r["bias_is_absolute"]:
        bias = f"{r['bias_pct']:.4f}*"
    else:
        bias = f"{r['bias_pct']:.2f}%"
    return [
        str(r["event"]),
        _fmt(r["true_log_hr"]), _fmt(r["true_hr"]),
        _fmt(r["est_log_hr"]), _fmt(r["est_hr"]),
        bias, _fmt(r["ase"]), _fmt(r["ese"]), _fmt(r["rse"]),
    ]


def emit_table(rows, output_format, path, manifest):
    """Write summary rows in the pinned schema; see module docstring."""
    if not rows:
        raise ValueError("no rows to emit")
    notes = ["rows: per target, event-1 row precedes event-2 row"]
    footnote = None
    if any(r["bias_is_absolute"] for r in rows):
        notes.append(
            "rows with true_log_hr 0.0000 report absolute log-HR bias "
            "in bias_pct"
        )
        footnote = "\\* absolute log-HR bias (null true effect)"
    header = ["Event", "True log HR", "True HR", "Est log HR", "Est HR",
              "Bias", "ASE", "ESE", "RSE"]
    _render(rows, output_format, path, manifest, SUMMARY_COLUMNS,
            header, _summary_md_cells, notes, footnote)


def emit_calibration(entries, target_hrs, output_format, path, manifest):
    """Five-column mapping table; hr1 is the requested target verbatim."""
    rows = []
    for hr, entry in zip(target_hrs, entries):
        rows.append({
            "beta_m1": entry.beta_m1,
            "hr1": hr,
            "beta_c": entry.beta_c,
            "beta_m2": entry.beta_m2,
            "hr2": float(np.exp(entry.beta_m2)),
            "achieved_beta_m1": entry.achieved_beta_m1,
            "tolerance": entry.tolerance,
        })
    header = ["True log marginal HR", "True HR", "True log conditional HR",
              "True log marginal HR (event 2)", "True HR (event 2)"]
    _render(
        rows, output_format, path, manifest, CALIBRATION_COLUMNS, header,
        lambda r: [_fmt(r["beta_m1"]), f"{r['hr1']:g}", _fmt(r["beta_c"]),
                   _fmt(r["beta_m2"]), _fmt(r["hr2"])],
    )


def _resolve_entry(hr, manifest):
    cached = None if manifest.recalibrate else lookup_calibration(hr)
    if cached is not None:
        return cached
    return calibrate_beta_c(float(np.log(hr)))


def _cmd_calibrate(manifest):
    entries = tuple(
        calibrate_beta_c(float(np.log(hr))) for hr in manifest.target_hrs
    )
    manifest.beta_c_values = tuple(e.beta_c for e in entries)
    emit_calibration(
        entries,
        manifest.target_hrs,
        manifest.output_format,
        manifest.output_path,
        manifest,
    )
    return 0


def _cmd_simulate(manifest):
    entries = [(hr, _resolve_entry(hr, manifest)) for hr in manifest.target_hrs]
    manifest.beta_c_values = tuple(e.beta_c for _, e in entries)
    rows = []
    for hr, entry in entries:
        config = replace(manifest.config, beta_c=entry.beta_c)
        for event, summary in enumerate(
            run_simulation(config, entry, manifest.n_reps, manifest.master_seed),
            start=1,
        ):
            rows.append({
                "event": event,
                "scenario": manifest.scenario,
                "prevalence": manifest.prevalence,
                "tau": manifest.tau,
                "true_log_hr": summary.true_beta_m,
                "true_hr": summary.true_hr,
                "est_log_hr": summary.mean_beta_hat,
                "est_hr": summary.mean_hr,
                "bias_pct": summary.bias_pct,
                "ase": summary.ase,
                "ese": summary.ese,
                "rse": summary.rse,
                "n": manifest.n_subjects,
                "reps": summary.n_reps,
                "seed": manifest.master_seed,
                "failed": summary.n_failed,
                "bias_is_absolute": summary.bias_is_absolute,
                "ese_centered": summary.ese_centered,
            })
    emit_table(rows, manifest.output_format, manifest.output_path, manifest)
    return 0


def _cmd_generate(manifest):
    entry = _resolve_entry(manifest.target_hrs[0], manifest)
    manifest.beta_c_values = (entry.beta_c,)
    config = replace(manifest.config, beta_c=entry.beta_c)
    with _output(manifest.output_path) as fh:
        fh.write("\n".join(_manifest_lines(manifest, "#")) + "\n")
        write_dataset_csv(gen_blocks(config, RngStream(manifest.master_seed)), fh)
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
}


def main(argv=None):
    try:
        manifest = parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _COMMANDS[manifest.command](manifest)
    except BrokenPipeError:
        # the reader closed stdout (`| head`; --out files raise RuntimeError):
        # point stdout at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line tests on small workloads.

Full-scale runs belong to the acceptance suite; these check parsing,
the pinned output schemas, provenance embedding, and exit codes.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import recurweight
from recurweight import cli
from recurweight.calibrate import lookup_calibration
from recurweight.cli import (
    CALIBRATION_COLUMNS,
    SUMMARY_COLUMNS,
    emit_calibration,
    emit_table,
    main,
    parse_args,
)
from recurweight import simgen
from recurweight.simgen import ScenarioConfig


def run_cli(args):
    return main(args)


def test_parse_simulate_example():
    m = parse_args(
        "simulate --scenario tv-treatment --prevalence 0.5 --target-hr 2 "
        "--n 10000 --reps 1000 --seed 7".split()
    )
    assert m.command == "simulate"
    assert m.scenario == 3
    assert m.gamma0 == pytest.approx(-0.1000)
    assert m.alpha0 == 0.0
    assert m.target_hrs == (2.0,)
    assert m.n_reps == 1000
    assert m.master_seed == 7
    assert m.prevalence == 0.5


def test_parse_defaults_mirror_study_design():
    m = parse_args(["simulate", "--scenario", "independent"])
    assert m.n_subjects == 10_000
    assert m.n_reps == 1_000
    assert m.baseline_rate == 1.0
    assert m.alpha1 == pytest.approx(np.log(1.5))
    assert m.prevalence == 0.25
    assert m.alpha0 == pytest.approx(-1.1392)


def test_usage_errors_exit_2(capsys):
    assert run_cli(["simulate", "--tau", "-1"]) == 2
    assert run_cli(["simulate", "--tau", "0.5"]) == 2  # tau without scenario
    for tau in ("nan", "inf"):
        assert run_cli(["simulate", "--scenario", "independent", "--tau", tau,
                        "--n", "3", "--reps", "1"]) == 2
        assert run_cli(["generate", "--scenario", "independent", "--tau", tau,
                        "--n", "3", "--target-hr", "2"]) == 2
    assert run_cli(["simulate", "--no-such-flag"]) == 2
    assert run_cli(["simulate", "--prevalence", "0.3"]) == 2
    assert run_cli(["generate", "--target-hr", "1.5,2"]) == 2
    assert run_cli(["simulate", "--target-hr", "0.8"]) == 2
    assert run_cli(["calibrate", "--targets", "nan"]) == 2
    assert run_cli(["generate", "--target-hr", "inf"]) == 2
    assert run_cli(["generate", "--n", "1"]) == 2
    capsys.readouterr()
    assert run_cli(["simulate", "--n", "1"]) == 2
    # a check made after parsing prints the subcommand's usage, as argparse's do
    assert capsys.readouterr().err.startswith("usage: recurweight simulate [-h]")
    assert run_cli(["generate", "--seed", "-1"]) == 2
    assert run_cli(["simulate", "--seed", "-1"]) == 2
    capsys.readouterr()


def _fresh_interpreter(code):
    src = str(Path(recurweight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests
    code = "import sys, recurweight.cli; print('scipy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_cli_import_loads_no_numpy_polynomial():
    # the oracle's Gauss-Hermite rule ships as a table, so neither the
    # import nor a calibration solve loads numpy.polynomial, whose
    # hermegauss would run a LAPACK eigensolve
    code = (
        "import math, sys, recurweight.cli\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "recurweight.cli.calibrate_beta_c(math.log(2.0))\n"
        "print(before, 'numpy.polynomial' in sys.modules)"
    )
    assert _fresh_interpreter(code) == "False False"


def test_simulate_csv_schema(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli(
        "simulate --scenario tv-covariates --target-hr 1.5 --n 600 --reps 3 "
        f"--seed 5 --out {out}".split()
    )
    assert code == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == ",".join(SUMMARY_COLUMNS)
    assert len(data) == 3  # header + one row per event
    for row in data[1:]:
        assert len(row.split(",")) == 15
    # manifest provenance in comments
    text = "\n".join(comments)
    for key in ("command: simulate", "n_subjects: 600", "master_seed: 5",
                "scenario: 2", "beta_c_values: 0.4599"):
        assert key in text
    # event-1 row first: truths differ under drift
    first = dict(zip(SUMMARY_COLUMNS, data[1].split(",")))
    second = dict(zip(SUMMARY_COLUMNS, data[2].split(",")))
    assert first["true_log_hr"] == "0.4055"
    assert second["true_log_hr"] == "0.2085"
    assert first["tau"] == ""


def test_simulate_stdout_default(capsys):
    code = run_cli(
        "simulate --scenario independent --target-hr 1.5 --n 500 --reps 2 "
        "--seed 9".split()
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert ",".join(SUMMARY_COLUMNS) in captured


def test_simulate_json_structure(tmp_path):
    out = tmp_path / "run.json"
    code = run_cli(
        "simulate --scenario tv-treatment --target-hr 1.5 --n 800 --reps 3 "
        f"--seed 5 --format json --out {out}".split()
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["manifest"]["command"] == "simulate"
    assert payload["manifest"]["tau"] is None
    rows = payload["rows"]
    assert [r["event"] for r in rows] == [1, 2]
    assert all("ese_centered" in r for r in rows)
    assert rows[1]["true_log_hr"] == pytest.approx(0.2085)


def test_simulate_md_layout(tmp_path):
    out = tmp_path / "run.md"
    code = run_cli(
        "simulate --scenario independent --target-hr 1.5 --n 500 --reps 2 "
        f"--seed 5 --format md --out {out}".split()
    )
    assert code == 0
    text = out.read_text()
    assert "| Event | True log HR | True HR |" in text
    assert text.count("\n| 1 |") == 1
    assert text.count("\n| 2 |") == 1
    assert "> command: simulate" in text


def test_null_target_marks_absolute_bias(tmp_path):
    out = tmp_path / "null.csv"
    code = run_cli(
        "simulate --scenario independent --target-hr 1 --n 500 --reps 2 "
        f"--seed 5 --out {out}".split()
    )
    assert code == 0
    text = out.read_text()
    assert "absolute log-HR bias" in text
    json_out = tmp_path / "null.json"
    run_cli(
        "simulate --scenario independent --target-hr 1 --n 500 --reps 2 "
        f"--seed 5 --format json --out {json_out}".split()
    )
    rows = json.loads(json_out.read_text())["rows"]
    assert all(r["bias_is_absolute"] for r in rows)
    assert all(r["true_log_hr"] == 0.0 for r in rows)


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd = "simulate --scenario tv-treatment --target-hr 1.5 --n 700 --reps 3 --seed 11"
    assert run_cli(cmd.split() + ["--out", str(a)]) == 0
    first = a.read_bytes()
    assert run_cli(cmd.split() + ["--out", str(a)]) == 0
    assert a.read_bytes() == first
    # a different destination differs only in its recorded path
    assert run_cli(cmd.split() + ["--out", str(b)]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# output_path:")]
    assert strip(a) == strip(b)


# sha256 of the stdout of `simulate --n 3000 --reps 24 --target-hr 1.5,2
# --seed 99`, recorded when the second-event fit of a censored run took
# the delta1 = 1 rows as a subset rather than giving the others zero weight
CENSORED_SIMULATE_DIGESTS = {
    ("independent", "0.5"):
        "98674444b3cb79dcc5ef25475ce999e734bba9e174df3dbdf4a0c63c03c6463a",
    ("independent", "0.25"):
        "c720d356c096a50b60130c5bf1ac625f3b44dcf602d215070dee7b98db91e035",
    ("tv-covariates", "0.5"):
        "da55e563de071b23ea0ee091d04f0958bb573f2158665170a7fb127004b4b196",
    ("tv-covariates", "0.25"):
        "57a608ad5be1eb36ef7ae020d6e101a43e74d63bf5fc4ad5712b486534244d13",
    ("tv-treatment", "0.5"):
        "882cfe8896264389069bf67717207b5652787a67a053bd5767fc052a1bea9e22",
    ("tv-treatment", "0.25"):
        "f04b8f33e811fece3e44f40b5310cfb1cbcd406e14d03cd2bea04dac51eacd83",
}


@pytest.mark.parametrize("scenario,tau", sorted(CENSORED_SIMULATE_DIGESTS))
def test_censored_simulate_matches_the_recorded_digest(capsys, scenario, tau):
    argv = ["simulate", "--scenario", scenario, "--tau", tau, "--n", "3000",
            "--reps", "24", "--target-hr", "1.5,2", "--seed", "99"]
    assert run_cli(argv) == 0
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == CENSORED_SIMULATE_DIGESTS[scenario, tau]


def test_generate_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cmd = ("generate --scenario tv-treatment --target-hr 1.5 --n 250 "
           "--tau 1.0 --seed 13")
    assert run_cli(cmd.split() + ["--out", str(a)]) == 0
    first = a.read_bytes()
    assert run_cli(cmd.split() + ["--out", str(a)]) == 0
    assert a.read_bytes() == first
    assert run_cli(cmd.split() + ["--out", str(b)]) == 0
    lines = a.read_text().splitlines()
    n_comments = sum(1 for l in lines if l.startswith("#"))
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "x1,x2,z1,z2,w1,w2,delta1,delta2"
    assert len(data) == 1 + 250
    arr = np.genfromtxt(
        str(a), delimiter=",", names=True, skip_header=n_comments
    )
    assert set(arr.dtype.names) == set(data[0].split(","))
    assert np.all((arr["delta2"] <= arr["delta1"]))


def test_generate_stdout_equals_out_file(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    cmd = "generate --scenario tv-covariates --target-hr 2 --n 40 --seed 9".split()
    assert run_cli(cmd + ["--out", str(out)]) == 0
    assert run_cli(cmd) == 0
    printed = capsys.readouterr().out
    # the manifest records where the output went; nothing else differs
    assert "# output_path: None\n" in printed
    assert printed.replace("# output_path: None\n", f"# output_path: {out}\n") == (
        out.read_text()
    )


def test_calibrate_never_reads_the_published_table(monkeypatch, capsys):
    def published(hr):
        raise AssertionError("calibrate read the published table")

    monkeypatch.setattr(cli, "lookup_calibration", published)
    assert run_cli(["calibrate", "--targets", "2"]) == 0
    # a fresh solve, not the published 0.783
    assert "# beta_c_values: 0.7832" in capsys.readouterr().out


def test_recalibrate_solves_the_target_once(monkeypatch):
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    solves, solve = [], cli.calibrate_beta_c
    monkeypatch.setattr(cli, "calibrate_beta_c",
                        lambda beta_m1: solves.append(beta_m1) or solve(beta_m1))
    assert run_cli("simulate --recalibrate --target-hr 2 --n 300 --reps 1 "
                   "--seed 3".split()) == 0
    assert solves == [float(np.log(2.0))]


def _record_configs(monkeypatch, name):
    """Make cli.<name> record each config it runs, then run it."""
    configs, run = [], getattr(cli, name)

    def recording(config, *args):
        configs.append(config)
        return run(config, *args)

    monkeypatch.setattr(cli, name, recording)
    return configs


def _printed_design(config):
    """What the manifest prints for a config: its fields but beta_c, the
    intercepts its prevalence picks and simgen's fixed slopes, rate and drift."""
    values = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "beta_c"}
    return {**values,
            "alpha0": simgen.ALPHA0_BY_PREVALENCE[config.prevalence], "alpha1": simgen.ALPHA1,
            "gamma0": simgen.GAMMA0_BY_PREVALENCE[config.prevalence], "gamma1": simgen.GAMMA1,
            "gamma2": simgen.GAMMA2, "beta1": simgen.BETA1,
            "baseline_rate": simgen.BASELINE_RATE, "drift_sd": simgen.DRIFT_SD}


def test_manifest_generator_fields_match_the_config(monkeypatch, capsys):
    # the manifest prints every generator parameter of the configs a
    # command runs, beta_c as one beta_c_values entry per target
    monkeypatch.setenv("RECURWEIGHT_THREADS", "1")
    studied = _record_configs(monkeypatch, "run_simulation")
    assert run_cli("simulate --scenario tv-treatment --prevalence 0.5 --tau 2 "
                   "--n 500 --reps 2 --target-hr 1.5,2 --seed 3 --format json".split()) == 0
    printed = json.loads(capsys.readouterr().out)["manifest"]
    assert printed["beta_c_values"] == [c.beta_c for c in studied] == [0.4599, 0.783]
    for config in studied:
        for name, value in _printed_design(config).items():
            assert printed[name] == value, name

    dumped = _record_configs(monkeypatch, "gen_blocks")
    assert run_cli("generate --scenario tv-covariates --tau 0.5 --n 40 --target-hr 2 "
                   "--seed 3".split()) == 0
    printed = dict(line[2:].split(": ", 1) for line in capsys.readouterr().out.splitlines()
                   if line.startswith("# ") and ": " in line)
    [config] = dumped
    assert printed["beta_c_values"] == repr(config.beta_c) == "0.783"
    # a plain int, since on Python 3.10 str() of an IntEnum member is its name
    assert printed["scenario"] == "2"
    assert type(parse_args(["generate"]).scenario) is int
    for name, value in _printed_design(config).items():
        if name != "scenario":
            assert printed[name] == str(value), name


def test_calibrate_small_oracle(tmp_path):
    out = tmp_path / "cal.csv"
    code = run_cli(
        f"calibrate --targets 1,1.5 --oracle-n 100000 --out {out}".split()
    )
    assert code == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == ",".join(CALIBRATION_COLUMNS)
    assert len(data) == 3
    null_row = dict(zip(CALIBRATION_COLUMNS, data[1].split(",")))
    assert null_row["beta_c"] == "0.0000"
    row = dict(zip(CALIBRATION_COLUMNS, data[2].split(",")))
    assert float(row["beta_c"]) == pytest.approx(0.4599, abs=0.03)
    assert float(row["beta_m2"]) == pytest.approx(0.2085, abs=0.03)
    assert row["hr1"] == "1.5000"


def test_calibrate_manifest_lists_what_governs_the_solve(tmp_path):
    # the solve reads the oracle design and the generator parameters;
    # the study-only fields (n_reps, prevalence, tau, intercepts) and
    # the ignored --oracle-n and --seed stay out
    m = parse_args("calibrate --targets 2 --oracle-n 200000 --seed 7".split())
    m.beta_c_values = (0.783,)
    want = {
        "command": "calibrate", "scenario": 3,
        "beta1": simgen.BETA1,
        "baseline_rate": simgen.BASELINE_RATE,
        "drift_sd": simgen.DRIFT_SD,
        "target_hrs": [2.0],
        "output_format": "csv", "output_path": None, "beta_c_values": [0.783],
    }
    entry = lookup_calibration(2.0)
    out = tmp_path / "cal.json"
    m.output_format, m.output_path = "json", str(out)
    emit_calibration([entry], m)
    manifest = json.loads(out.read_text())["manifest"]
    assert list(manifest) == list(want)
    assert manifest == {**want, "output_format": "json", "output_path": str(out)}
    for fmt, mark in (("csv", "#"), ("md", ">")):
        out = tmp_path / f"cal.{fmt}"
        m.output_format, m.output_path = fmt, str(out)
        emit_calibration([entry], m)
        keys = [line[2:].split(":")[0] for line in out.read_text().splitlines()
                if line.startswith(f"{mark} ") and ": " in line]
        assert keys == list(want)
        assert f"{mark} scenario: 3" in out.read_text()
        assert f"{mark} output_format: {fmt}" in out.read_text()


def test_calibrate_md_hr_rendering(tmp_path):
    out = tmp_path / "cal.md"
    code = run_cli(
        f"calibrate --targets 1.5 --oracle-n 100000 --format md --out {out}".split()
    )
    assert code == 0
    assert "| 0.4055 | 1.5 |" in out.read_text()


def test_runtime_failure_exit_1(tmp_path, capsys):
    code = run_cli(
        "simulate --scenario independent --target-hr 1.5 --n 2 --reps 4 "
        "--seed 3".split()
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_calibrate_target_beyond_the_oracle_domain_exit_1(capsys):
    # marginal HR 1e15 is log HR 34.5, so the solve's first oracle call
    # lies past the domain bound
    assert run_cli(["calibrate", "--targets", "1e15"]) == 1
    err = capsys.readouterr().err
    assert "outside the oracle's domain" in err
    assert "straddle" not in err


def test_failed_allocation_exit_1(monkeypatch, capsys):
    # a cohort too large to allocate is reported as a run-time error, not
    # as a traceback
    def unable(*args):
        raise MemoryError("Unable to allocate 32.7 TiB for an array")

    monkeypatch.setattr(cli, "run_simulation", unable)
    assert run_cli("simulate --n 1000000000000 --reps 1".split()) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 32.7 TiB for an array\n"


def test_closed_stdout_exits_1_without_an_error():
    # the reader stops after one line, as `generate | head -1` does: the
    # command stops with exit 1 and writes nothing to stderr
    src = str(Path(recurweight.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "recurweight.cli", "generate", "--n", "20000"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# recurweight")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


def test_unwritable_path_exit_1(tmp_path, capsys):
    code = run_cli(
        "simulate --scenario independent --target-hr 1.5 --n 400 --reps 2 "
        "--seed 3 --out /no/such/dir/x.csv".split()
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_emit_table_json_roundtrip(tmp_path):
    rows = [{
        "event": 1, "scenario": 2, "prevalence": 0.25, "tau": None,
        "true_log_hr": 0.4055, "true_hr": 1.5, "est_log_hr": 0.41,
        "est_hr": 1.5068, "bias_pct": 1.11, "ase": 0.02, "ese": 0.021,
        "rse": 0.022, "n": 100, "reps": 10, "seed": 4, "failed": 0,
        "bias_is_absolute": False, "ese_centered": 0.02,
    }]
    out = tmp_path / "r.json"
    manifest = parse_args(
        f"simulate --scenario tv-covariates --target-hr 1.5 --format json --out {out}".split()
    )
    emit_table(rows, manifest)
    assert json.loads(out.read_text())["rows"] == rows
    with pytest.raises(ValueError):
        emit_table([], manifest)
    manifest.output_format = "xml"
    with pytest.raises(ValueError):
        emit_table(rows, manifest)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


# hand-written rows; the golden files hold the bytes each emitter writes
# to stdout for them in each format, which its manifest names
GOLDEN = Path(__file__).parent / "golden"


def _summary_row(event, log_hrs, hrs, bias_pct, absolute, **extra):
    # log_hrs and hrs are (true, estimated) pairs
    row = {
        "event": event, "scenario": 2, "prevalence": 0.25, "tau": None,
        "true_log_hr": log_hrs[0], "true_hr": hrs[0],
        "est_log_hr": log_hrs[1], "est_hr": hrs[1], "bias_pct": bias_pct,
        "ase": 0.0456, "ese": 0.04321, "rse": 1.0553, "n": 600, "reps": 20,
        "seed": 5, "failed": 0, "bias_is_absolute": absolute,
        "ese_centered": 0.0431,
    }
    row.update(extra)
    return row


def _emit_summary_null(fmt):
    manifest = parse_args(
        "simulate --scenario tv-covariates --target-hr 1,1.5 --n 600 "
        f"--reps 20 --seed 5 --format {fmt}".split()
    )
    manifest.beta_c_values = (0.0, 0.4599)
    rows = [
        _summary_row(1, (0.0, 0.0123), (1.0, 1.0124), 0.0123, True),
        _summary_row(2, (0.0, -0.0071), (1.0, 0.9929), -0.0071, True, failed=1),
        _summary_row(1, (0.4055, 0.41), (1.5, 1.5068), 1.1097, False),
        _summary_row(2, (0.2085, 0.2), (1.2318, 1.2214), -4.0767, False),
    ]
    emit_table(rows, manifest)


def _emit_summary(fmt):
    manifest = parse_args(
        "simulate --scenario tv-treatment --tau 0.5 --prevalence 0.5 "
        f"--target-hr 2 --n 800 --reps 10 --seed 11 --format {fmt}".split()
    )
    manifest.beta_c_values = (0.783,)
    common = {"scenario": 3, "prevalence": 0.5, "tau": 0.5, "n": 800,
              "reps": 10, "seed": 11}
    rows = [
        _summary_row(1, (0.6931, 0.7012), (2.0, 2.0162), 1.1687, False, **common),
        _summary_row(2, (0.3551, 0.3333), (1.4263, 1.3955), -6.139, False,
                     rse=float("nan"), ese=float("inf"), **common),
    ]
    emit_table(rows, manifest)


def _emit_calibration(fmt):
    manifest = parse_args(f"calibrate --targets 1,1.5,2 --format {fmt}".split())
    entries = [lookup_calibration(hr) for hr in manifest.target_hrs]
    manifest.beta_c_values = tuple(e.beta_c for e in entries)
    emit_calibration(entries, manifest)


LAYOUTS = {
    "summary_null": _emit_summary_null,
    "summary": _emit_summary,
    "calibration": _emit_calibration,
}


@pytest.mark.parametrize("fmt", ["csv", "md", "json"])
@pytest.mark.parametrize("case", sorted(LAYOUTS))
def test_emitted_layout_is_pinned(case, fmt, capsys):
    LAYOUTS[case](fmt)
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_emit_calibration_rejects_unknown_format(tmp_path):
    m = parse_args(f"calibrate --targets 2 --out {tmp_path / 'cal.xml'}".split())
    m.output_format = "xml"
    with pytest.raises(ValueError):
        emit_calibration([lookup_calibration(2.0)], m)

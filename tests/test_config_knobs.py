"""Every value a study can set has a command-line flag.

ScenarioConfig holds what a study varies across its cells; the rest of
the design is fixed in simgen. A config field that no flag sets would be
a knob no command can turn, and whose other values no truth is computed
for, so each field must follow exactly one flag of `simulate`. The run
manifest takes only what a command sets, so its design lines can only
print the config the command runs.
"""

import inspect
from dataclasses import fields

import pytest

from recurweight import cli
from recurweight.cli import RunManifest
from recurweight.simgen import ScenarioConfig

BASE = {"--scenario": "independent", "--prevalence": "0.25", "--n": "40",
        "--target-hr": "1.5", "--seed": "3", "--reps": "1"}

# the flag that sets each field, and a value that differs from BASE's
FLAG_OF = {
    "scenario": ("--scenario", "tv-covariates"),
    "prevalence": ("--prevalence", "0.5"),
    "n_subjects": ("--n", "50"),
    "beta_c": ("--target-hr", "2"),  # through the target's calibration
    "tau": ("--tau", "2"),
}


class Captured(Exception):
    """Carries the config `cli.run_simulation` was called with."""


def captured_config(monkeypatch, flags):
    def capture(config, *args):
        raise Captured(config)

    monkeypatch.setattr(cli, "run_simulation", capture)
    argv = ["simulate"] + [part for flag, value in flags.items() for part in (flag, value)]
    with pytest.raises(Captured) as info:
        cli.main(argv)
    return info.value.args[0]


def test_config_holds_only_what_a_study_varies():
    assert [f.name for f in fields(ScenarioConfig)] == [
        "scenario", "prevalence", "n_subjects", "beta_c", "tau"]
    assert sorted(FLAG_OF) == sorted(f.name for f in fields(ScenarioConfig))


def test_each_config_field_follows_one_flag(monkeypatch):
    base = captured_config(monkeypatch, BASE)
    names = [f.name for f in fields(ScenarioConfig)]
    for name, (flag, value) in FLAG_OF.items():
        changed = captured_config(monkeypatch, {**BASE, flag: value})
        moved = [n for n in names if getattr(changed, n) != getattr(base, n)]
        assert moved == [name], (flag, moved)


def test_manifest_takes_only_what_a_command_sets():
    assert list(inspect.signature(RunManifest).parameters) == [
        "command", "config", "target_hrs", "n_reps", "master_seed",
        "output_format", "output_path", "recalibrate", "oracle_n"]


def test_manifest_refuses_a_design_value():
    # a design value set here would print a line the generator never used
    with pytest.raises(TypeError, match="alpha1"):
        RunManifest(command="simulate", config=ScenarioConfig(3, 0.5), alpha1=9.0)

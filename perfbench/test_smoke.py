"""Smoke test of the benchmark at toy sizes (a few seconds per workload).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Each workload runs shrunk, end to end and traced, at a seed other
than its reference seed; the metric names and units must match
BENCHMARK.json exactly.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {
    "sim-tv": {"size": 2_000, "reps": 8},
    "sim-indep": {"size": 2_000, "reps": 8},
    "calibrate-hr2": {"size": 100_000},
    "generate-1m": {"size": 1_000},
}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_correct_at_toy_size(name, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "SETUP_PROBES", 1)
    w = replace(workloads.WORKLOADS[name], **TOY[name])
    info, result = workloads.run_workload(w, 7, 0.01, trace, tmp_path / "trace.json")

    assert result["correct"], info["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        traced = json.loads((tmp_path / "trace.json").read_text())
        assert traced["missing"] == [] and traced["spans"]
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_trace_target_is_reported_not_fatal():
    targets = spans.TARGETS + (
        ("recurweight.harness", "no_such_function", "harness.no_such_function", None),
        ("recurweight.no_such_module", "main", "gone.main", None),
    )
    w = replace(workloads.WORKLOADS["sim-tv"], size=2_000)
    config, _ = workloads.study_inputs(w.argv(7))
    untraced = workloads.harness.run_replicate(config, 7, 0)
    tracer = spans.Tracer("harness.run_replicate", targets)
    with tracer:
        traced = workloads.harness.run_replicate(config, 7, 0)
    assert tracer.missing == ["recurweight.harness.no_such_function",
                              "recurweight.no_such_module.main"]
    assert repr(traced) == repr(untraced)
    assert workloads.harness.run_replicate.__name__ == "run_replicate"
    assert not hasattr(workloads.harness.run_replicate, "__wrapped__")
    metrics = spans.layer_metrics(tracer)
    assert metrics["trace.missing_spans"][0] == 2
    assert metrics["coxfit.fit_weighted_cox.calls_per_rep"][0] == 2


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, it exits nonzero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-tv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Run a fixed battery of recurweight commands under two source trees and
check that they print and write the same bytes.

    python tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository; its commands run as
`python -m recurweight.cli ...` with PYTHONPATH set to the tree's src
directory and RECURWEIGHT_THREADS=1, each in a fresh working directory.
For every command the exit code, stdout, stderr and the bytes of its
--out file are compared. The script stops at the first command that
differs, names it and what differs, and exits 1; it exits 0 when every
command matches.

The battery has 61 commands: `generate` at n = 2, 2,049, 16,384, 32,768,
40,000 and 10^6 (one block of simgen.GEN_BLOCK_ROWS rows, partial or
full, two full blocks, and three or 62 with a partial last one; 2,049
rows end in a one-row chunk of simgen.CSV_CHUNK_ROWS) in all three
scenarios, with tau unset and 0.5; `simulate` in each format with tau
unset and 0.5; `calibrate --targets 2` in each format; small studies
at a null, an off-table and two targets and with --recalibrate;
`calibrate` at the five table targets, as text and as full-precision
json; `generate` at an off-table target; five usage errors; and
`--help` for the program and each subcommand. Both trees take about
45 s together on a 2-core x86-64 host.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("independent", "tv-covariates", "tv-treatment")
TAUS = (None, "0.5")
FORMATS = ("csv", "md", "json")
OUT = "out.dat"


def _tau(tau):
    return [] if tau is None else ["--tau", tau]


def battery():
    """The commands, each an argument list; those with --out write OUT."""
    commands = []
    for scenario in SCENARIOS:
        for tau in TAUS:
            for n in (2, 2_049, 16_384, 32_768, 40_000, 1_000_000):
                out = ["--out", OUT] if n == 1_000_000 else []
                commands.append(["generate", "--scenario", scenario, "--n", str(n),
                                 "--target-hr", "2", "--seed", "7", *_tau(tau), *out])
    for fmt in FORMATS:
        for tau in TAUS:
            commands.append(["simulate", "--scenario", "tv-treatment", "--n", "20000",
                             "--reps", "6", "--seed", "11", "--format", fmt, *_tau(tau)])
    for fmt in FORMATS:
        out = ["--out", OUT] if fmt == "json" else []
        commands.append(["calibrate", "--targets", "2", "--format", fmt, *out])
    study = ["simulate", "--scenario", "tv-treatment", "--n", "2000", "--reps", "4",
             "--seed", "11"]
    for targets in ("1", "1.7", "1.5,2"):
        commands.append([*study, "--target-hr", targets])
    commands.append([*study, "--target-hr", "2", "--recalibrate"])
    for fmt in ([], ["--format", "json"]):
        commands.append(["calibrate", "--targets", "1,1.5,2,2.5,3", *fmt])
    commands.append(["generate", "--n", "2000", "--target-hr", "1.7", "--seed", "7"])
    # usage errors, each exit 2
    commands += [["simulate", "--prevalence", "0.3"],
                 ["simulate", "--scenario", "independent", "--tau", "0"],
                 ["simulate", "--seed", "-1"],
                 ["generate", "--target-hr", "1.5,2"],
                 ["calibrate", "--targets", "0.5"]]
    commands.append(["--help"])
    commands += [[command, "--help"] for command in ("calibrate", "simulate", "generate")]
    return commands


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run(tree, args):
    """Run one command under tree; return what it left, as digests."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree, "src").resolve()),
           "RECURWEIGHT_THREADS": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        with open(Path(cwd, "stdout"), "wb") as out, open(Path(cwd, "stderr"), "wb") as err:
            code = subprocess.run([sys.executable, "-m", "recurweight.cli", *args],
                                  cwd=cwd, env=env, stdout=out, stderr=err).returncode
        result = {"exit code": code}
        for name in ("stdout", "stderr", OUT):
            path = Path(cwd, name)
            result[name] = _digest(path) if path.exists() else None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    args = parser.parse_args()
    for tree in (args.old_tree, args.new_tree):
        if not Path(tree, "src", "recurweight").is_dir():
            parser.error(f"{tree} has no src/recurweight")
    commands = battery()
    for command in commands:
        old, new = run(args.old_tree, command), run(args.new_tree, command)
        line = "recurweight " + " ".join(command)
        if old != new:
            parts = ", ".join(k for k in old if old[k] != new[k])
            print(f"differs ({parts}): {line}")
            return 1
        print(f"same (exit {old['exit code']}): {line}", flush=True)
    print(f"all {len(commands)} commands identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""recurweight benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload sim-tv --seed 1234 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.
--trace 0 measures the end-to-end metrics with nothing installed in
the program; --trace 1 adds a traced pass on one worker and reports
the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it carries the machine, the checks and the raw timings.
Workloads, metrics and the layer-to-metric map are in README.md.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sim-tv", "sim-indep", "calibrate-hr2", "generate-1m")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="program seed (default: the workload's reference seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import recurweight
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(recurweight.__file__).resolve().parent.parent != src:
        print(f"error: recurweight was imported from {recurweight.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{w.name}-seed{seed}.json"
    scratch = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR)
    cwd = os.getcwd()
    os.chdir(scratch)  # the generate dump is written here under a fixed name
    try:
        info, result = workloads.run_workload(w, seed, args.seconds, args.trace, trace_path)
    finally:
        os.chdir(cwd)
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time recurweight's start-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKERS

Prints the seconds from the first import of the package to a worker
pool of WORKERS processes that have all answered one task (no pool for
WORKERS = 0). The benchmark runs this several times per run and
reports the median as setup_s. Needs the package's src directory on
PYTHONPATH.
"""

import sys
from time import perf_counter

start = perf_counter()

from multiprocessing import Pool  # noqa: E402

from recurweight import cli  # noqa: E402,F401  imports every layer, as the command does


def main():
    workers = int(sys.argv[1])
    if workers > 0:
        with Pool(workers) as pool:
            pool.map(abs, range(workers), chunksize=1)
            ready = perf_counter()
    else:
        ready = perf_counter()
    print(repr(ready - start))


if __name__ == "__main__":
    main()

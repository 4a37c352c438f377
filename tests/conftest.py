"""Shared fixtures: the pinned bits that this numpy and OpenBLAS run.

numpy dispatches float64 `log` and `exp` to the widest SIMD kernel the
CPU offers, and on x86-64 its X86_V4 (AVX-512) kernels return other
last bits for some inputs than its X86_V3 (AVX2) ones. The gap times go
through both functions, so a test that pins raw cohort bytes records
one sha256 per dispatch target and checks the one in effect; a target
with no recorded digest fails, naming the target.

The IRLS sums of `statcore.fit_logistic` go through BLAS, and
OpenBLAS picks its kernel set (SkylakeX, Haswell, ...) at load time,
so a value pinned past those sums is recorded per kernel set in the
same way.

A last fixture runs one piece of work on two threads at once, for the
tests that hold library calls to their serial bits under threads.
"""

import ctypes
import ctypes.util
import glob
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest


def current_dispatch_target():
    """The target float64 log and exp run on, e.g. "X86_V4"."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 does not report it
        return f"unknown (numpy {np.__version__})"
    info = opt_func_info(func_name="^(log|exp)$", signature="float64")
    return " / ".join(sorted({target["current"] for by_signature in info.values()
                              for target in by_signature.values()}))


def _picker(key, missing):
    """pick(values) returns values[key], or fails the test with `missing`."""

    def pick(values):
        if key not in values:
            pytest.fail(missing)
        return values[key]

    return pick


@pytest.fixture(scope="session")
def pinned_digest():
    """Pick, from {dispatch target: sha256}, the digest this process must produce."""
    target = current_dispatch_target()
    return _picker(target, f"no digest recorded for numpy's {target} dispatch of log and exp")


def openblas_corename():
    """The kernel set the loaded OpenBLAS runs, e.g. "SkylakeX".

    numpy's wheels bundle scipy-openblas, which names the query
    `scipy_openblas_get_corename64_` (or without the 64_ suffix in a
    32-bit-integer build); a system OpenBLAS calls it
    `openblas_get_corename`. Loading an already loaded library returns
    that library, so the name is the one numpy's BLAS calls run on.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    paths = glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(site, "scipy_openblas*", "lib", "*openblas*"))
    paths += [p for p in [ctypes.util.find_library("openblas")] if p]
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_char_p
                return query().decode()
    return f"unknown (no OpenBLAS found for numpy {np.__version__})"


@pytest.fixture(scope="session")
def pinned_by_openblas_core():
    """Pick, from {OpenBLAS kernel set: value}, the value this process must produce."""
    core = openblas_corename()
    return _picker(core, f"no value recorded for OpenBLAS's {core} kernels")


@pytest.fixture
def two_threads():
    """run(work) returns [work(1), work(-1)], called on two threads at once.

    The step lets the threads take their inputs in opposite orders, so
    they seldom compute the same thing at the same time. Both start
    together, and the interpreter switches between them every 10 us
    instead of every 5 ms, so their calls interleave finely.
    """

    def run(work):
        start = threading.Barrier(2)

        def started(step):
            start.wait(timeout=60)
            return work(step)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                return list(pool.map(started, (1, -1)))
        finally:
            sys.setswitchinterval(interval)

    return run

"""Shared fixtures: the digest of raw float bytes that this numpy runs.

numpy dispatches float64 `log` and `exp` to the widest SIMD kernel the
CPU offers, and on x86-64 its X86_V4 (AVX-512) kernels return other
last bits for some inputs than its X86_V3 (AVX2) ones. The gap times go
through both functions, so a test that pins raw cohort bytes records
one sha256 per dispatch target and checks the one in effect; a target
with no recorded digest fails, naming the target.
"""

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


@pytest.fixture(scope="session")
def pinned_digest():
    """Pick, from {dispatch target: sha256}, the digest this process must produce."""
    target = current_dispatch_target()

    def pick(digests):
        if target not in digests:
            pytest.fail(f"no digest recorded for numpy's {target} dispatch of log and exp")
        return digests[target]

    return pick

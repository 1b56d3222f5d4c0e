"""Numba/numpy backend selection for the hot kernels.

Two hot kernels have two interchangeable implementations, a loop-style
one compiled with ``numba.njit`` and a vectorized pure-numpy one: the
mean-field sweep and the unrolled adjoint sweep. The Gibbs sweep is
sequential per item, so it is one loop source with two runners: numba
compiles the per-group loop, ``_gibbs_group``, over array views, and
without numba CPython runs a copy of it unrolled over the K topics over
Python lists, which the parity tests hold to it bit for bit. Array digamma/trigamma are
numpy only; the compiled kernels call the scalar series directly. The
active backend is chosen once at import time from the
``LOGISTIC_LDA_BACKEND`` environment variable:

    auto   (default) use numba when importable, else numpy
    numba  require numba; raise if it is missing
    numpy  always use the pure-numpy fallbacks

The parity tests in ``tests/test_backends.py`` assert that both paths
agree to machine precision.  ``perfbench/`` measures the numpy backend;
its traced run times each kernel as a per-layer metric.
"""

import os

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False

_choice = os.environ.get("LOGISTIC_LDA_BACKEND", "auto").strip().lower()
if _choice in ("", "auto"):
    USE_NUMBA = HAS_NUMBA
elif _choice == "numba":
    if not HAS_NUMBA:
        raise ImportError(
            "LOGISTIC_LDA_BACKEND=numba but numba is not installed"
        )
    USE_NUMBA = True
elif _choice == "numpy":
    USE_NUMBA = False
else:
    raise ValueError(
        f"unrecognized LOGISTIC_LDA_BACKEND={_choice!r}; "
        "expected auto, numba, or numpy"
    )

BACKEND = "numba" if USE_NUMBA else "numpy"


def njit(func):
    """Compile ``func`` with numba when available, else return it unchanged.

    Used to build the numba side of each kernel pair regardless of which
    backend is active, so the parity tests can always reach both.
    """
    if HAS_NUMBA:
        return numba.njit(cache=True)(func)
    return func


def pick(numba_impl, numpy_impl):
    """Return the implementation matching the active backend."""
    return numba_impl if USE_NUMBA else numpy_impl

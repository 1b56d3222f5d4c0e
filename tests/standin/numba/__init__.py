"""A stand-in for numba whose ``njit`` returns the function unchanged.

It lets the numba backend's loops run, as plain Python, on a host without
numba.  It sits off the default import path; put its parent directory on
PYTHONPATH to use it:

    LOGISTIC_LDA_BACKEND=numba PYTHONPATH=src:tests/standin python -m pytest -q
"""


def njit(*args, **kwargs):
    """``njit(func)`` and ``njit(**options)(func)`` both give ``func``."""
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]
    return lambda func: func

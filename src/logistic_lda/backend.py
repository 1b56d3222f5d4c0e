"""The backend choice, and every numba loop of the package.

Three kernels have a numba loop here and a numpy form in the module that
calls it: the mean-field sweep (`mean_field.py`), the unrolled adjoint
(`training.py`) and the Gibbs sweep (`lda_baseline.py`).  Each module
takes its kernel as ``backend.<kernel> or <numpy form>``; the names at
the end are the compiled loops on the numba backend, None on numpy.  The
Gibbs sweep is sequential per item, so it is one loop source with two
runners: numba compiles the per-group loop, ``_gibbs_group``, over array
views, and without numba CPython runs a copy of it unrolled over the K
topics over Python lists, which the parity tests hold to it bit for bit.
Array digamma/trigamma are numpy only; the compiled kernels call the
scalar series here.  The backend is chosen once at import time from
``LOGISTIC_LDA_BACKEND``; any other value is a UsageError:

    auto   (default) use numba when importable, else numpy
    numba  require numba
    numpy  always use the pure-numpy forms

The parity tests in ``tests/test_backends.py`` assert that both paths
agree to machine precision.  ``perfbench/`` measures the numpy backend.
"""

import math
import os

import numpy as np

from .errors import UsageError
from .math_kernels import _digamma_tail, _trigamma_tail

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False

_choice = os.environ.get("LOGISTIC_LDA_BACKEND", "auto").strip().lower()
if _choice not in ("", "auto", "numba", "numpy"):
    raise UsageError(f"unrecognized LOGISTIC_LDA_BACKEND={_choice!r}; "
                     "expected auto, numba, or numpy")
if _choice == "numba" and not HAS_NUMBA:
    raise UsageError("LOGISTIC_LDA_BACKEND=numba but numba is not installed")
USE_NUMBA = HAS_NUMBA if _choice in ("", "auto") else _choice == "numba"
BACKEND = "numba" if USE_NUMBA else "numpy"


def njit(func):
    """Compile ``func`` with numba when available, else return it unchanged.

    Used to build the numba side of each kernel regardless of which
    backend is active, so the parity tests can always reach both.
    """
    if HAS_NUMBA:
        return numba.njit(cache=True)(func)
    return func


# math_kernels' digamma/trigamma series, one argument at a time
_digamma_tail_jit = njit(_digamma_tail)
_trigamma_tail_jit = njit(_trigamma_tail)


def _digamma_scalar(x):
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - _digamma_tail_jit(z)


def _trigamma_scalar(x):
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    z = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * z + _trigamma_tail_jit(z) / x


_digamma_scalar_jit = njit(_digamma_scalar)
_trigamma_scalar_jit = njit(_trigamma_scalar)


# the twin of mean_field._mean_field_batch_np: its signature and tape
def _mean_field_batch_nb(F, offsets, alpha, lam, labels, clamp, max_sweeps, tol, AH0, PL0,
                         tape_P, tape_A, tape_Q):
    total, K = F.shape
    D = offsets.shape[0] - 1
    P = np.empty((total, K))
    PL = np.empty((D, K))
    AH = np.empty((D, K))
    psi_a = np.empty(K)
    taped = tape_P.shape[0] > 0
    sweeps = 0
    for d in range(D):
        lo, hi = offsets[d], offsets[d + 1]
        clamped = clamp and labels[d] >= 0
        if clamped:
            for k in range(K):
                PL[d, k] = 0.0
            PL[d, labels[d]] = 1.0
        else:
            for k in range(K):
                PL[d, k] = PL0[d, k]
        for k in range(K):
            AH[d, k] = AH0[d, k]
        if taped:
            for k in range(K):
                tape_A[d, 0, k] = AH[d, k]
                tape_Q[d, 0, k] = PL[d, k]
        done = 0
        while done < max_sweeps:
            for k in range(K):
                psi_a[k] = _digamma_scalar_jit(AH[d, k])
            for n in range(lo, hi):
                m = -np.inf
                for k in range(K):
                    v = F[n, k] + psi_a[k]
                    P[n, k] = v
                    if v > m:
                        m = v
                s = 0.0
                for k in range(K):
                    e = np.exp(P[n, k] - m)
                    P[n, k] = e
                    s += e
                for k in range(K):
                    P[n, k] /= s
            delta = 0.0
            for k in range(K):
                new = alpha[k] + lam * PL[d, k]
                for n in range(lo, hi):
                    new += P[n, k]
                diff = new - AH[d, k]
                if diff < 0.0:
                    diff = -diff
                if diff > delta:
                    delta = diff
                AH[d, k] = new
            if not clamped:
                m = -np.inf
                for k in range(K):
                    v = lam * _digamma_scalar_jit(AH[d, k])
                    PL[d, k] = v
                    if v > m:
                        m = v
                s = 0.0
                for k in range(K):
                    e = np.exp(PL[d, k] - m)
                    PL[d, k] = e
                    s += e
                for k in range(K):
                    PL[d, k] /= s
            done += 1
            if taped:
                for n in range(lo, hi):
                    for k in range(K):
                        tape_P[done - 1, n, k] = P[n, k]
                for k in range(K):
                    tape_A[d, done, k] = AH[d, k]
                    tape_Q[d, done, k] = PL[d, k]
            if tol > 0.0 and delta < tol:
                break
        if done > sweeps:
            sweeps = done
    return P, PL, AH, sweeps


_mean_field_batch_nb_jit = njit(_mean_field_batch_nb)


# the twin of training._unroll_bwd_np
def _unroll_bwd_nb(offsets, lam, P, A, Q, labels, n_iter, floor):
    D = offsets.shape[0] - 1
    total = P.shape[1]
    K = P.shape[2]
    dF = np.zeros((total, K))
    losses = np.empty(D)
    floor_hits = 0
    dV = np.empty(K)
    da = np.empty(K)
    da_items = np.empty(K)
    prev_da = np.empty(K)
    for d in range(D):
        lo, hi = offsets[d], offsets[d + 1]
        c = labels[d]
        p_true = Q[d, n_iter, c]
        if p_true < floor:
            floor_hits += 1
            p_true = floor
        losses[d] = -np.log(p_true)
        for k in range(K):
            da_items[k] = 0.0
        for t in range(n_iter, 0, -1):
            if t == n_iter:
                for k in range(K):
                    dV[k] = Q[d, t, k]
                dV[c] -= 1.0
            else:
                dot = 0.0
                for k in range(K):
                    dot += Q[d, t, k] * lam * prev_da[k]
                for k in range(K):
                    dV[k] = Q[d, t, k] * (lam * prev_da[k] - dot)
            for k in range(K):
                da[k] = lam * _trigamma_scalar_jit(A[d, t, k]) * dV[k] + da_items[k]
            for k in range(K):
                da_items[k] = 0.0
            for n in range(lo, hi):
                dot = 0.0
                for k in range(K):
                    dot += P[t - 1, n, k] * da[k]
                for k in range(K):
                    du = P[t - 1, n, k] * (da[k] - dot)
                    dF[n, k] += du
                    da_items[k] += du
            if t > 1:
                for k in range(K):
                    da_items[k] *= _trigamma_scalar_jit(A[d, t - 1, k])
            for k in range(K):
                prev_da[k] = da[k]
    return dF, losses, floor_hits


_unroll_bwd_nb_jit = njit(_unroll_bwd_nb)


def _gibbs_group(zd, toks, ud, dk, b, kv, nk, a, eta, v_eta, probs):
    """Resample one group's assignments (zd) in order, updating its counts
    dk and the corpus-wide kv and nk.  Indexed as kv[k][v], so numba compiles
    it over array views and CPython runs it over lists, in one order."""
    K = len(dk)
    for i in range(len(zd)):
        v = toks[i]
        k = zd[i]
        dk[k] -= 1.0
        kv[k][v] -= 1.0
        nk[k] -= 1.0
        total = 0.0
        for kk in range(K):
            p = (dk[kk] + a[kk] + b[kk]) * (kv[kk][v] + eta) / (nk[kk] + v_eta)
            probs[kk] = p
            total += p
        r = ud[i] * total
        acc = 0.0
        knew = K - 1
        for kk in range(K):
            acc += probs[kk]
            if r < acc:
                knew = kk
                break
        zd[i] = knew
        dk[knew] += 1.0
        kv[knew][v] += 1.0
        nk[knew] += 1.0


_gibbs_group_jit = njit(_gibbs_group)


# the twin of lda_baseline._gibbs_sweep_lists
def _gibbs_sweep_nb(z, n_dk, n_kv, n_k, tokens, offsets, alpha, bias, eta, u):
    v_eta = n_kv.shape[1] * eta
    probs = np.empty(n_dk.shape[1])
    for d in range(offsets.shape[0] - 1):
        lo, hi = offsets[d], offsets[d + 1]
        _gibbs_group_jit(z[lo:hi], tokens[lo:hi], u[lo:hi], n_dk[d], bias[d],
                         n_kv, n_k, alpha, eta, v_eta, probs)


_gibbs_sweep_nb_jit = njit(_gibbs_sweep_nb)

# the compiled kernels on the numba backend, None on numpy
mean_field_batch = _mean_field_batch_nb_jit if USE_NUMBA else None
unroll_bwd = _unroll_bwd_nb_jit if USE_NUMBA else None
gibbs_sweep = _gibbs_sweep_nb_jit if USE_NUMBA else None

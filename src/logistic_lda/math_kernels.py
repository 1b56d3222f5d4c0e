"""Special functions, simplex operations, and seeded sampling primitives.

All accumulation is in float64. The digamma/trigamma pair is implemented
with upward recurrence to shift the argument above 6 followed by an
asymptotic series, which keeps both functions branch-free to test and
accurate to ~1e-12 over [1e-4, 1e6] relative to scale.  The array forms
shift with masked in-place ufuncs (`where=`), so each element sees the
same operations as the scalar loop, without boolean fancy indexing.

softmax and log_softmax run over K topics per row, and K is short (5-10 in
the paper's settings).  numpy reduces a short contiguous row with a fixed
cost per row: on a 2-CPU Xeon, np.max(v, axis=1) over a (6000, 5) array
takes about 210 us, while the max over axis 0 of a transposed contiguous
copy takes 17 us.  The copy costs O(N K), so the crossover lies between
K = 40 and 50 on 6000 rows and between 50 and 100 on 32 rows; rows of at
most SHORT_ROW = 32 entries take the transposed path.  A max is exact in
any order: the two paths can differ only in the sign of a zero when +0.0
and -0.0 tie for a row's max, and then that row's softmax and log_softmax
bits are the same either way (each tied entry contributes exp(0) = 1).
The row sums stay np.sum: a column-wise sum equals numpy's pairwise row
sum bit for bit only below 8 columns.

A column max (log_sum_exp over axis 0 of an (N, K) stack) has the same
fixed cost per row, and the same cure: the max over axis 1 of a transposed
contiguous copy.  There the copy's strided writes cost more as N grows:
on the same host it is 2.5-8x faster at 5 columns for N from 1 000 to
200 000 rows; at 8 columns it is faster up to 60 000 rows and 6 % slower
at 200 000; at 16 columns it is up to 3.6x slower.  So only arrays of at
most SHORT_COLUMNS = 8 columns take it.
"""

import math

import numpy as np

from .backend import njit
from .errors import ContractError, DomainError

__all__ = [
    "SeededRng",
    "digamma",
    "trigamma",
    "log_sum_exp",
    "softmax",
    "log_softmax",
    "expected_log_pi",
    "ln_multivariate_beta",
    "sample_dirichlet",
    "check_simplex",
    "check_positive_vector",
    "check_int",
    "check_real",
]

SIMPLEX_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Seeded RNG
# ---------------------------------------------------------------------------

class SeededRng:
    """Counter-based random stream (numpy Philox).

    The Philox generator is keyed by the seed alone, so an identical seed
    yields an identical stream on every platform.
    """

    def __init__(self, seed):
        self.seed = check_int(seed, "seed") & 0xFFFFFFFFFFFFFFFF
        self.gen = np.random.Generator(np.random.Philox(self.seed))

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

def check_simplex(p, atol=SIMPLEX_ATOL):
    """Validate and return ``p`` as a simplex vector (>= 0, sums to 1)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise DomainError(f"simplex must be a non-empty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("simplex entries must be finite")
    if np.any(p < 0):
        raise DomainError(f"simplex entries must be non-negative, got min {p.min()}")
    s = p.sum()
    if abs(s - 1.0) > max(atol, p.size * np.finfo(np.float64).eps * 4):
        raise DomainError(f"simplex must sum to 1, got {s!r}")
    return p


def check_positive_vector(v):
    """Validate and return ``v`` as a strictly positive 1-d float vector."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DomainError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0):
        raise DomainError("entries must be finite and strictly positive")
    return v


def check_int(value, name):
    """``value`` as an int: a Python or numpy integer, not a bool."""
    if type(value) is int:  # the common case (every Item's token); a bool's type is bool
        return value
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(value, name):
    """``value`` as a float: a Python or numpy real number, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ContractError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ContractError(f"{name} {value} is beyond the float range") from None


# ---------------------------------------------------------------------------
# Digamma / trigamma
#
# Upward recurrence psi(x) = psi(x+1) - 1/x until x >= 6, then the
# asymptotic (de Moivre) series in 1/x^2. Truncation error of the series
# at x = 6 is below 2e-13 for digamma and 5e-13 for trigamma.
# ---------------------------------------------------------------------------

def _digamma_tail(z):
    """log(x) - 0.5/x - psi(x) at z = 1/x^2 (x >= 6); scalar or array."""
    return z * (
        1.0 / 12.0
        - z * (
            1.0 / 120.0
            - z * (
                1.0 / 252.0
                - z * (
                    1.0 / 240.0
                    - z * (
                        1.0 / 132.0
                        - z * (691.0 / 32760.0 - z * (1.0 / 12.0))
                    )
                )
            )
        )
    )


def _trigamma_tail(z):
    """x * (psi'(x) - 1/x - 0.5/x^2) at z = 1/x^2 (x >= 6); scalar or array."""
    return z * (
        1.0 / 6.0
        - z * (
            1.0 / 30.0
            - z * (
                1.0 / 42.0
                - z * (
                    1.0 / 30.0
                    - z * (
                        5.0 / 66.0
                        - z * (691.0 / 2730.0 - z * (7.0 / 6.0))
                    )
                )
            )
        )
    )


_digamma_tail_nb = njit(_digamma_tail)
_trigamma_tail_nb = njit(_trigamma_tail)


def _digamma_scalar(x):
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    return acc + math.log(x) - 0.5 / x - _digamma_tail_nb(z)


def _trigamma_scalar(x):
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    z = 1.0 / (x * x)
    return acc + 1.0 / x + 0.5 * z + _trigamma_tail_nb(z) / x


digamma_scalar_nb = njit(_digamma_scalar)
trigamma_scalar_nb = njit(_trigamma_scalar)


def _digamma_arr(flat, out):
    x = flat.copy()
    acc = np.zeros_like(x)
    step = np.empty_like(x)
    # at most six unit shifts are needed to move any positive x above 6
    for _ in range(6):
        m = x < 6.0
        if not m.any():
            break
        np.divide(1.0, x, out=step, where=m)
        np.subtract(acc, step, out=acc, where=m)
        np.add(x, 1.0, out=x, where=m)
    z = 1.0 / (x * x)
    out[:] = acc + np.log(x) - 0.5 / x - _digamma_tail(z)
    return out


def _trigamma_arr(flat, out):
    x = flat.copy()
    acc = np.zeros_like(x)
    step = np.empty_like(x)
    for _ in range(6):
        m = x < 6.0
        if not m.any():
            break
        np.multiply(x, x, out=step, where=m)
        np.divide(1.0, step, out=step, where=m)
        np.add(acc, step, out=acc, where=m)
        np.add(x, 1.0, out=x, where=m)
    z = 1.0 / (x * x)
    out[:] = acc + 1.0 / x + 0.5 * z + _trigamma_tail(z) / x
    return out


def _psi_like(x, arr_impl, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise DomainError(f"{name} of an empty argument")
    # NaN fails both comparisons
    if not (arr.min() > 0.0 and arr.max() < np.inf):
        raise DomainError(f"{name} requires finite, strictly positive arguments")
    flat = np.ascontiguousarray(arr.ravel())
    out = arr_impl(flat, np.empty_like(flat)).reshape(arr.shape)
    if arr.ndim == 0:
        return float(out)
    return out


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; scalar or elementwise on arrays."""
    return _psi_like(x, _digamma_arr, "digamma")


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0; scalar or elementwise."""
    return _psi_like(x, _trigamma_arr, "trigamma")


# ---------------------------------------------------------------------------
# Simplex operations
# ---------------------------------------------------------------------------

SHORT_ROW = 32
SHORT_COLUMNS = 8


def _max(v, axis):
    """np.max(v, axis=axis, keepdims=True).  A 2-d array is reduced as a
    transposed contiguous copy when it has at most SHORT_ROW columns for a
    row max, or at most SHORT_COLUMNS columns for a column max (see the
    module docstring)."""
    if v.ndim == 2 and axis in (1, -1) and v.shape[1] <= SHORT_ROW:
        return np.ascontiguousarray(v.T).max(axis=0)[:, None]
    if v.ndim == 2 and axis == 0 and v.shape[1] <= SHORT_COLUMNS:
        return np.ascontiguousarray(v.T).max(axis=1)[None, :]
    return np.max(v, axis=axis, keepdims=True)


def _check_logits(v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ContractError(f"{name} of an empty array")
    return v


def _check_max(m, name):
    # -inf entries are legal log-probabilities (zero mass); NaN/+inf are
    # not, and either one propagates into the max of its row
    if not np.all(m < np.inf):
        raise DomainError(f"{name} requires entries in [-inf, +inf)")


def _shift_by_max(v, axis, name):
    """v minus its max along `axis`, refusing NaN, +inf and all -inf rows."""
    v = _check_logits(v, name)
    m = _max(v, axis)
    _check_max(m, name)
    if np.any(m == -np.inf):
        raise DomainError(f"{name} of all -inf logits is undefined")
    return v - m


def log_sum_exp(v, axis=None):
    """ln sum exp(v) without overflow; accepts -inf entries (zero mass)."""
    v = _check_logits(v, "log_sum_exp")
    if axis is None:
        m = float(np.max(v))
        _check_max(m, "log_sum_exp")
        if m == -np.inf:
            return -np.inf
        return m + math.log(np.exp(v - m).sum())
    m = _max(v, axis)
    _check_max(m, "log_sum_exp")
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(m_safe, axis=axis) + np.log(np.exp(v - m_safe).sum(axis=axis))


# Each row's max entry contributes exp(0) = 1, so the sums below are >= 1.

def softmax(v, axis=-1):
    """exp(v)/sum exp(v); shift-invariant, tolerates -inf logits."""
    e = _shift_by_max(v, axis, "softmax")
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_softmax(v, axis=-1):
    """Elementwise log of softmax, computed stably in log space."""
    shifted = _shift_by_max(v, axis, "log_softmax")
    shifted -= np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted


def _check_positive_rows(x):
    # one Dirichlet parameter vector, or a (D, K) stack of them
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 2 and a.shape[1] >= 1:
        check_positive_vector(a.ravel())
        return a
    return check_positive_vector(a)


_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])


def expected_log_pi(alpha_hat):
    """E[ln pi] under Dir(alpha_hat): psi(alpha_k) - psi(sum alpha), per row
    of a (D, K) stack."""
    a = _check_positive_rows(alpha_hat)
    return digamma(a) - digamma(a.sum(axis=-1, keepdims=True))


def ln_multivariate_beta(alpha):
    """ln B(alpha) = sum ln Gamma(alpha_k) - ln Gamma(sum alpha_k); a float
    for one vector, one value per row of a (D, K) stack."""
    a = _check_positive_rows(alpha)
    out = _lgamma(a).sum(axis=-1) - _lgamma(a.sum(axis=-1))
    return float(out) if a.ndim == 1 else out


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

def sample_dirichlet(alpha, rng):
    """One draw from Dir(alpha) via normalized standard-gamma variates; one
    draw per row of a (D, K) stack."""
    a = _check_positive_rows(alpha)
    draws = rng.gen.standard_gamma(a)
    totals = draws.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0.0):
        raise DomainError(
            "Dirichlet sample underflowed to zero; alpha too small for float64"
        )
    return draws / totals
